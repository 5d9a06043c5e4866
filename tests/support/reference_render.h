// reference_render.h — the full-redraw reference renderer.
//
// renderScene redraws every cell of the scene in scene order, with no
// cache and no per-cell clip: stereo parallax may shift a polyline past
// its cell into the wall background. Tests and bench_render compare
// render::CellRenderPipeline against it, and bench_render times it as the
// full-redraw baseline. It is test and bench support, not part of the
// library: link svq_reference_render to use it.
#pragma once

#include "render/scene.h"

namespace svq::render {

/// Renders the scene for one eye through the given canvas. Only cells
/// whose parallax-inflated rect intersects canvas.region are drawn
/// (sort-first culling); the canvas region is cleared first with
/// scene.wallBackground.
RenderStats renderScene(const SceneModel& scene,
                        const traj::TrajectoryDataset& dataset,
                        Canvas canvas, Eye eye);

}  // namespace svq::render
