#include "reference_render.h"

#include <cmath>

namespace svq::render {

namespace {

/// Stereo shifts can move a polyline horizontally beyond its cell; inflate
/// the cull rect by the worst-case parallax so sort-first never drops a
/// cell whose shifted pixels land in this tile.
RectI inflatedForParallax(const RectI& r, const OrthoStereoCamera& camera,
                         float maxDuration) {
  const int pad = static_cast<int>(
      std::ceil(camera.maxAbsParallaxPx(maxDuration) * 0.5f)) + 2;
  return {r.x - pad, r.y, r.w + 2 * pad, r.h};
}

}  // namespace

RenderStats renderScene(const SceneModel& scene,
                        const traj::TrajectoryDataset& dataset,
                        Canvas canvas, Eye eye) {
  RenderStats stats;
  fillRect(canvas, canvas.region, scene.wallBackground);

  const OrthoStereoCamera camera(scene.stereo);
  const float maxDuration = dataset.maxDuration();
  for (const CellView& cell : scene.cells) {
    if (!inflatedForParallax(cell.rect, camera, maxDuration)
             .intersects(canvas.region)) {
      ++stats.cellsCulled;
      continue;
    }
    renderCell(scene, cell, dataset, canvas, eye, stats);
  }
  return stats;
}

}  // namespace svq::render
