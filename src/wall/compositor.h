// compositor.h — assembling per-tile framebuffers into wall images.
//
// In the real system each cluster node drives its own panel; offline we
// gather the tile framebuffers and stitch them, either into the contiguous
// active-pixel image (what the application logically rendered) or into a
// physical mock-up that draws the bezel mullions at scale, which is what a
// photograph of the wall (paper Fig. 3) shows.
#pragma once

#include <vector>

#include "render/framebuffer.h"
#include "wall/wall.h"

namespace svq::wall {

/// Stitches per-tile framebuffers (row-major tile order, each sized
/// tile.pxW x tile.pxH) into the contiguous global-pixel image. Pixels
/// that no tile covers (an empty or short tile) are black. Throws
/// std::invalid_argument unless `tiles` has spec.tileCount() entries.
render::Framebuffer composeActivePixels(
    const WallSpec& spec, const std::vector<render::Framebuffer>& tiles);

/// Renders a physical mock-up at `pxPerMm` scale: active areas are the
/// (downsampled) tile images, bezels are drawn as dark bars. Useful for
/// producing Fig. 3-style overview images at manageable sizes. An empty
/// tile (a dead rank's slot) leaves its footprint bezel. Throws
/// std::invalid_argument unless `tiles` has spec.tileCount() entries.
render::Framebuffer composePhysicalMockup(
    const WallSpec& spec, const std::vector<render::Framebuffer>& tiles,
    float pxPerMm = 0.25f);

/// Splits a full wall image into per-tile framebuffers (inverse of
/// composeActivePixels); used by tests and by the gather-verify path.
/// Throws std::invalid_argument unless the image is exactly
/// spec.totalPxW() x spec.totalPxH().
std::vector<render::Framebuffer> splitIntoTiles(
    const WallSpec& spec, const render::Framebuffer& wallImage);

}  // namespace svq::wall
