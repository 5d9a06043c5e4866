#include "wall/compositor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "render/color.h"

namespace svq::wall {

using render::Color;
using render::Framebuffer;

Framebuffer composeActivePixels(const WallSpec& spec,
                                const std::vector<Framebuffer>& tiles) {
  if (tiles.size() != static_cast<std::size_t>(spec.tileCount())) {
    throw std::invalid_argument(
        "composeActivePixels: " + std::to_string(tiles.size()) +
        " tiles for a wall of " + std::to_string(spec.tileCount()));
  }
  // Tiles of exactly the tile size partition the wall, so their blits
  // write every pixel and a fill would only be overwritten. An empty or
  // short tile (degraded compositing) leaves black where it does not land.
  const TileSpec& t = spec.tile();
  const bool covered =
      std::all_of(tiles.begin(), tiles.end(), [&t](const Framebuffer& tile) {
        return tile.width() == t.pxW && tile.height() == t.pxH;
      });
  Framebuffer out =
      covered ? Framebuffer(spec.totalPxW(), spec.totalPxH(),
                            Framebuffer::ForOverwrite{})
              : Framebuffer(spec.totalPxW(), spec.totalPxH());
  for (int i = 0; i < spec.tileCount(); ++i) {
    const RectI r = spec.tileRectPx(spec.tileFromIndex(i));
    out.blit(tiles[static_cast<std::size_t>(i)], r.x, r.y);
  }
  return out;
}

Framebuffer composePhysicalMockup(const WallSpec& spec,
                                  const std::vector<Framebuffer>& tiles,
                                  float pxPerMm) {
  if (tiles.size() != static_cast<std::size_t>(spec.tileCount())) {
    throw std::invalid_argument(
        "composePhysicalMockup: " + std::to_string(tiles.size()) +
        " tiles for a wall of " + std::to_string(spec.tileCount()));
  }
  const int outW =
      static_cast<int>(std::ceil(spec.physicalWmm() * pxPerMm));
  const int outH =
      static_cast<int>(std::ceil(spec.physicalHmm() * pxPerMm));
  Framebuffer out(outW, outH, render::colors::kBezel);

  const TileSpec& t = spec.tile();
  for (int idx = 0; idx < spec.tileCount(); ++idx) {
    const TileCoord tc = spec.tileFromIndex(idx);
    const Framebuffer& src = tiles[static_cast<std::size_t>(idx)];
    // An empty tile (a dead rank's slot) has nothing to sample: its
    // footprint stays bezel.
    if (src.width() <= 0 || src.height() <= 0) continue;
    // Physical origin of this tile's active area.
    const float ax =
        (static_cast<float>(tc.col) * t.footprintWmm() + t.bezelMm) * pxPerMm;
    const float ay =
        (static_cast<float>(tc.row) * t.footprintHmm() + t.bezelMm) * pxPerMm;
    const int aw = std::max(1, static_cast<int>(t.activeWmm * pxPerMm));
    const int ah = std::max(1, static_cast<int>(t.activeHmm * pxPerMm));
    // Nearest-neighbour downsample of the tile into its physical footprint.
    for (int y = 0; y < ah; ++y) {
      const int sy = std::min(src.height() - 1,
                              y * src.height() / std::max(1, ah));
      for (int x = 0; x < aw; ++x) {
        const int sx = std::min(src.width() - 1,
                                x * src.width() / std::max(1, aw));
        out.set(static_cast<int>(ax) + x, static_cast<int>(ay) + y,
                src.at(sx, sy));
      }
    }
  }
  return out;
}

std::vector<Framebuffer> splitIntoTiles(const WallSpec& spec,
                                        const Framebuffer& wallImage) {
  if (wallImage.width() != spec.totalPxW() ||
      wallImage.height() != spec.totalPxH()) {
    throw std::invalid_argument(
        "splitIntoTiles: " + std::to_string(wallImage.width()) + "x" +
        std::to_string(wallImage.height()) + " image for a wall of " +
        std::to_string(spec.totalPxW()) + "x" +
        std::to_string(spec.totalPxH()));
  }
  std::vector<Framebuffer> tiles;
  tiles.reserve(static_cast<std::size_t>(spec.tileCount()));
  for (int i = 0; i < spec.tileCount(); ++i) {
    const RectI r = spec.tileRectPx(spec.tileFromIndex(i));
    Framebuffer tile(r.w, r.h);
    for (int y = 0; y < r.h; ++y) {
      for (int x = 0; x < r.w; ++x) {
        tile.at(x, y) = wallImage.at(r.x + x, r.y + y);
      }
    }
    tiles.push_back(std::move(tile));
  }
  return tiles;
}

}  // namespace svq::wall
