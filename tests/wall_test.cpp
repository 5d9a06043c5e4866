// Tests for the tiled display wall model and compositor.
#include "wall/compositor.h"
#include "wall/wall.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace svq::wall {
namespace {

using render::Color;
using render::Framebuffer;

TEST(TileSpecTest, PitchAndFootprint) {
  TileSpec t;
  t.pxW = 100;
  t.pxH = 50;
  t.activeWmm = 200.0f;
  t.activeHmm = 100.0f;
  t.bezelMm = 5.0f;
  EXPECT_FLOAT_EQ(t.pitchMmX(), 2.0f);
  EXPECT_FLOAT_EQ(t.pitchMmY(), 2.0f);
  EXPECT_FLOAT_EQ(t.footprintWmm(), 210.0f);
  EXPECT_FLOAT_EQ(t.footprintHmm(), 110.0f);
}

TEST(WallSpecTest, PaperWallHeadlineNumbers) {
  const WallSpec wall = cyberCommonsWall();
  EXPECT_EQ(wall.cols(), 6);
  EXPECT_EQ(wall.rows(), 3);
  EXPECT_EQ(wall.tileCount(), 18);
  // ~19 Mpx total (paper: "19 Megapixels").
  EXPECT_NEAR(static_cast<double>(wall.totalPixels()) / 1e6, 19.0, 1.0);
  // ~7 m wide (paper: 7 x 3 meters).
  EXPECT_NEAR(wall.physicalWmm() / 1000.0f, 7.0f, 0.3f);
}

TEST(WallSpecTest, UsedRegionMatchesPaper) {
  const WallSpec used = cyberCommonsUsedRegion();
  // Paper: "8,192 x 1,536 (approximately 12.5 million pixels)".
  EXPECT_NEAR(used.totalPxW(), 8192, 8);
  EXPECT_EQ(used.totalPxH(), 1536);
  EXPECT_NEAR(static_cast<double>(used.totalPixels()) / 1e6, 12.5, 0.2);
}

TEST(WallSpecTest, BezelGapUnderOneCentimetre) {
  const WallSpec wall = cyberCommonsWall();
  // "bezels ... were thin (less than 1cm in thickness)": the mullion
  // between adjacent active areas is 2 * bezelMm.
  EXPECT_LT(2.0f * wall.tile().bezelMm, 10.0f);
}

TEST(WallSpecTest, TileRectsPartitionTheWall) {
  const WallSpec wall(TileSpec{}, 3, 2);
  long long area = 0;
  for (int i = 0; i < wall.tileCount(); ++i) {
    const RectI r = wall.tileRectPx(wall.tileFromIndex(i));
    area += r.areaPx();
    for (int j = 0; j < i; ++j) {
      EXPECT_FALSE(r.intersects(wall.tileRectPx(wall.tileFromIndex(j))));
    }
  }
  EXPECT_EQ(area, wall.totalPixels());
}

TEST(WallSpecTest, TileOfPixelRoundTrip) {
  const WallSpec wall(TileSpec{}, 4, 2);
  for (int i = 0; i < wall.tileCount(); ++i) {
    const TileCoord tc = wall.tileFromIndex(i);
    EXPECT_EQ(wall.tileIndex(tc), i);
    const RectI r = wall.tileRectPx(tc);
    EXPECT_EQ(wall.tileOfPixel(r.x, r.y).value(), tc);
    EXPECT_EQ(wall.tileOfPixel(r.x + r.w - 1, r.y + r.h - 1).value(), tc);
  }
}

TEST(WallSpecTest, TileOfPixelOutsideWall) {
  const WallSpec wall(TileSpec{}, 2, 2);
  EXPECT_FALSE(wall.tileOfPixel(-1, 0).has_value());
  EXPECT_FALSE(wall.tileOfPixel(0, -1).has_value());
  EXPECT_FALSE(wall.tileOfPixel(wall.totalPxW(), 0).has_value());
  EXPECT_FALSE(wall.tileOfPixel(0, wall.totalPxH()).has_value());
}

TEST(WallSpecTest, PixelToMmAccountsForBezels) {
  const WallSpec wall(TileSpec{}, 2, 1);
  const TileSpec& t = wall.tile();
  // First pixel of tile 1 is one bezel pair away from last pixel of tile 0
  // physically, but adjacent in pixel space.
  const Vec2 lastOfTile0 = wall.pixelToMm(t.pxW - 1, 0);
  const Vec2 firstOfTile1 = wall.pixelToMm(t.pxW, 0);
  const float gap = firstOfTile1.x - lastOfTile0.x;
  EXPECT_GT(gap, 2.0f * t.bezelMm);  // bezels + one pixel pitch
  EXPECT_LT(gap, 2.0f * t.bezelMm + 2.0f * t.pitchMmX());
}

TEST(WallSpecTest, MmToPixelRoundTrip) {
  const WallSpec wall(TileSpec{}, 3, 2);
  for (int px : {0, 100, 1365, 1366, 2000, 4097}) {
    for (int py : {0, 300, 767, 768, 1535}) {
      const Vec2 mm = wall.pixelToMm(px, py);
      const auto back = wall.mmToPixel(mm);
      ASSERT_TRUE(back.has_value()) << px << "," << py;
      EXPECT_NEAR(back->x, static_cast<float>(px) + 0.5f, 0.51f);
      EXPECT_NEAR(back->y, static_cast<float>(py) + 0.5f, 0.51f);
    }
  }
}

TEST(WallSpecTest, MmOnBezelGivesNullopt) {
  const WallSpec wall(TileSpec{}, 2, 1);
  const TileSpec& t = wall.tile();
  // Point in the middle of the mullion between tiles 0 and 1.
  const float mullionX = t.footprintWmm();
  EXPECT_FALSE(wall.mmToPixel({mullionX - t.bezelMm * 0.5f,
                               t.footprintHmm() * 0.5f})
                   .has_value());
  // Outside the wall entirely.
  EXPECT_FALSE(wall.mmToPixel({-1.0f, 0.0f}).has_value());
  EXPECT_FALSE(
      wall.mmToPixel({wall.physicalWmm() + 1.0f, 10.0f}).has_value());
}

TEST(WallSpecTest, RectAvoidsBezels) {
  const WallSpec wall(TileSpec{}, 2, 2);
  const TileSpec& t = wall.tile();
  // Fully inside tile (0,0).
  EXPECT_TRUE(wall.rectAvoidsBezels({10, 10, 100, 100}));
  // Straddles the vertical seam at x = pxW.
  EXPECT_FALSE(wall.rectAvoidsBezels({t.pxW - 50, 10, 100, 100}));
  // Straddles the horizontal seam at y = pxH.
  EXPECT_FALSE(wall.rectAvoidsBezels({10, t.pxH - 50, 100, 100}));
  // Exactly filling one tile is fine.
  EXPECT_TRUE(wall.rectAvoidsBezels({t.pxW, t.pxH, t.pxW, t.pxH}));
  // Empty or out-of-wall rects are rejected.
  EXPECT_FALSE(wall.rectAvoidsBezels({0, 0, 0, 10}));
  EXPECT_FALSE(wall.rectAvoidsBezels({-5, 0, 10, 10}));
}

TEST(WallSpecTest, SeamPositions) {
  const WallSpec wall(TileSpec{}, 3, 2);
  const auto v = wall.verticalSeamsPx();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], wall.tile().pxW);
  EXPECT_EQ(v[1], 2 * wall.tile().pxW);
  const auto h = wall.horizontalSeamsPx();
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0], wall.tile().pxH);
}

TEST(WallSpecTest, SubWallRows) {
  const WallSpec wall = cyberCommonsWall();
  const WallSpec sub = wall.subWallRows(0, 2);
  EXPECT_EQ(sub.rows(), 2);
  EXPECT_EQ(sub.cols(), wall.cols());
}

TEST(CompositorTest, ActivePixelsRoundTrip) {
  const WallSpec wall(TileSpec{8, 4, 16.0f, 8.0f, 1.0f}, 2, 2);
  // Distinct tile colors.
  std::vector<Framebuffer> tiles;
  for (int i = 0; i < 4; ++i) {
    tiles.emplace_back(8, 4,
                       Color{static_cast<std::uint8_t>(40 * i + 10), 0, 0,
                             255});
  }
  const Framebuffer composed = composeActivePixels(wall, tiles);
  EXPECT_EQ(composed.width(), 16);
  EXPECT_EQ(composed.height(), 8);
  EXPECT_EQ(composed.at(0, 0).r, 10);
  EXPECT_EQ(composed.at(8, 0).r, 50);
  EXPECT_EQ(composed.at(0, 4).r, 90);
  EXPECT_EQ(composed.at(8, 4).r, 130);

  const auto split = splitIntoTiles(wall, composed);
  ASSERT_EQ(split.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(split[static_cast<std::size_t>(i)].contentHash(),
              tiles[static_cast<std::size_t>(i)].contentHash());
  }
}

/// Tile `index`, patterned so that every pixel of the wall image names
/// its tile and position.
Framebuffer patternedTile(int index, int w, int h) {
  Framebuffer tile(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      tile.at(x, y) = Color{static_cast<std::uint8_t>(x + index),
                            static_cast<std::uint8_t>(y),
                            static_cast<std::uint8_t>(20 * index), 255};
    }
  }
  return tile;
}

/// One full-size patterned tile per tile of `wall`.
std::vector<Framebuffer> patternedTiles(const WallSpec& wall) {
  std::vector<Framebuffer> tiles;
  for (int i = 0; i < wall.tileCount(); ++i) {
    tiles.push_back(patternedTile(i, wall.tile().pxW, wall.tile().pxH));
  }
  return tiles;
}

/// Parks the storage of a wall-sized magenta image, so the next compose
/// of `wall` is handed stale, non-black pixels. Returns that storage.
const Color* parkStaleWallStorage(const WallSpec& wall) {
  const Framebuffer stale(wall.totalPxW(), wall.totalPxH(),
                          Color{255, 0, 255, 255});
  return stale.pixels().data();
}

/// Wall pixels that differ from tile `i`'s pixel at the same place, or
/// from black where tile `i` does not reach.
std::size_t pixelsNotFromTiles(const WallSpec& wall,
                               const std::vector<Framebuffer>& tiles,
                               const Framebuffer& composed) {
  std::size_t wrong = 0;
  for (int i = 0; i < wall.tileCount(); ++i) {
    const RectI r = wall.tileRectPx(wall.tileFromIndex(i));
    const Framebuffer& tile = tiles[static_cast<std::size_t>(i)];
    for (int y = 0; y < r.h; ++y) {
      for (int x = 0; x < r.w; ++x) {
        const Color want = x < tile.width() && y < tile.height()
                               ? tile.at(x, y)
                               : render::colors::kBlack;
        wrong += composed.at(r.x + x, r.y + y) == want ? 0 : 1;
      }
    }
  }
  return wrong;
}

TEST(CompositorTest, FullTilesOverwriteStaleRecycledStorage) {
  const WallSpec wall = cyberCommonsUsedRegion();
  const std::vector<Framebuffer> tiles = patternedTiles(wall);
  const Color* parked = parkStaleWallStorage(wall);
  const Framebuffer composed = composeActivePixels(wall, tiles);
  EXPECT_EQ(composed.pixels().data(), parked) << "storage was not reused";
  ASSERT_EQ(composed.width(), wall.totalPxW());
  ASSERT_EQ(composed.height(), wall.totalPxH());
  EXPECT_EQ(pixelsNotFromTiles(wall, tiles, composed), 0u);
}

TEST(CompositorTest, UncoveredPixelsAreBlackOverStaleRecycledStorage) {
  const WallSpec wall = cyberCommonsUsedRegion();
  std::vector<Framebuffer> tiles = patternedTiles(wall);
  tiles[3] = Framebuffer();                          // a dead rank's slot
  tiles[7] = patternedTile(7, wall.tile().pxW, 700);  // a short tile
  const Color* parked = parkStaleWallStorage(wall);
  const Framebuffer composed = composeActivePixels(wall, tiles);
  EXPECT_EQ(composed.pixels().data(), parked) << "storage was not reused";
  EXPECT_EQ(pixelsNotFromTiles(wall, tiles, composed), 0u);
}

TEST(CompositorTest, WrongTileCountThrows) {
  const WallSpec wall(TileSpec{8, 4, 16.0f, 8.0f, 1.0f}, 2, 2);
  for (std::size_t count : {0u, 3u, 5u}) {
    const std::vector<Framebuffer> tiles(count, Framebuffer(8, 4));
    EXPECT_THROW(composeActivePixels(wall, tiles), std::invalid_argument)
        << count << " tiles";
  }
}

TEST(CompositorTest, PhysicalMockupHasBezels) {
  const WallSpec wall(TileSpec{8, 4, 16.0f, 8.0f, 2.0f}, 2, 1);
  std::vector<Framebuffer> tiles(2, Framebuffer(8, 4, render::colors::kWhite));
  const Framebuffer mock = composePhysicalMockup(wall, tiles, 1.0f);
  // Physical: 2 tiles * (16 + 4) mm = 40 mm wide, 12 mm tall.
  EXPECT_EQ(mock.width(), 40);
  EXPECT_EQ(mock.height(), 12);
  // Corner pixel is bezel-colored.
  EXPECT_EQ(mock.at(0, 0), render::colors::kBezel);
  // Centre of first tile's active area is white.
  EXPECT_EQ(mock.at(10, 6), render::colors::kWhite);
  // Mullion between the tiles is bezel.
  EXPECT_EQ(mock.at(19, 6), render::colors::kBezel);
}

TEST(CompositorTest, PhysicalMockupWrongTileCountThrows) {
  const WallSpec wall(TileSpec{8, 4, 16.0f, 8.0f, 2.0f}, 2, 1);
  for (std::size_t count : {0u, 1u, 3u}) {
    const std::vector<Framebuffer> tiles(count, Framebuffer(8, 4));
    EXPECT_THROW(composePhysicalMockup(wall, tiles, 1.0f),
                 std::invalid_argument)
        << count << " tiles";
  }
}

TEST(CompositorTest, PhysicalMockupLeavesAnEmptyTileBezel) {
  // A dead rank's slot arrives empty: its footprint keeps the bezel
  // colour, and the live tile's pixels land as usual.
  const WallSpec wall(TileSpec{8, 4, 16.0f, 8.0f, 2.0f}, 2, 1);
  std::vector<Framebuffer> tiles;
  tiles.emplace_back(8, 4, render::colors::kRed);
  tiles.emplace_back();
  const Framebuffer mock = composePhysicalMockup(wall, tiles, 1.0f);
  ASSERT_EQ(mock.width(), 40);
  ASSERT_EQ(mock.height(), 12);
  for (int y = 0; y < mock.height(); ++y) {
    for (int x = 0; x < mock.width(); ++x) {
      const bool liveActive = x >= 2 && x < 18 && y >= 2 && y < 10;
      EXPECT_EQ(mock.at(x, y), liveActive ? render::colors::kRed
                                          : render::colors::kBezel)
          << "(" << x << ", " << y << ")";
    }
  }
}

TEST(CompositorTest, SplitIntoTilesRejectsAWrongImageSize) {
  const WallSpec wall(TileSpec{8, 4, 16.0f, 8.0f, 1.0f}, 2, 2);
  EXPECT_THROW(splitIntoTiles(wall, Framebuffer(15, 8)),
               std::invalid_argument);
  EXPECT_THROW(splitIntoTiles(wall, Framebuffer(16, 9)),
               std::invalid_argument);
  EXPECT_THROW(splitIntoTiles(wall, Framebuffer()), std::invalid_argument);
  EXPECT_EQ(splitIntoTiles(wall, Framebuffer(16, 8)).size(), 4u);
}

}  // namespace
}  // namespace svq::wall
