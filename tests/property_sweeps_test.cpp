// Cross-cutting property sweeps:
//  * the paper's verdicts are robust across synthesis seeds (and vanish
//    on null data for every seed);
//  * bezel avoidance holds for randomized layout grids on randomized wall
//    geometries, and no two cells of any such layout overlap;
//  * the scenes the app builds — session layouts at every paper preset and
//    cluster-overview grids — have pairwise-disjoint cells, the condition
//    under which CellRenderPipeline draws a scene instead of refusing it;
//  * a keymap-driven session reaches the same state as the equivalent
//    event script;
//  * query results are invariant to evaluation order and parallelism.
#include <gtest/gtest.h>

#include "core/clusterscene.h"
#include "core/hypothesis.h"
#include "core/layout.h"
#include "core/session.h"
#include "traj/synth.h"
#include "ui/keymap.h"
#include "util/rng.h"

namespace svq {
namespace {

class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, HomingVerdictRobustAcrossSeeds) {
  traj::AntSimulator sim({}, GetParam());
  traj::DatasetSpec spec;
  spec.count = 300;
  const auto ds = sim.generate(spec);
  const core::Hypothesis h = core::makeHomingHypothesis(
      traj::CaptureSide::kEast, traj::ArenaSide::kWest,
      ds.arena().radiusCm);
  const auto r = core::evaluateHypothesis(h, ds);
  EXPECT_TRUE(r.supported) << "seed " << GetParam()
                           << " support=" << r.supportFraction;
}

TEST_P(SeedSweepTest, NullModelNeverShowsStrongHoming) {
  traj::AntSimulator sim(traj::AntBehaviorParams{}.nullModel(), GetParam());
  traj::DatasetSpec spec;
  spec.count = 300;
  const auto ds = sim.generate(spec);
  const core::Hypothesis h = core::makeHomingHypothesis(
      traj::CaptureSide::kEast, traj::ArenaSide::kWest,
      ds.arena().radiusCm);
  const auto r = core::evaluateHypothesis(h, ds);
  // A half-plane brush has ~50% chance level; "strong" homing (>75%)
  // must not appear by chance.
  EXPECT_LT(r.supportFraction, 0.75f) << "seed " << GetParam();
}

TEST_P(SeedSweepTest, SeedSearchContrastAcrossSeeds) {
  traj::AntSimulator sim({}, GetParam());
  traj::DatasetSpec spec;
  spec.count = 300;
  const auto ds = sim.generate(spec);
  const auto r = core::evaluateHypothesis(
      core::makeSeedSearchHypothesis(ds.arena().radiusCm), ds);
  EXPECT_GT(r.supportFraction, r.complementSupportFraction)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull,
                                           0xDEADBEEFull));

TEST(LayoutFuzzTest, BezelInvariantOnRandomGridsAndWalls) {
  Rng rng(0xBEE5);
  for (int iter = 0; iter < 150; ++iter) {
    wall::TileSpec tile;
    tile.pxW = rng.rangeInt(100, 1400);
    tile.pxH = rng.rangeInt(100, 800);
    tile.activeWmm = rng.uniform(200.0f, 1200.0f);
    tile.activeHmm = rng.uniform(150.0f, 700.0f);
    tile.bezelMm = rng.uniform(1.0f, 20.0f);
    const wall::WallSpec wallSpec(tile, rng.rangeInt(1, 8),
                                  rng.rangeInt(1, 4));
    core::LayoutConfig config;
    config.cellsX = rng.rangeInt(1, 40);
    config.cellsY = rng.rangeInt(1, 16);
    config.cellGapPx = rng.rangeInt(0, 8);
    config.tileMarginPx = rng.rangeInt(0, 12);
    const auto layout =
        core::SmallMultipleLayout::compute(wallSpec, config);
    ASSERT_EQ(layout.cellCount(),
              static_cast<std::size_t>(config.cellCount()));
    EXPECT_TRUE(layout.noOverlaps()) << "iter " << iter;
    // Cells can be degenerate when the requested grid is denser than the
    // pixels allow; bezel avoidance applies whenever cells are drawable.
    if (layout.minCellSize() >= 1) {
      EXPECT_TRUE(layout.allCellsAvoidBezels(wallSpec))
          << "iter " << iter << " wall " << wallSpec.cols() << "x"
          << wallSpec.rows() << " grid " << config.cellsX << "x"
          << config.cellsY;
    }
  }
}

/// True iff no two cells of the scene share a pixel.
bool cellsDisjoint(const render::SceneModel& scene) {
  for (std::size_t i = 0; i < scene.cells.size(); ++i) {
    for (std::size_t j = i + 1; j < scene.cells.size(); ++j) {
      if (scene.cells[i].rect.intersects(scene.cells[j].rect)) return false;
    }
  }
  return true;
}

TEST(SceneDisjointTest, SessionScenesAtEveryPaperPreset) {
  traj::AntSimulator sim({}, 31);
  traj::DatasetSpec spec;
  spec.count = 500;  // fills every cell of the densest preset
  const auto ds = sim.generate(spec);
  core::Session app(
      core::SharedContext::create(ds, wall::cyberCommonsUsedRegion()));
  const auto presets = core::paperLayoutPresets();
  for (std::size_t p = 0; p < presets.size(); ++p) {
    app.apply(ui::LayoutSwitchEvent{static_cast<std::uint8_t>(p)});
    const render::SceneModel scene = app.buildScene();
    EXPECT_EQ(scene.cells.size(),
              static_cast<std::size_t>(presets[p].cellCount()));
    EXPECT_TRUE(cellsDisjoint(scene)) << "preset " << p;
  }
}

TEST(SceneDisjointTest, ClusterGridsOfOneToSixHundredCells) {
  wall::TileSpec small;
  small.pxW = 320;
  small.pxH = 180;
  small.activeWmm = 1150.0f;
  small.activeHmm = 647.0f;
  for (const wall::WallSpec& wallSpec :
       {wall::cyberCommonsUsedRegion(), wall::WallSpec(small, 6, 2)}) {
    for (std::size_t n = 1; n <= 600; ++n) {
      const core::LayoutConfig config = core::clusterGridFor(n, wallSpec);
      ASSERT_GE(static_cast<std::size_t>(config.cellCount()), n);
      EXPECT_TRUE(
          core::SmallMultipleLayout::compute(wallSpec, config).noOverlaps())
          << n << " cells on " << wallSpec.totalPxW() << "x"
          << wallSpec.totalPxH();
    }
  }
}

TEST(KeymapSessionTest, KeyDrivenEqualsEventDriven) {
  traj::AntSimulator sim({}, 77);
  traj::DatasetSpec spec;
  spec.count = 100;
  const auto ds = sim.generate(spec);
  const wall::WallSpec w(wall::TileSpec{160, 96, 320.0f, 192.0f, 2.0f}, 6, 2);

  // Key-driven app: '3' (layout), 'g' (green brush), 'c' clear, ']' depth.
  core::Session keyed(core::SharedContext::create(ds, w));
  ui::KeymapState keys;
  for (char k : std::string("3g]]")) {
    if (auto e = ui::mapKey(k, keys)) keyed.apply(*e);
  }
  // Equivalent explicit events.
  core::Session evented(core::SharedContext::create(ds, w));
  evented.apply(ui::LayoutSwitchEvent{2});
  evented.apply(ui::DepthOffsetEvent{4.0f});

  EXPECT_EQ(keyed.layout().cellCount(), evented.layout().cellCount());
  EXPECT_FLOAT_EQ(keyed.stereoSettings().depthOffsetCm,
                  evented.stereoSettings().depthOffsetCm);

  // Brush via keys: paint with the active (green) brush index 1.
  keyed.apply(ui::BrushStrokeEvent{keys.activeBrush, {0.0f, 0.0f}, 5.0f});
  EXPECT_EQ(keyed.brush().grid().brushAt({0.0f, 0.0f}), 1);
  // 'c' clears the active brush.
  if (auto e = ui::mapKey('c', keys)) keyed.apply(*e);
  EXPECT_EQ(keyed.brush().grid().brushAt({0.0f, 0.0f}), core::kNoBrush);
}

TEST(QueryOrderInvarianceTest, ShuffledIndicesSameTotals) {
  traj::AntSimulator sim({}, 4242);
  traj::DatasetSpec spec;
  spec.count = 120;
  const auto ds = sim.generate(spec);
  core::BrushCanvas canvas(ds.arena().radiusCm, 128);
  core::paintArenaCenter(canvas, 0, 20.0f);

  std::vector<std::uint32_t> indices(ds.size());
  for (std::uint32_t i = 0; i < ds.size(); ++i) indices[i] = i;
  const auto reference =
      core::evaluate(core::makeRefs(ds, indices), canvas.grid(), core::QueryParams{});

  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    for (std::size_t i = indices.size(); i > 1; --i) {
      std::swap(indices[i - 1], indices[rng.below(i)]);
    }
    const auto shuffled =
        core::evaluate(core::makeRefs(ds, indices), canvas.grid(), core::QueryParams{});
    EXPECT_EQ(shuffled.totalSegmentsHighlighted,
              reference.totalSegmentsHighlighted);
    EXPECT_EQ(shuffled.trajectoriesHighlighted,
              reference.trajectoriesHighlighted);
  }
}

class WindowSweepTest : public ::testing::TestWithParam<float> {};

TEST_P(WindowSweepTest, WindowedHighlightsSubsetOfFull) {
  traj::AntSimulator sim({}, 31);
  traj::DatasetSpec spec;
  spec.count = 80;
  const auto ds = sim.generate(spec);
  core::BrushCanvas canvas(ds.arena().radiusCm, 128);
  core::paintArenaHalf(canvas, 0, traj::ArenaSide::kWest,
                       ds.arena().radiusCm);
  std::vector<std::uint32_t> indices(ds.size());
  for (std::uint32_t i = 0; i < ds.size(); ++i) indices[i] = i;

  core::QueryParams full;
  core::QueryParams windowed;
  windowed.timeWindow = {0.0f, GetParam()};
  const auto rFull =
      core::evaluate(core::makeRefs(ds, indices), canvas.grid(), full);
  const auto rWin =
      core::evaluate(core::makeRefs(ds, indices), canvas.grid(), windowed);
  EXPECT_LE(rWin.totalSegmentsHighlighted, rFull.totalSegmentsHighlighted);
  // Per-trajectory: every windowed highlight is also a full highlight.
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (std::size_t s = 0; s < rWin.segmentHighlights[i].size(); ++s) {
      if (rWin.segmentHighlights[i][s] != core::kNoBrush) {
        EXPECT_EQ(rFull.segmentHighlights[i][s],
                  rWin.segmentHighlights[i][s]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweepTest,
                         ::testing::Values(5.0f, 20.0f, 60.0f, 179.0f));

}  // namespace
}  // namespace svq
