// Tests for the Session façade (SharedContext + per-tenant Session): event processing, layout switching,
// scene building, coverage, and scripted replay.
#include "core/session.h"

#include <gtest/gtest.h>

#include "traj/synth.h"

namespace svq::core {
namespace {

traj::TrajectoryDataset makeDataset(std::size_t n = 500) {
  traj::AntSimulator sim({}, 1234);
  traj::DatasetSpec spec;
  spec.count = n;
  return sim.generate(spec);
}

class SessionTest : public ::testing::Test {
 protected:
  SessionTest()
      : dataset_(makeDataset()),
        app_(SharedContext::create(dataset_, wall::cyberCommonsUsedRegion())) {
  }

  traj::TrajectoryDataset dataset_;
  Session app_;
};

TEST_F(SessionTest, InitialStateUsesDefaultPreset) {
  EXPECT_EQ(app_.activePreset(), 1u);  // 24x6
  EXPECT_EQ(app_.layout().config().cellsX, 24);
  EXPECT_EQ(app_.layout().cellCount(), 144u);
}

TEST_F(SessionTest, LayoutSwitchChangesGrid) {
  EXPECT_TRUE(app_.apply(ui::LayoutSwitchEvent{2}));
  EXPECT_EQ(app_.layout().config().cellsX, 36);
  EXPECT_EQ(app_.layout().cellCount(), 432u);
  EXPECT_FALSE(app_.apply(ui::LayoutSwitchEvent{9}));  // no such preset
}

TEST_F(SessionTest, PaperCoverageHeadline) {
  // 36x12 layout over ~500 trajectories: the paper reports 432 visible,
  // i.e. ~85% coverage.
  app_.apply(ui::LayoutSwitchEvent{2});
  app_.buildScene();
  EXPECT_NEAR(app_.datasetCoverage(), 432.0f / 500.0f, 0.02f);
}

TEST_F(SessionTest, BrushEventPaintsCanvas) {
  EXPECT_TRUE(app_.apply(ui::BrushStrokeEvent{0, {0.0f, 0.0f}, 8.0f}));
  EXPECT_FALSE(app_.brush().empty());
  EXPECT_EQ(app_.brush().grid().brushAt({0, 0}), 0);
}

TEST_F(SessionTest, BrushClearEvents) {
  app_.apply(ui::BrushStrokeEvent{0, {0.0f, 0.0f}, 8.0f});
  app_.apply(ui::BrushStrokeEvent{1, {20.0f, 0.0f}, 8.0f});
  app_.apply(ui::BrushClearEvent{0});
  EXPECT_EQ(app_.brush().grid().brushAt({0, 0}), kNoBrush);
  EXPECT_EQ(app_.brush().grid().brushAt({20, 0}), 1);
  app_.apply(ui::BrushClearEvent{255});
  EXPECT_TRUE(app_.brush().empty());
}

TEST_F(SessionTest, TimeWindowEvent) {
  app_.apply(ui::TimeWindowEvent{10.0f, 60.0f});
  EXPECT_FLOAT_EQ(app_.timeWindow().lo(), 10.0f);
  EXPECT_FLOAT_EQ(app_.timeWindow().hi(), 60.0f);
}

TEST_F(SessionTest, StereoSliderEvents) {
  app_.apply(ui::DepthOffsetEvent{-10.0f});
  app_.apply(ui::TimeScaleEvent{0.5f});
  const render::StereoSettings s = app_.stereoSettings();
  EXPECT_FLOAT_EQ(s.depthOffsetCm, -10.0f);
  EXPECT_FLOAT_EQ(s.timeScaleCmPerS, 0.5f);
}

TEST_F(SessionTest, GroupDefineAndClear) {
  ui::GroupDefineEvent g;
  g.groupId = 1;
  g.cellRect = {0, 0, 5, 6};
  g.filter.side = traj::CaptureSide::kEast;
  g.colorIndex = 2;
  EXPECT_TRUE(app_.apply(g));
  EXPECT_EQ(app_.groups().groups().size(), 1u);
  EXPECT_TRUE(app_.apply(ui::GroupClearEvent{1}));
  EXPECT_TRUE(app_.groups().groups().empty());
  EXPECT_FALSE(app_.apply(ui::GroupClearEvent{1}));
}

TEST_F(SessionTest, InvalidGroupRejected) {
  ui::GroupDefineEvent g;
  g.groupId = 1;
  g.cellRect = {20, 0, 10, 6};  // x+w=30 > 24 columns
  EXPECT_FALSE(app_.apply(g));
}

TEST_F(SessionTest, SceneHasCellsWithValidRects) {
  const render::SceneModel scene = app_.buildScene();
  EXPECT_GT(scene.cells.size(), 100u);
  const wall::WallSpec w = wall::cyberCommonsUsedRegion();
  for (const render::CellView& cell : scene.cells) {
    EXPECT_TRUE(w.rectAvoidsBezels(cell.rect));
    EXPECT_LT(cell.trajectoryIndex, dataset_.size());
  }
}

TEST_F(SessionTest, SceneReflectsTimeWindow) {
  app_.apply(ui::TimeWindowEvent{5.0f, 25.0f});
  const render::SceneModel scene = app_.buildScene();
  EXPECT_FLOAT_EQ(scene.timeWindow.x, 5.0f);
  EXPECT_FLOAT_EQ(scene.timeWindow.y, 25.0f);
}

TEST_F(SessionTest, EmptyBrushMeansNoHighlights) {
  const render::SceneModel scene = app_.buildScene();
  for (const render::CellView& cell : scene.cells) {
    EXPECT_TRUE(cell.segmentHighlights.empty());
  }
  EXPECT_EQ(app_.lastQueryResult().trajectoriesEvaluated, 0u);
}

TEST_F(SessionTest, BrushProducesHighlightsInScene) {
  // Paint the whole west half: many trajectories must light up.
  app_.apply(ui::BrushStrokeEvent{0, {-25.0f, 0.0f}, 25.0f});
  const render::SceneModel scene = app_.buildScene();
  std::size_t cellsWithHighlights = 0;
  for (const render::CellView& cell : scene.cells) {
    for (std::int8_t h : cell.segmentHighlights) {
      if (h != kNoBrush) {
        ++cellsWithHighlights;
        break;
      }
    }
  }
  EXPECT_GT(cellsWithHighlights, 10u);
  EXPECT_GT(app_.lastQueryResult().trajectoriesHighlighted, 10u);
}

TEST_F(SessionTest, HighlightArraysMatchTrajectorySegments) {
  app_.apply(ui::BrushStrokeEvent{0, {0.0f, 0.0f}, 15.0f});
  const render::SceneModel scene = app_.buildScene();
  for (const render::CellView& cell : scene.cells) {
    if (cell.segmentHighlights.empty()) continue;
    EXPECT_EQ(cell.segmentHighlights.size(),
              dataset_[cell.trajectoryIndex].size() - 1);
  }
}

TEST_F(SessionTest, FrameIndexIncrements) {
  EXPECT_EQ(app_.frameIndex(), 0u);
  app_.buildScene();
  app_.buildScene();
  EXPECT_EQ(app_.frameIndex(), 2u);
}

TEST_F(SessionTest, PageEventCyclesGroupContents) {
  ui::GroupDefineEvent g;
  g.groupId = 1;
  g.cellRect = {0, 0, 2, 2};  // tiny: forces paging
  g.filter.side = traj::CaptureSide::kEast;
  ASSERT_TRUE(app_.apply(g));
  const auto before = app_.assignment();
  ASSERT_TRUE(app_.apply(ui::PageEvent{+1}));
  const auto after = app_.assignment();
  EXPECT_NE(before.at(0, 0).trajectoryIndex, after.at(0, 0).trajectoryIndex);
}

TEST_F(SessionTest, GroupBackgroundAppearsInScene) {
  ui::GroupDefineEvent g;
  g.groupId = 1;
  g.cellRect = {0, 0, 24, 6};  // everything
  g.colorIndex = 3;
  ASSERT_TRUE(app_.apply(g));
  const render::SceneModel scene = app_.buildScene();
  ASSERT_FALSE(scene.cells.empty());
  for (const render::CellView& cell : scene.cells) {
    EXPECT_EQ(cell.background, render::groupBackground(3));
  }
}

TEST_F(SessionTest, ScriptReplayAppliesEverything) {
  ui::InputScript script;
  script.record(0.0, ui::LayoutSwitchEvent{2});
  script.record(1.0, ui::BrushStrokeEvent{0, {-20.0f, 0.0f}, 10.0f},
                "H: east ants go west");
  script.record(2.0, ui::TimeWindowEvent{0.0f, 30.0f});
  const std::size_t applied = app_.applyScript(script);
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(app_.layout().cellCount(), 432u);
  EXPECT_FALSE(app_.brush().empty());
  EXPECT_FLOAT_EQ(app_.timeWindow().hi(), 30.0f);
}

TEST_F(SessionTest, BuildSceneReportsDamagedCells) {
  // Damage is the diff of consecutive scenes' cell content keys, as the
  // render pipeline and the delta encoder compute it. The stroke makes
  // highlight rows exist everywhere, so the later dab below changes only
  // the rows it actually brushes.
  app_.apply(ui::BrushStrokeEvent{0, {-20.0f, 0.0f}, 15.0f});
  const std::vector<std::uint64_t> first =
      render::sceneCellHashes(app_.buildScene());

  // Rebuilding an unchanged session keeps every key.
  EXPECT_EQ(render::sceneCellHashes(app_.buildScene()), first);

  // A localized dab changes some keys, but not the whole wall's.
  app_.apply(ui::BrushStrokeEvent{1, {-12.0f, 4.0f}, 3.0f});
  const std::vector<std::uint64_t> dabbed =
      render::sceneCellHashes(app_.buildScene());
  ASSERT_EQ(dabbed.size(), first.size());
  std::size_t damaged = 0;
  for (std::size_t i = 0; i < dabbed.size(); ++i) {
    if (dabbed[i] != first[i]) ++damaged;
  }
  EXPECT_GT(damaged, 0u);
  EXPECT_LT(damaged, dabbed.size());

  // A layout switch changes the cell count.
  app_.apply(ui::LayoutSwitchEvent{2});
  EXPECT_NE(render::sceneCellHashes(app_.buildScene()).size(),
            dabbed.size());
}

TEST(SessionSmallWallTest, WorksOnSingleTileWall) {
  const auto ds = makeDataset(30);
  Session app(SharedContext::create(ds, wall::WallSpec(wall::TileSpec{}, 1, 1)));
  app.apply(ui::LayoutSwitchEvent{0});
  const render::SceneModel scene = app.buildScene();
  EXPECT_GT(scene.cells.size(), 0u);
}

}  // namespace
}  // namespace svq::core
