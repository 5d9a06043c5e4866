// Tests for session snapshots: full state round-trips and pixel-identical
// restored frames.
#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "cluster/clusterapp.h"
#include "traj/synth.h"
#include "util/rng.h"

namespace svq::core {
namespace {

traj::TrajectoryDataset makeDataset() {
  traj::AntSimulator sim({}, 606);
  traj::DatasetSpec spec;
  spec.count = 150;
  return sim.generate(spec);
}

wall::WallSpec smallWall() {
  return wall::WallSpec(wall::TileSpec{160, 96, 320.0f, 192.0f, 2.0f}, 6, 2);
}

void buildRichState(Session& app) {
  app.apply(ui::LayoutSwitchEvent{2});
  defineFigure3Groups(app.groups(), 36, 12);
  app.refreshAssignment();
  app.groups().page(2, +1, app.dataset());  // paged east bin
  app.apply(ui::BrushStrokeEvent{0, {-20.0f, 5.0f}, 12.0f});
  app.apply(ui::BrushStrokeEvent{1, {0.0f, 0.0f}, 8.0f});
  app.apply(ui::TimeWindowEvent{5.0f, 90.0f});
  app.apply(ui::DepthOffsetEvent{-8.0f});
  app.apply(ui::TimeScaleEvent{0.4f});
  app.refreshAssignment();
}

TEST(SnapshotTest, RoundTripRestoresAllState) {
  const auto ds = makeDataset();
  Session original(SharedContext::create(ds, smallWall()));
  buildRichState(original);
  const auto snapshot = saveSnapshot(original);

  Session restored(SharedContext::create(ds, smallWall()));
  ASSERT_TRUE(restoreSnapshot(restored, snapshot));

  EXPECT_EQ(restored.activePreset(), original.activePreset());
  EXPECT_EQ(restored.groups().groups().size(),
            original.groups().groups().size());
  EXPECT_EQ(restored.groups().find(2)->pageOffset,
            original.groups().find(2)->pageOffset);
  EXPECT_EQ(restored.brush().strokes().size(),
            original.brush().strokes().size());
  EXPECT_FLOAT_EQ(restored.timeWindow().lo(), 5.0f);
  EXPECT_FLOAT_EQ(restored.timeWindow().hi(), 90.0f);
  EXPECT_FLOAT_EQ(restored.stereoSettings().depthOffsetCm, -8.0f);
  EXPECT_FLOAT_EQ(restored.stereoSettings().timeScaleCmPerS, 0.4f);
}

TEST(SnapshotTest, RestoredFramePixelIdentical) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  Session original(SharedContext::create(ds, w));
  buildRichState(original);
  const auto sceneA = original.buildScene();

  Session restored(SharedContext::create(ds, w));
  ASSERT_TRUE(restoreSnapshot(restored, saveSnapshot(original)));
  const auto sceneB = restored.buildScene();

  const auto imgA =
      cluster::renderReferenceWall(ds, w, sceneA, render::Eye::kLeft);
  const auto imgB =
      cluster::renderReferenceWall(ds, w, sceneB, render::Eye::kLeft);
  EXPECT_EQ(imgA.contentHash(), imgB.contentHash());
}

TEST(SnapshotTest, RestoreOverwritesExistingState) {
  const auto ds = makeDataset();
  Session original(SharedContext::create(ds, smallWall()));
  buildRichState(original);
  const auto snapshot = saveSnapshot(original);

  Session dirty(SharedContext::create(ds, smallWall()));
  dirty.apply(ui::LayoutSwitchEvent{0});
  dirty.apply(ui::BrushStrokeEvent{3, {10.0f, 10.0f}, 20.0f});
  ui::GroupDefineEvent g;
  g.groupId = 9;
  g.cellRect = {0, 0, 5, 2};
  dirty.apply(g);

  ASSERT_TRUE(restoreSnapshot(dirty, snapshot));
  EXPECT_EQ(dirty.groups().find(9), nullptr);  // stale group gone
  EXPECT_EQ(dirty.activePreset(), 2u);
  EXPECT_EQ(dirty.brush().strokes().size(), 2u);
}

TEST(SnapshotTest, RejectsGarbage) {
  const auto ds = makeDataset();
  Session app(SharedContext::create(ds, smallWall()));
  util::MessageBuffer garbage;
  garbage.putU32(0xBADF00D);
  EXPECT_FALSE(restoreSnapshot(app, std::move(garbage)));
  util::MessageBuffer truncated;
  truncated.putU32(0x53565150u);
  EXPECT_FALSE(restoreSnapshot(app, std::move(truncated)));
}

TEST(SnapshotTest, EmptyStateSnapshotRestores) {
  const auto ds = makeDataset();
  Session a(SharedContext::create(ds, smallWall()));
  Session b(SharedContext::create(ds, smallWall()));
  b.apply(ui::BrushStrokeEvent{0, {0, 0}, 5.0f});
  ASSERT_TRUE(restoreSnapshot(b, saveSnapshot(a)));
  EXPECT_TRUE(b.brush().empty());
  EXPECT_EQ(b.activePreset(), a.activePreset());
}

TEST(SnapshotTest, FileRoundTrip) {
  const auto ds = makeDataset();
  Session original(SharedContext::create(ds, smallWall()));
  buildRichState(original);
  const std::string path =
      (std::filesystem::temp_directory_path() / "svq_snapshot_test.svqp")
          .string();
  ASSERT_TRUE(saveSnapshotFile(original, path));
  Session restored(SharedContext::create(ds, smallWall()));
  ASSERT_TRUE(restoreSnapshotFile(restored, path));
  EXPECT_EQ(restored.brush().strokes().size(), 2u);
  std::remove(path.c_str());
  EXPECT_FALSE(restoreSnapshotFile(restored, path));  // gone
}

// A rejected restore must be all-or-nothing: neither a truncated nor a
// corrupted snapshot may leave the session half-switched (new layout, old
// groups gone, some strokes applied).
TEST(SnapshotTest, RejectedRestoreLeavesSessionUntouched) {
  const auto ds = makeDataset();
  Session source(SharedContext::create(ds, smallWall()));
  source.apply(ui::LayoutSwitchEvent{2});
  source.apply(ui::BrushStrokeEvent{0, {-20.0f, 5.0f}, 12.0f});
  source.apply(ui::BrushStrokeEvent{1, {0.0f, 0.0f}, 8.0f});
  source.apply(ui::TimeWindowEvent{5.0f, 90.0f});
  const std::vector<std::uint8_t> snapshot = saveSnapshot(source).bytes();

  Session target(SharedContext::create(ds, smallWall()));
  target.apply(ui::LayoutSwitchEvent{0});
  ui::GroupDefineEvent g;
  g.groupId = 9;
  g.cellRect = {0, 0, 5, 2};
  target.apply(g);
  target.apply(ui::BrushStrokeEvent{3, {10.0f, 10.0f}, 20.0f});
  target.apply(ui::TimeWindowEvent{1.0f, 30.0f});
  target.apply(ui::DepthOffsetEvent{4.0f});
  const std::vector<std::uint8_t> before = saveSnapshot(target).bytes();

  for (std::size_t cut = 0; cut < snapshot.size(); ++cut) {
    Session s = target.fork();
    std::vector<std::uint8_t> prefix(snapshot.begin(), snapshot.begin() + cut);
    ASSERT_FALSE(restoreSnapshot(s, util::MessageBuffer(std::move(prefix))))
        << "prefix " << cut;
    ASSERT_EQ(saveSnapshot(s).bytes(), before) << "prefix " << cut;
  }

  Rng rng(0x5AFEULL);
  int rejected = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    Session s = target.fork();
    std::vector<std::uint8_t> flipped = snapshot;
    const std::uint64_t bit = rng.next() % (flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    if (restoreSnapshot(s, util::MessageBuffer(std::move(flipped)))) continue;
    ++rejected;
    ASSERT_EQ(saveSnapshot(s).bytes(), before) << "iteration " << iter;
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace svq::core
