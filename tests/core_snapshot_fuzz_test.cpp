// Property/fuzz tests for session snapshots (tier2), mirroring the SVQT
// parser fuzz suite: ~1k seed-driven iterations each.
//   1. Round-trip: any reachable app state snapshots and restores to a
//      byte-identical re-snapshot.
//   2. Robustness: truncations and bit-flips never crash restoreSnapshot
//      and never drive allocations from corrupt count fields (the
//      payload-bounded count checks) — a bad snapshot returns false or
//      restores a plausible state, nothing else.
#include "core/snapshot.h"

#include <gtest/gtest.h>

#include "traj/synth.h"
#include "util/rng.h"

namespace svq::core {
namespace {

constexpr std::uint64_t kFuzzSeed = 0x5AF5AF01ULL;
constexpr int kIterations = 1000;

traj::TrajectoryDataset makeDataset() {
  traj::AntSimulator sim({}, 1313);
  traj::DatasetSpec spec;
  spec.count = 24;  // small: the fuzz loops restore ~1k times
  return sim.generate(spec);
}

wall::WallSpec smallWall() {
  return wall::WallSpec(wall::TileSpec{160, 96, 320.0f, 192.0f, 2.0f}, 6, 2);
}

/// Drives the app into a random reachable state: layout preset, brush
/// strokes, groups (some invalid rects — apply() rejecting them is part
/// of the reachable-state space), sliders.
void randomizeState(Session& app, Rng& rng) {
  app.apply(ui::LayoutSwitchEvent{
      static_cast<std::uint8_t>(rng.below(app.layoutPresets().size()))});
  app.groups().clear();
  app.apply(ui::BrushClearEvent{255});

  const std::size_t groupCount = rng.below(4);
  for (std::size_t i = 0; i < groupCount; ++i) {
    ui::GroupDefineEvent g;
    g.groupId = static_cast<std::uint8_t>(1 + rng.below(8));
    const int x0 = static_cast<int>(rng.below(4));
    const int y0 = static_cast<int>(rng.below(2));
    g.cellRect = {x0, y0, x0 + static_cast<int>(rng.below(3)),
                  y0 + static_cast<int>(rng.below(2))};
    g.colorIndex = static_cast<std::uint8_t>(rng.below(6));
    g.name = rng.below(2) ? "fuzz group" : "";
    if (rng.below(2)) g.filter.minDurationS = rng.uniform(0.0f, 10.0f);
    app.apply(g);  // may fail on overlap/shape; both outcomes are states
  }

  const std::size_t strokes = rng.below(5);
  for (std::size_t i = 0; i < strokes; ++i) {
    app.apply(ui::BrushStrokeEvent{
        static_cast<std::uint8_t>(rng.below(4)),
        {rng.uniform(-50.0f, 50.0f), rng.uniform(-50.0f, 50.0f)},
        rng.uniform(1.0f, 25.0f)});
  }

  const float t0 = rng.uniform(0.0f, 100.0f);
  app.apply(ui::TimeWindowEvent{t0, t0 + rng.uniform(1.0f, 200.0f)});
  app.apply(ui::DepthOffsetEvent{rng.uniform(-20.0f, 20.0f)});
  app.apply(ui::TimeScaleEvent{rng.uniform(0.05f, 2.0f)});
  app.refreshAssignment();
}

TEST(SnapshotFuzzTest, RandomStatesRoundTripByteIdentically) {
  const auto ds = makeDataset();
  const wall::WallSpec wall = smallWall();
  Session source(SharedContext::create(ds, wall));
  Session restored(SharedContext::create(ds, wall));
  Rng rng(kFuzzSeed);

  for (int iter = 0; iter < kIterations; ++iter) {
    randomizeState(source, rng);
    const auto snapshot = saveSnapshot(source);
    ASSERT_TRUE(restoreSnapshot(restored, snapshot)) << "iteration " << iter;
    const auto resnapshot = saveSnapshot(restored);
    ASSERT_EQ(snapshot.bytes(), resnapshot.bytes()) << "iteration " << iter;
  }
}

TEST(SnapshotFuzzTest, RandomTruncationsAreRejectedWithoutCrashing) {
  const auto ds = makeDataset();
  Session source(SharedContext::create(ds, smallWall()));
  Session scratch(SharedContext::create(ds, smallWall()));
  Rng rng(kFuzzSeed ^ 0x1);

  for (int iter = 0; iter < kIterations; ++iter) {
    randomizeState(source, rng);
    const auto snapshot = saveSnapshot(source);
    const auto& bytes = snapshot.bytes();
    const std::size_t cut = rng.below(bytes.size());
    util::MessageBuffer torn(
        std::vector<std::uint8_t>(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut)));
    // The encoding has no padding: every byte saved is read back, so any
    // strict prefix must fail (and must never crash mid-restore).
    EXPECT_FALSE(restoreSnapshot(scratch, std::move(torn)))
        << "iteration " << iter << " cut " << cut;
  }
}

TEST(SnapshotFuzzTest, RandomBitFlipsNeverCrashOrOverAllocate) {
  const auto ds = makeDataset();
  Session source(SharedContext::create(ds, smallWall()));
  Session scratch(SharedContext::create(ds, smallWall()));
  Rng rng(kFuzzSeed ^ 0x2);

  for (int iter = 0; iter < kIterations; ++iter) {
    randomizeState(source, rng);
    auto bytes = saveSnapshot(source).bytes();
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t bit = rng.below(bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    // A flip in a float payload may restore fine; a flip in a count or
    // length field must be rejected via the payload-bounded checks (a
    // hostile group/stroke count cannot allocate or loop past the bytes
    // actually present). Either way: no crash, no hang — ASan in CI
    // enforces the memory side.
    restoreSnapshot(scratch, util::MessageBuffer(std::move(bytes)));
  }
}

}  // namespace
}  // namespace svq::core
