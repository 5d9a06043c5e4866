// Tests for the two-phase anytime evaluation (core/progressive.h) and its
// session integration: the pre-pass only prunes what the summaries prove
// out, refinement converges to a result bit-identical to from-scratch
// exact evaluation under every schedule, and the progressive overview
// scene is indistinguishable from the exact one once converged.
#include "core/progressive.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "core/clusterscene.h"
#include "core/sessionservice.h"
#include "progressive_sequences.h"
#include "render/scene.h"
#include "traj/synth.h"
#include "util/clock.h"

namespace svq::core {
namespace {

traj::TrajectoryDataset makeDataset(std::size_t n = 60) {
  traj::AntSimulator sim({}, 1313);
  traj::DatasetSpec spec;
  spec.count = n;
  return sim.generate(spec);
}

wall::WallSpec smallWall() {
  return wall::WallSpec(wall::TileSpec{200, 120, 400.0f, 240.0f, 2.0f}, 3, 2);
}

/// Shard store + explorer over a synthetic dataset, torn down with the
/// fixture. The store is shared so SharedContext can co-own it.
class ProgressiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = makeDataset();
    // ctest runs gtest cases of this binary in parallel: the store path
    // must be unique per test case or SetUp/TearDown race on the file.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = (std::filesystem::temp_directory_path() /
             ("svq_progressive_" + name + ".svqs"))
                .string();
    ASSERT_TRUE(traj::writeShardStore(dataset_, path_, 8));
    auto opened = traj::ShardStore::open(path_);
    ASSERT_TRUE(opened.has_value());
    store_ = std::make_shared<traj::ShardStore>(std::move(*opened));
    traj::SomParams sp;
    sp.rows = 3;
    sp.cols = 3;
    sp.epochs = 3;
    traj::FeatureParams fp;
    fp.resampleCount = 16;
    fp.arenaRadiusCm = dataset_.arena().radiusCm;
    explorer_ = std::make_shared<const ShardSomExplorer>(*store_, sp, fp);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  BrushGrid halfBrush() const {
    BrushCanvas canvas(dataset_.arena().radiusCm, 128);
    paintArenaHalf(canvas, 0, traj::ArenaSide::kWest,
                   dataset_.arena().radiusCm);
    return canvas.grid();
  }

  traj::TrajectoryDataset dataset_;
  std::string path_;
  std::shared_ptr<traj::ShardStore> store_;
  std::shared_ptr<const ShardSomExplorer> explorer_;
};

TEST_F(ProgressiveTest, ConvergedEstimatesMatchExactReferenceAcrossSchedules) {
  const BrushGrid brush = halfBrush();
  const QueryParams params;
  const auto exact =
      ProgressiveClusterQuery::exactReference(*explorer_, brush, params);

  for (const std::size_t schedule :
       {std::size_t{1}, std::size_t{2}, std::size_t{1} << 20}) {
    ProgressiveClusterQuery query(*explorer_);
    query.begin(brush, params);
    EXPECT_TRUE(query.active());
    EXPECT_EQ(query.prunedShards() + query.pendingShards(),
              store_->shardCount());
    while (!query.converged()) {
      ASSERT_GT(query.refineStep(schedule), 0u) << "refinement wedged";
    }
    EXPECT_EQ(query.estimates(), exact) << "schedule " << schedule;
    EXPECT_DOUBLE_EQ(query.coverage(), 1.0);
    EXPECT_EQ(query.pendingShards(), 0u);
  }
}

TEST_F(ProgressiveTest, CoverageTightensMonotonicallyDuringRefinement) {
  ProgressiveClusterQuery query(*explorer_);
  query.begin(halfBrush(), QueryParams{});
  double last = query.coverage();
  EXPECT_GE(last, 0.0);
  while (!query.converged()) {
    query.refineStep(1);
    const double now = query.coverage();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_DOUBLE_EQ(last, 1.0);
}

TEST_F(ProgressiveTest, ConvergedOverviewSceneIsBitIdenticalToExact) {
  const BrushGrid brush = halfBrush();
  const QueryParams params;
  const wall::WallSpec wall = smallWall();
  const ClusterSceneOptions options;

  auto exact =
      ProgressiveClusterQuery::exactReference(*explorer_, brush, params);
  const QueryResult prototypes = explorer_->queryClusters(brush, params);
  const ClusterOverviewScene want = buildProgressiveOverview(
      *explorer_, prototypes, exact, wall, options);

  ProgressiveClusterQuery query(*explorer_);
  query.begin(brush, params);
  while (!query.converged()) query.refineStep(3);
  const ClusterOverviewScene got =
      buildProgressiveOverview(query, wall, options);

  EXPECT_DOUBLE_EQ(got.coverage, 1.0);
  EXPECT_EQ(render::sceneCellHashes(got.scene),
            render::sceneCellHashes(want.scene));
  EXPECT_EQ(got.cellToNode, want.cellToNode);
}

TEST_F(ProgressiveTest, NonPositiveBudgetNeverClassifiesButStillConverges) {
  AnytimeOptions options;
  options.prepassBudgetUs = 0;
  ProgressiveClusterQuery query(*explorer_, options);
  query.begin(halfBrush(), QueryParams{});
  // Nothing classified: every shard stays uncertain (safe), none pruned.
  EXPECT_EQ(query.prunedShards(), 0u);
  while (!query.converged()) query.refineStep(4);
  EXPECT_EQ(query.estimates(), ProgressiveClusterQuery::exactReference(
                                   *explorer_, halfBrush(), QueryParams{}));
}

TEST_F(ProgressiveTest, ManualClockMakesPrepassClassificationDeterministic) {
  // A frozen manual clock never expires the budget: with identical input
  // the classification is a pure function, not a race against wall time.
  util::ManualClock clock;
  AnytimeOptions options;
  options.clock = &clock;
  ProgressiveClusterQuery a(*explorer_, options);
  ProgressiveClusterQuery b(*explorer_, options);
  a.begin(halfBrush(), QueryParams{});
  b.begin(halfBrush(), QueryParams{});
  EXPECT_EQ(a.prunedShards(), b.prunedShards());
  EXPECT_EQ(a.pendingShards(), b.pendingShards());
  EXPECT_EQ(a.estimates(), b.estimates());
}

TEST_F(ProgressiveTest, RefineStepAlwaysResolvesAtLeastOneShard) {
  // An already-expired deadline (or fired token) must not starve the
  // query: each step resolves at least one shard before polling, so
  // convergence is guaranteed even under a hostile budget.
  ProgressiveClusterQuery query(*explorer_);
  query.begin(halfBrush(), QueryParams{});
  const util::Cancellation expired(util::Deadline::after(-1));
  ASSERT_TRUE(expired.shouldStop());
  std::size_t steps = 0;
  while (!query.converged()) {
    ASSERT_GT(query.refineStep(100, expired), 0u);
    ++steps;
  }
  // The poll capped each step at one shard despite the 100-shard ask.
  EXPECT_EQ(steps, query.refinedShardCount());
  EXPECT_EQ(query.estimates(), ProgressiveClusterQuery::exactReference(
                                   *explorer_, halfBrush(), QueryParams{}));
}

TEST_F(ProgressiveTest, FromEnvReadsAnytimeBudgetMs) {
  ::setenv("SVQ_ANYTIME_BUDGET_MS", "5", 1);
  EXPECT_EQ(AnytimeOptions::fromEnv().prepassBudgetUs, 5000);
  ::setenv("SVQ_ANYTIME_BUDGET_MS", "abc", 1);
  EXPECT_EQ(AnytimeOptions::fromEnv().prepassBudgetUs, 16000);
  ::setenv("SVQ_ANYTIME_BUDGET_MS", "-3", 1);
  EXPECT_EQ(AnytimeOptions::fromEnv().prepassBudgetUs, 16000);
  ::unsetenv("SVQ_ANYTIME_BUDGET_MS");
  EXPECT_EQ(AnytimeOptions::fromEnv().prepassBudgetUs, 16000);
}

TEST_F(ProgressiveTest, SessionServiceDrainsProgressiveSessionsToExact) {
  const auto context = SharedContext::create(
      dataset_, smallWall(),
      SharedContext::Options{
          .shardStore = store_, .som = nullptr, .shardExplorer = explorer_});
  SessionService service(context);
  const auto admitted = service.admit();
  ASSERT_TRUE(admitted.status.isOk());

  const float r = dataset_.arena().radiusCm;
  ASSERT_TRUE(
      service.apply(admitted.id, ui::BrushStrokeEvent{0, {-r * 0.5f, 0.0f},
                                                      r * 0.6f})
          .isOk());

  bool progressive = false;
  bool convergedBefore = true;
  const Status firstPixel = service.withSession(admitted.id, [&](Session& s) {
    progressive = s.progressiveMode();
    s.buildScene();  // first pixel: estimates, not yet exact
    convergedBefore = s.progressiveConverged();
    // The overview renders the cluster-average dataset, not the raw one.
    EXPECT_NE(&s.sceneDataset(), &context->dataset());
  });
  ASSERT_TRUE(firstPixel.isOk());
  ASSERT_TRUE(progressive);
  EXPECT_FALSE(convergedBefore);

  // Drain through the service API in small budget slices.
  std::size_t guard = 0;
  for (;;) {
    std::size_t refined = 0;
    ASSERT_TRUE(service.refine(admitted.id, 2, &refined).isOk());
    bool converged = false;
    const Status read = service.withSession(
        admitted.id, [&](Session& s) { converged = s.progressiveConverged(); });
    ASSERT_TRUE(read.isOk());
    if (converged) break;
    ASSERT_GT(refined, 0u) << "refine made no progress";
    ASSERT_LT(++guard, 10000u);
  }

  const Status exact = service.withSession(admitted.id, [&](Session& s) {
    s.buildScene();
    ASSERT_NE(s.progressiveQuery(), nullptr);
    EXPECT_DOUBLE_EQ(s.progressiveQuery()->coverage(), 1.0);
  });
  EXPECT_TRUE(exact.isOk());
}

// --- kept verdicts across begin() ------------------------------------------

std::string testName() {
  return ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

TEST(ProgressiveKeptTest, ConvergedStatesMatchExactReferenceUnderRandomEdits) {
  sequences::SequenceWorld world(sequences::sequenceDataset(240, 4242),
                                 testName());
  ASSERT_TRUE(world.ok());
  int checks = 0;
  int interrupted = 0;
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const sequences::SequenceStats stats =
        sequences::runEditSequence(world, seed, 60);
    checks += stats.checks;
    interrupted += stats.interrupted;
    failures += stats.failures;
  }
  EXPECT_EQ(failures, 0) << failures << " of " << checks
                         << " converged states differ";
  // The sweep must exercise both halves: converged checks, and edits
  // that restart a query mid-refinement.
  EXPECT_GE(checks, 350);
  EXPECT_GE(interrupted, 100);
}

TEST(ProgressiveKeptTest, ConvergedStatesMatchWhenColdShardsFanOut) {
  // Five shards of 64: the quarter-file cache holds about one of them,
  // and a shard whose members are all dirty splits over every thread of
  // the pool.
  sequences::SequenceWorld world(sequences::sequenceDataset(320, 4343),
                                 testName(), 64);
  ASSERT_TRUE(world.ok());
  int checks = 0;
  int failures = 0;
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    const sequences::SequenceStats stats =
        sequences::runEditSequence(world, seed, 50);
    checks += stats.checks;
    failures += stats.failures;
  }
  EXPECT_EQ(failures, 0) << failures << " of " << checks
                         << " converged states differ";
}

TEST(ProgressiveKeptTest, AShardQuarantinedMidSequenceCountsLost) {
  for (std::uint64_t seed = 101; seed <= 103; ++seed) {
    sequences::SequenceWorld world(sequences::sequenceDataset(240, seed),
                                   testName() + std::to_string(seed));
    ASSERT_TRUE(world.ok());
    const sequences::SequenceStats stats =
        sequences::runEditSequence(world, seed, 40, 20);
    EXPECT_EQ(stats.failures, 0) << "seed " << seed;
    // The rotted shard was read after the rot, and quarantined.
    EXPECT_EQ(world.store().quarantinedShardCount(), 1u) << "seed " << seed;
  }
}

TEST(ProgressiveKeptTest, AShardRottingUnderCleanMembersKeepsVerdictsUntilQuarantined) {
  // Media rot shows only when a shard is read. A shard whose members no
  // edit can flip is not read again: begin() resolves it from the kept
  // verdicts, while exactReference reads it, quarantines it and counts
  // its members with zero hits. From the quarantine on, begin() counts
  // those members lost, and the two agree again.
  sequences::SequenceWorld world(sequences::sequenceDataset(240, 31),
                                 testName());
  ASSERT_TRUE(world.ok());
  const traj::ShardStore& store = world.store();
  BrushCanvas canvas(world.dataset().arena().radiusCm, 128);
  paintArenaHalf(canvas, 0, traj::ArenaSide::kWest,
                 world.dataset().arena().radiusCm);
  const QueryParams params;

  // Rot the shard with the most hits, so losing it shows in the counts.
  std::size_t rotted = 0;
  std::uint64_t rottedHits = 0;
  for (std::size_t s = 0; s < store.shardCount(); ++s) {
    const traj::ShardInfo& info = store.shardInfo(s);
    std::uint64_t hits = 0;
    for (std::uint64_t g = info.firstGlobalIndex;
         g < info.firstGlobalIndex + info.trajectoryCount; ++g) {
      const auto index = static_cast<std::uint32_t>(g);
      if (anyHighlight({&world.dataset()[index], index}, canvas.grid(),
                       params)) {
        ++hits;
      }
    }
    if (hits > rottedHits) {
      rotted = s;
      rottedHits = hits;
    }
  }
  ASSERT_GT(rottedHits, 0u);

  Rng rng(9);
  ProgressiveClusterQuery query(world.explorer());
  query.begin(canvas.grid(), params);
  ASSERT_TRUE(sequences::convergeAndCheck(query, world, canvas.grid(), params,
                                          rng, "before the rot"));
  const auto kept = query.estimates();

  // The rot also drops the cache, so the shard is no longer resident.
  world.rotShard(rotted);
  const std::uint64_t misses = store.cacheStats().misses;
  query.begin(canvas.grid(), params);
  EXPECT_TRUE(query.converged());
  EXPECT_EQ(store.cacheStats().misses, misses) << "a kept shard was read";
  EXPECT_EQ(store.quarantinedShardCount(), 0u);
  EXPECT_EQ(query.lostMembers(), 0u);
  EXPECT_EQ(query.estimates(), kept);

  // exactReference reads every shard, so it finds the rot.
  const auto reference = ProgressiveClusterQuery::exactReference(
      world.explorer(), canvas.grid(), params);
  EXPECT_TRUE(store.isQuarantined(rotted));
  EXPECT_NE(reference, kept);

  query.begin(canvas.grid(), params);
  EXPECT_EQ(query.pendingShards(), 1u);
  EXPECT_TRUE(sequences::convergeAndCheck(query, world, canvas.grid(), params,
                                          rng, "after the quarantine"));
  EXPECT_EQ(query.lostMembers(), store.shardInfo(rotted).trajectoryCount);
}

TEST(ProgressiveKeptTest, UncountedPaintOnAFirstEndpointUnhitsAMidpointHit) {
  // A long two-sample segment whose midpoint alone lies on counted paint
  // is a hit. Uncounted paint under its first endpoint masks the
  // midpoint probe (the first non-empty probe wins), so the member turns
  // into a miss although the edit only added paint.
  traj::TrajectoryDataset ds = sequences::sequenceDataset(63, 99);
  const traj::Trajectory probe({}, {{{-20.0f, 0.0f}, 0.0f},
                                    {{20.0f, 0.0f}, 1.0f}});
  ds.add(probe);
  sequences::SequenceWorld world(std::move(ds), testName());
  ASSERT_TRUE(world.ok());

  BrushCanvas canvas(world.dataset().arena().radiusCm, 128);
  canvas.addStroke({0, {0.0f, 0.0f}, 4.0f});
  const QueryParams params;
  const TrajectoryRef ref{&probe, 0};
  ASSERT_TRUE(anyHighlight(ref, canvas.grid(), params));

  Rng rng(5);
  ProgressiveClusterQuery query(world.explorer());
  query.begin(canvas.grid(), params);
  ASSERT_TRUE(sequences::convergeAndCheck(query, world, canvas.grid(), params,
                                          rng, "counted dab"));

  canvas.addStroke({7, {-20.0f, 0.0f}, 3.0f});
  ASSERT_FALSE(anyHighlight(ref, canvas.grid(), params));
  query.begin(canvas.grid(), params);
  EXPECT_TRUE(sequences::convergeAndCheck(query, world, canvas.grid(), params,
                                          rng, "uncounted dab"));
}

TEST(ProgressiveKeptTest, RepeatedBeginConvergesWithoutStoreMisses) {
  sequences::SequenceWorld world(sequences::sequenceDataset(240, 77),
                                 testName());
  ASSERT_TRUE(world.ok());
  BrushCanvas canvas(world.dataset().arena().radiusCm, 128);
  paintArenaHalf(canvas, 0, traj::ArenaSide::kWest,
                 world.dataset().arena().radiusCm);
  QueryParams params;
  params.timeWindow = {10.0f, 90.0f};

  ProgressiveClusterQuery query(world.explorer());
  query.begin(canvas.grid(), params);
  while (!query.converged()) query.refineStep(2);
  const std::size_t pruned = query.prunedShards();
  const auto converged = query.estimates();
  const std::uint64_t misses = world.store().cacheStats().misses;

  // The same brush and window again: every verdict is kept, so begin()
  // converges by itself and the store is never asked for a shard.
  query.begin(canvas.grid(), params);
  EXPECT_TRUE(query.converged());
  EXPECT_EQ(query.pendingShards(), 0u);
  EXPECT_EQ(world.store().cacheStats().misses, misses);
  EXPECT_EQ(query.prunedShards(), pruned) << "kept shards count as pruned";
  EXPECT_EQ(query.estimates(), converged);
  EXPECT_EQ(query.estimates(), ProgressiveClusterQuery::exactReference(
                                   world.explorer(), canvas.grid(), params));
}

}  // namespace
}  // namespace svq::core
