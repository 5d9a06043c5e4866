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

#include "core/clusterscene.h"
#include "core/sessionservice.h"
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

}  // namespace
}  // namespace svq::core
