// Tests for the incremental query engine — dirty-region invalidation,
// spatial/temporal factoring, result generations, and equivalence with the
// stateless one-shot evaluator.
#include "core/queryengine.h"

#include <gtest/gtest.h>

#include "traj/synth.h"
#include "util/cancel.h"

namespace svq::core {
namespace {

traj::TrajectoryDataset syntheticDataset(std::size_t n = 120) {
  traj::AntSimulator sim({}, 4242);
  traj::DatasetSpec spec;
  spec.count = n;
  return sim.generate(spec);
}

std::vector<std::uint32_t> allIndices(const traj::TrajectoryDataset& ds) {
  std::vector<std::uint32_t> indices(ds.size());
  for (std::uint32_t i = 0; i < ds.size(); ++i) indices[i] = i;
  return indices;
}

void expectSameResult(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.trajectoriesEvaluated, b.trajectoriesEvaluated);
  EXPECT_EQ(a.trajectoriesHighlighted, b.trajectoriesHighlighted);
  EXPECT_EQ(a.totalSegmentsEvaluated, b.totalSegmentsEvaluated);
  EXPECT_EQ(a.totalSegmentsHighlighted, b.totalSegmentsHighlighted);
  ASSERT_EQ(a.segmentHighlights.size(), b.segmentHighlights.size());
  for (std::size_t i = 0; i < a.segmentHighlights.size(); ++i) {
    EXPECT_EQ(a.segmentHighlights[i], b.segmentHighlights[i]) << "row " << i;
    EXPECT_EQ(a.summaries[i].segmentsPerBrush, b.summaries[i].segmentsPerBrush)
        << "summary " << i;
    EXPECT_EQ(a.summaries[i].lastSegmentBrush, b.summaries[i].lastSegmentBrush)
        << "summary " << i;
  }
}

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest()
      : ds_(syntheticDataset()),
        indices_(allIndices(ds_)),
        canvas_(ds_.arena().radiusCm, 128) {
    engine_.setTrajectories(ds_, indices_);
    engine_.setBrush(&canvas_.grid());
  }

  /// The stateless evaluator as ground truth for the current canvas/params.
  QueryResult oneShot() const {
    return evaluate(makeRefs(ds_, indices_), canvas_.grid(),
                    engine_.params());
  }

  traj::TrajectoryDataset ds_;
  std::vector<std::uint32_t> indices_;
  BrushCanvas canvas_;
  QueryEngine engine_;
};

TEST_F(QueryEngineTest, FirstPassMatchesOneShotEvaluation) {
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{0, {-20.0f, 0.0f}, 10.0f}));
  const auto result = engine_.evaluate();
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->generation, 1u);
  expectSameResult(*result, oneShot());
}

TEST_F(QueryEngineTest, LocalizedEditInvalidatesOnlyIntersectingSubset) {
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{0, {-20.0f, 0.0f}, 10.0f}));
  engine_.evaluate();

  // A small dab on a spot trajectory 0 actually visits: at least one
  // trajectory must re-classify, but only those whose footprint overlaps.
  const Vec2 dabPos = ds_[0].view().pos(ds_[0].size() / 2);
  const AABB2 dirty = canvas_.addStroke(BrushStroke{1, dabPos, 3.0f});
  ASSERT_TRUE(dirty.valid());
  engine_.invalidateRegion(dirty);
  const auto result = engine_.evaluate();
  ASSERT_EQ(result->generation, 2u) << "dab on a visited spot must re-pass";

  const auto& m = engine_.metrics();
  EXPECT_GT(m.lastPassInvalidated, 0u);
  EXPECT_GT(m.lastPassReused, 0u) << "dab invalidated the whole set";
  EXPECT_LT(m.lastPassInvalidated, ds_.size());
  EXPECT_EQ(m.lastPassInvalidated + m.lastPassReused, ds_.size());

  // Correctness is not allowed to degrade for the speedup.
  expectSameResult(*result, oneShot());
}

TEST_F(QueryEngineTest, TemporalWindowChangeDoesNoSpatialWork) {
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{0, {-20.0f, 0.0f}, 10.0f}));
  engine_.evaluate();

  QueryParams p = engine_.params();
  p.timeWindow = {5.0f, 40.0f};
  engine_.setParams(p);
  const auto result = engine_.evaluate();

  const auto& m = engine_.metrics();
  EXPECT_EQ(m.lastPassSpatialClassifications, 0u)
      << "window change must not re-touch the brush grid";
  EXPECT_EQ(m.lastPassReused, ds_.size());
  EXPECT_EQ(m.temporalOnlyPasses, 1u);
  expectSameResult(*result, oneShot());

  // Relative-window changes are temporal too.
  p.relativeWindow = Vec2{0.5f, 1.0f};
  engine_.setParams(p);
  const auto rel = engine_.evaluate();
  EXPECT_EQ(engine_.metrics().lastPassSpatialClassifications, 0u);
  expectSameResult(*rel, oneShot());
}

TEST_F(QueryEngineTest, CleanEvaluateReturnsSameGeneration) {
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{0, {-20.0f, 0.0f}, 10.0f}));
  const auto first = engine_.evaluate();
  const auto again = engine_.evaluate();
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(engine_.generation(), 1u);
  EXPECT_EQ(engine_.metrics().cachedPasses, 1u);
}

TEST_F(QueryEngineTest, GenerationsAreMonotonicAndResultsImmutable) {
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{0, {-10.0f, 0.0f}, 8.0f}));
  const auto g1 = engine_.evaluate();
  ASSERT_EQ(g1->generation, 1u);
  const std::size_t g1Highlighted = g1->totalSegmentsHighlighted;

  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{2, {15.0f, 10.0f}, 8.0f}));
  const auto g2 = engine_.evaluate();
  EXPECT_EQ(g2->generation, 2u);
  EXPECT_NE(g1.get(), g2.get());
  // The previous generation a consumer may still hold is untouched.
  EXPECT_EQ(g1->generation, 1u);
  EXPECT_EQ(g1->totalSegmentsHighlighted, g1Highlighted);
}

TEST_F(QueryEngineTest, StrokeClearSequenceMatchesOneShot) {
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{0, {-20.0f, 5.0f}, 10.0f}));
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{1, {25.0f, -15.0f}, 6.0f}));
  engine_.evaluate();

  engine_.invalidateRegion(canvas_.clear(1));
  const auto afterClear = engine_.evaluate();
  expectSameResult(*afterClear, oneShot());

  engine_.invalidateRegion(canvas_.clear());
  const auto empty = engine_.evaluate();
  EXPECT_EQ(empty->totalSegmentsHighlighted, 0u);
  expectSameResult(*empty, oneShot());
}

TEST_F(QueryEngineTest, RebindingTrajectoriesDropsCache) {
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{0, {-20.0f, 0.0f}, 10.0f}));
  engine_.evaluate();

  std::vector<std::uint32_t> subset(indices_.begin(), indices_.begin() + 10);
  engine_.setTrajectories(ds_, subset);
  const auto result = engine_.evaluate();
  EXPECT_EQ(result->trajectoriesEvaluated, 10u);
  expectSameResult(*result, evaluate(makeRefs(ds_, subset), canvas_.grid(),
                                     engine_.params()));
}

TEST_F(QueryEngineTest, SequentialModeMatchesParallel) {
  QueryParams p = engine_.params();
  p.parallel = false;
  engine_.setParams(p);
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{0, {-20.0f, 0.0f}, 10.0f}));
  const auto result = engine_.evaluate();
  expectSameResult(*result, oneShot());
}

TEST_F(QueryEngineTest, LastInvalidatedReportsDamagedRows) {
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{0, {-20.0f, 0.0f}, 10.0f}));
  engine_.evaluate();
  // First pass touches everything.
  EXPECT_EQ(engine_.metrics().lastPassInvalidated, ds_.size());

  // A localized dab re-passes only the overlapping subset.
  const Vec2 dabPos = ds_[0].view().pos(ds_[0].size() / 2);
  engine_.invalidateRegion(canvas_.addStroke(BrushStroke{1, dabPos, 3.0f}));
  engine_.evaluate();
  const std::uint64_t damaged = engine_.metrics().lastPassInvalidated;
  EXPECT_GT(damaged, 0u);
  EXPECT_LT(damaged, ds_.size());
  EXPECT_EQ(engine_.metrics().lastPassReused, ds_.size() - damaged);

  // A cached pass damages nothing and publishes no new generation.
  const std::uint64_t generation = engine_.generation();
  const std::uint64_t cached = engine_.metrics().cachedPasses;
  engine_.evaluate();
  EXPECT_EQ(engine_.metrics().cachedPasses, cached + 1);
  EXPECT_EQ(engine_.generation(), generation);

  // A temporal-only pass reports no spatial damage either; renderers must
  // fall back to scene content hashes for those (every cell's pixels may
  // change).
  QueryParams p = engine_.params();
  p.timeWindow = {5.0f, 40.0f};
  engine_.setParams(p);
  engine_.evaluate();
  EXPECT_EQ(engine_.metrics().temporalOnlyPasses, 1u);
  EXPECT_EQ(engine_.metrics().lastPassInvalidated, 0u);
}

TEST_F(QueryEngineTest, CancelledPassAbandonsWithoutTearingAndResumes) {
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{0, {-20.0f, 0.0f}, 10.0f}));

  // A pre-fired token: the pass must abandon before publishing anything.
  util::CancelToken token;
  token.requestCancel();
  const auto aborted = engine_.evaluate(util::Cancellation(&token));
  EXPECT_EQ(aborted, nullptr);
  EXPECT_EQ(engine_.generation(), 0u) << "no generation may publish";
  EXPECT_EQ(engine_.metrics().abandonedPasses, 1u);

  // The dirty-set survived the abort: the next uncancelled evaluate does
  // the same work and matches the stateless ground truth bit for bit.
  const auto resumed = engine_.evaluate();
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->generation, 1u);
  expectSameResult(*resumed, oneShot());
}

TEST_F(QueryEngineTest, ExpiredDeadlineAbandonsTemporalPassToo) {
  engine_.invalidateRegion(
      canvas_.addStroke(BrushStroke{0, {-20.0f, 0.0f}, 10.0f}));
  engine_.evaluate();
  const auto before = engine_.current();

  // Dirty the temporal axis only, then evaluate under an already-expired
  // deadline (a manual clock never advances, so a zero budget is dead on
  // arrival — the replay-deterministic way to force expiry).
  QueryParams p = engine_.params();
  p.timeWindow = {5.0f, 40.0f};
  engine_.setParams(p);
  util::ManualClock clock;
  const auto aborted = engine_.evaluate(
      util::Cancellation(util::Deadline::after(0, &clock)));
  EXPECT_EQ(aborted, nullptr);
  EXPECT_EQ(engine_.metrics().abandonedPasses, 1u);
  // Consumers holding the previous generation saw nothing move.
  EXPECT_EQ(engine_.current().get(), before.get());

  const auto resumed = engine_.evaluate();
  ASSERT_NE(resumed, nullptr);
  expectSameResult(*resumed, oneShot());
}

TEST(QueryEngineStandaloneTest, CurrentIsEmptyBeforeFirstPass) {
  QueryEngine engine;
  const auto result = engine.current();
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->trajectoriesEvaluated, 0u);
  EXPECT_EQ(engine.generation(), 0u);
}

// A painted texel reaches up to half a texel past its stroke's disc. The
// clear of that stroke must re-evaluate a trajectory that visits only this
// margin, or the trajectory keeps the removed brush's verdict.
TEST(QueryEngineStandaloneTest, ClearReevaluatesPaintPastTheDiscEdge) {
  // 128 texels over 100 cm: 0.78125 cm each. The disc's east edge,
  // x = 2.0, passes texel column 66 ([1.5625, 2.34375)) beyond its
  // centre, so the column is painted out to x = 2.34375.
  traj::TrajectoryDataset ds;
  ds.add(traj::Trajectory(
      {}, {{{2.10f, 0.20f}, 0.0f}, {{2.20f, 0.40f}, 1.0f},
           {{2.30f, 0.60f}, 2.0f}}));  // in the margin only
  ds.add(traj::Trajectory(
      {}, {{{-21.0f, -20.0f}, 0.0f}, {{-20.0f, -20.0f}, 1.0f},
           {{-19.0f, -20.0f}, 2.0f}}));  // under the second stroke
  const auto indices = allIndices(ds);
  BrushCanvas canvas(ds.arena().radiusCm, 128);
  QueryEngine engine;
  engine.setTrajectories(ds, indices);
  engine.setBrush(&canvas.grid());
  auto fromScratch = [&] {
    return evaluate(makeRefs(ds, indices), canvas.grid(), engine.params());
  };

  engine.invalidateRegion(
      canvas.addStroke(BrushStroke{0, {-5.0f, 0.0f}, 7.0f}));
  const auto painted = engine.evaluate();
  ASSERT_EQ(painted->segmentHighlights[0],
            (std::vector<std::int8_t>{0, 0}))
      << "the margin trajectory must start out highlighted";

  engine.invalidateRegion(canvas.clear(0));
  engine.evaluate();
  engine.invalidateRegion(
      canvas.addStroke(BrushStroke{1, {-20.0f, -20.0f}, 3.0f}));
  const auto result = engine.evaluate();
  expectSameResult(*result, fromScratch());
  EXPECT_EQ(result->segmentHighlights[0],
            (std::vector<std::int8_t>{kNoBrush, kNoBrush}));
}

TEST(QueryEngineStandaloneTest, MetricsAccumulateAndReset) {
  auto ds = syntheticDataset(30);
  const auto indices = allIndices(ds);
  BrushCanvas canvas(ds.arena().radiusCm, 128);
  QueryEngine engine;
  engine.setTrajectories(ds, indices);
  engine.setBrush(&canvas.grid());
  engine.invalidateRegion(
      canvas.addStroke(BrushStroke{0, {0.0f, 0.0f}, 15.0f}));
  engine.evaluate();
  EXPECT_EQ(engine.metrics().passes, 1u);
  EXPECT_GT(engine.metrics().trajectoriesInvalidated, 0u);

  engine.resetMetrics();
  EXPECT_EQ(engine.metrics().passes, 0u);
  EXPECT_EQ(engine.metrics().trajectoriesInvalidated, 0u);
  EXPECT_DOUBLE_EQ(engine.metrics().cacheHitRate(), 0.0);
}

}  // namespace
}  // namespace svq::core
