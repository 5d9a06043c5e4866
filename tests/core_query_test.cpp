// Tests for the visual query engine — highlight semantics, temporal
// windows, summaries, and order/parallelism invariance.
#include "core/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "traj/synth.h"
#include "util/rng.h"

namespace svq::core {
namespace {

traj::Trajectory lineTraj(Vec2 from, Vec2 to, float duration,
                          std::size_t samples = 21) {
  std::vector<traj::TrajPoint> pts;
  for (std::size_t i = 0; i < samples; ++i) {
    const float u = static_cast<float>(i) / static_cast<float>(samples - 1);
    pts.push_back({lerp(from, to, u), duration * u});
  }
  return traj::Trajectory({}, std::move(pts));
}

BrushGrid westBrush() {
  BrushCanvas canvas(50.0f, 128);
  paintArenaHalf(canvas, 0, traj::ArenaSide::kWest, 50.0f);
  return canvas.grid();
}

TEST(EvaluateOneTest, HighlightsSegmentsInBrushedRegion) {
  // Walks from east to west: the west half of the path must highlight.
  const auto t = lineTraj({40, 0}, {-40, 0}, 10.0f);
  const BrushGrid brush = westBrush();
  QueryParams params;
  std::vector<std::int8_t> segs;
  HighlightSummary summary;
  evaluate(TrajectoryRef{&t, 0}, brush, params, segs, summary);
  ASSERT_EQ(segs.size(), t.size() - 1);
  // First segments (east) unhighlighted; last segments (west) highlighted.
  EXPECT_EQ(segs.front(), kNoBrush);
  EXPECT_EQ(segs.back(), 0);
  EXPECT_TRUE(summary.hitByBrush(0));
  EXPECT_GT(summary.highlightedDuration(0), 3.0f);
  EXPECT_LT(summary.highlightedDuration(0), 7.0f);
}

TEST(EvaluateOneTest, NoHighlightOutsideBrush) {
  const auto t = lineTraj({10, 10}, {40, 40}, 10.0f);  // stays east/north
  const BrushGrid brush = westBrush();
  QueryParams params;
  std::vector<std::int8_t> segs;
  HighlightSummary summary;
  evaluate(TrajectoryRef{&t, 0}, brush, params, segs, summary);
  EXPECT_FALSE(summary.anyHighlight());
  for (auto s : segs) EXPECT_EQ(s, kNoBrush);
}

TEST(EvaluateOneTest, FirstHitTimeIsEntryTime) {
  const auto t = lineTraj({40, 0}, {-40, 0}, 10.0f);
  const BrushGrid brush = westBrush();
  QueryParams params;
  std::vector<std::int8_t> segs;
  HighlightSummary summary;
  evaluate(TrajectoryRef{&t, 0}, brush, params, segs, summary);
  // Crosses x=0 at t=5; entry recorded at the first highlighted segment's
  // start time, which is just before the crossing.
  ASSERT_FALSE(summary.firstHitTime.empty());
  EXPECT_GT(summary.firstHitTime[0], 3.0f);
  EXPECT_LT(summary.firstHitTime[0], 6.0f);
}

TEST(EvaluateOneTest, TemporalWindowExcludesSegments) {
  const auto t = lineTraj({40, 0}, {-40, 0}, 10.0f);
  const BrushGrid brush = westBrush();
  QueryParams params;
  params.timeWindow = {0.0f, 3.0f};  // only the east part of the walk
  std::vector<std::int8_t> segs;
  HighlightSummary summary;
  evaluate(TrajectoryRef{&t, 0}, brush, params, segs, summary);
  EXPECT_FALSE(summary.anyHighlight());
}

TEST(EvaluateOneTest, WindowOverlapAtBoundaryCounts) {
  const auto t = lineTraj({-40, 0}, {-30, 0}, 10.0f);  // all in west
  const BrushGrid brush = westBrush();
  QueryParams params;
  params.timeWindow = {9.9f, 20.0f};  // touches only the last segment
  std::vector<std::int8_t> segs;
  HighlightSummary summary;
  evaluate(TrajectoryRef{&t, 0}, brush, params, segs, summary);
  EXPECT_TRUE(summary.anyHighlight());
  EXPECT_EQ(summary.segmentsPerBrush[0], 1u);
}

TEST(EvaluateOneTest, MultipleBrushesTrackedSeparately) {
  BrushCanvas canvas(50.0f, 128);
  paintArenaHalf(canvas, 0, traj::ArenaSide::kWest, 50.0f);
  paintArenaHalf(canvas, 1, traj::ArenaSide::kEast, 50.0f);
  const auto t = lineTraj({40, 0}, {-40, 0}, 10.0f);
  QueryParams params;
  std::vector<std::int8_t> segs;
  HighlightSummary summary;
  evaluate(TrajectoryRef{&t, 0}, canvas.grid(), params, segs, summary);
  EXPECT_TRUE(summary.hitByBrush(0));
  EXPECT_TRUE(summary.hitByBrush(1));
  EXPECT_GT(summary.highlightedDuration(0), 2.0f);
  EXPECT_GT(summary.highlightedDuration(1), 2.0f);
}

TEST(EvaluateOneTest, ShortTrajectoryNoSegments) {
  const traj::Trajectory t({}, {{{0, 0}, 0}});
  const BrushGrid brush = westBrush();
  QueryParams params;
  std::vector<std::int8_t> segs;
  HighlightSummary summary;
  evaluate(TrajectoryRef{&t, 3}, brush, params, segs, summary);
  EXPECT_TRUE(segs.empty());
  EXPECT_EQ(summary.trajectoryIndex, 3u);
  EXPECT_FALSE(summary.anyHighlight());
}

traj::TrajectoryDataset syntheticDataset(std::size_t n = 150) {
  traj::AntSimulator sim({}, 777);
  traj::DatasetSpec spec;
  spec.count = n;
  return sim.generate(spec);
}

TEST(EvaluateQueryTest, TotalsAreConsistent) {
  const auto ds = syntheticDataset();
  std::vector<std::uint32_t> indices(ds.size());
  for (std::uint32_t i = 0; i < ds.size(); ++i) indices[i] = i;
  const BrushGrid brush = westBrush();
  QueryParams params;
  const QueryResult r = evaluate(makeRefs(ds, indices), brush, params);
  EXPECT_EQ(r.trajectoriesEvaluated, ds.size());
  EXPECT_EQ(r.segmentHighlights.size(), ds.size());
  EXPECT_EQ(r.summaries.size(), ds.size());
  EXPECT_LE(r.trajectoriesHighlighted, r.trajectoriesEvaluated);
  EXPECT_LE(r.totalSegmentsHighlighted, r.totalSegmentsEvaluated);
  EXPECT_GT(r.trajectoriesHighlighted, 0u);
  // Summaries agree with the segment arrays.
  for (std::size_t i = 0; i < ds.size(); ++i) {
    std::size_t highlighted = 0;
    for (auto s : r.segmentHighlights[i]) {
      if (s != kNoBrush) ++highlighted;
    }
    std::size_t fromSummary = 0;
    for (auto n : r.summaries[i].segmentsPerBrush) fromSummary += n;
    EXPECT_EQ(highlighted, fromSummary) << "trajectory " << i;
  }
}

TEST(EvaluateQueryTest, ParallelMatchesSequential) {
  const auto ds = syntheticDataset();
  std::vector<std::uint32_t> indices(ds.size());
  for (std::uint32_t i = 0; i < ds.size(); ++i) indices[i] = i;
  const BrushGrid brush = westBrush();
  QueryParams par;
  par.parallel = true;
  QueryParams seq;
  seq.parallel = false;
  const QueryResult a = evaluate(makeRefs(ds, indices), brush, par);
  const QueryResult b = evaluate(makeRefs(ds, indices), brush, seq);
  EXPECT_EQ(a.totalSegmentsHighlighted, b.totalSegmentsHighlighted);
  EXPECT_EQ(a.trajectoriesHighlighted, b.trajectoriesHighlighted);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(a.segmentHighlights[i], b.segmentHighlights[i]);
  }
}

TEST(EvaluateQueryTest, SubsetSelectionRespectsIndices) {
  const auto ds = syntheticDataset(50);
  const std::vector<std::uint32_t> indices{3, 10, 42};
  const BrushGrid brush = westBrush();
  const QueryResult r = evaluate(makeRefs(ds, indices), brush, QueryParams{});
  ASSERT_EQ(r.summaries.size(), 3u);
  EXPECT_EQ(r.summaries[0].trajectoryIndex, 3u);
  EXPECT_EQ(r.summaries[1].trajectoryIndex, 10u);
  EXPECT_EQ(r.summaries[2].trajectoryIndex, 42u);
}

TEST(EvaluateQueryTest, ResultInvariantUnderIndexOrder) {
  const auto ds = syntheticDataset(60);
  std::vector<std::uint32_t> forward, backward;
  for (std::uint32_t i = 0; i < ds.size(); ++i) forward.push_back(i);
  backward.assign(forward.rbegin(), forward.rend());
  const BrushGrid brush = westBrush();
  const QueryResult a = evaluate(makeRefs(ds, forward), brush, QueryParams{});
  const QueryResult b = evaluate(makeRefs(ds, backward), brush, QueryParams{});
  EXPECT_EQ(a.totalSegmentsHighlighted, b.totalSegmentsHighlighted);
  EXPECT_EQ(a.trajectoriesHighlighted, b.trajectoriesHighlighted);
}

TEST(EvaluateQueryOverTest, PlainArrayEvaluation) {
  std::vector<traj::Trajectory> trajs;
  trajs.push_back(lineTraj({40, 0}, {-40, 0}, 10.0f));
  trajs.push_back(lineTraj({10, 10}, {40, 40}, 10.0f));
  const BrushGrid brush = westBrush();
  const QueryResult r = evaluate(makeRefs(trajs), brush, QueryParams{});
  EXPECT_EQ(r.trajectoriesEvaluated, 2u);
  EXPECT_EQ(r.trajectoriesHighlighted, 1u);
  EXPECT_TRUE(r.summaries[0].anyHighlight());
  EXPECT_FALSE(r.summaries[1].anyHighlight());
}

TEST(EvaluateQueryTest, EmptyIndexListGivesEmptyResult) {
  const auto ds = syntheticDataset(10);
  const BrushGrid brush = westBrush();
  const QueryResult r =
      evaluate(makeRefs(ds, std::vector<std::uint32_t>{}), brush, QueryParams{});
  EXPECT_EQ(r.trajectoriesEvaluated, 0u);
  EXPECT_EQ(r.trajectoriesHighlighted, 0u);
}

// --- the existence pass -----------------------------------------------------

/// A brush index drawn from one of three ranges: counted under a
/// brushCount of 6 (0–5), never counted (6–127), or past 127 — negative
/// after the int8 cast, where 255 is kNoBrush and so erases.
std::int8_t randomBrushIndex(Rng& rng) {
  int index = 0;
  switch (rng.below(4)) {
    case 0: index = rng.rangeInt(6, 127); break;
    case 1: index = rng.rangeInt(128, 255); break;
    default: index = rng.chance(0.5) ? 0 : rng.rangeInt(1, 5); break;
  }
  return static_cast<std::int8_t>(static_cast<std::uint8_t>(index));
}

/// One seeded case: a trajectory, the paint and the params.
struct ExistenceCase {
  traj::Trajectory trajectory;
  BrushCanvas canvas{50.0f, 96};
  QueryParams params;
};

ExistenceCase randomExistenceCase(Rng& rng) {
  ExistenceCase c;
  static constexpr std::size_t kSizes[] = {0, 1, 2, 63, 64, 65};
  const std::size_t n = rng.chance(0.25)
                            ? static_cast<std::size_t>(rng.rangeInt(380, 420))
                            : kSizes[rng.below(6)];
  // A walk with occasional long jumps, so segment midpoints land far
  // from both endpoints; it may leave the arena.
  std::vector<traj::TrajPoint> points;
  Vec2 pos{rng.uniform(-45.0f, 45.0f), rng.uniform(-45.0f, 45.0f)};
  float t = rng.uniform(-5.0f, 20.0f);
  const int timeMode = static_cast<int>(rng.below(3));  // sorted/repeats/any
  for (std::size_t i = 0; i < n; ++i) {
    const float step = rng.chance(0.1) ? 30.0f : 3.0f;
    pos = {std::clamp(pos.x + rng.uniform(-step, step), -55.0f, 55.0f),
           std::clamp(pos.y + rng.uniform(-step, step), -55.0f, 55.0f)};
    if (timeMode == 0) {
      t += rng.uniform(0.05f, 1.0f);
    } else if (timeMode == 1) {
      if (!rng.chance(0.3)) t += rng.uniform(0.0f, 1.0f);
    } else {
      t = rng.uniform(-10.0f, 200.0f);
    }
    points.push_back({pos, t});
  }
  c.trajectory = traj::Trajectory({}, points);

  // Half the dabs land on the walk, so hits are common.
  const int strokes = rng.rangeInt(0, 5);
  for (int k = 0; k < strokes; ++k) {
    const Vec2 at = n > 0 && rng.chance(0.5)
                        ? points[rng.below(n)].pos
                        : Vec2{rng.uniform(-50.0f, 50.0f),
                               rng.uniform(-50.0f, 50.0f)};
    c.canvas.addStroke({randomBrushIndex(rng), at, rng.uniform(2.0f, 30.0f)});
  }
  // A small counted dab on one long segment's midpoint, clear of both
  // endpoints: a hit through the midpoint probe only.
  if (n >= 2 && rng.chance(0.4)) {
    const std::size_t s = rng.below(n - 1);
    const Vec2 a = points[s].pos;
    const Vec2 b = points[s + 1].pos;
    const float half = 0.5f * std::hypot(b.x - a.x, b.y - a.y);
    if (half > 4.0f) {
      c.canvas.addStroke({static_cast<std::int8_t>(rng.rangeInt(0, 5)),
                          {0.5f * (a.x + b.x), 0.5f * (a.y + b.y)},
                          std::min(3.0f, 0.5f * half)});
    }
  }

  c.params.brushCount = rng.chance(0.5) ? 6 : 1;
  c.params.parallel = false;
  switch (rng.below(4)) {
    case 0: break;  // the default, everything
    case 1: {       // absolute, maybe inverted
      c.params.timeWindow = {rng.uniform(-10.0f, 150.0f),
                             rng.uniform(-10.0f, 150.0f)};
      break;
    }
    case 2: {  // empty: a point window, or one past every sample
      const float at = rng.chance(0.5) ? rng.uniform(0.0f, 100.0f) : 1e6f;
      c.params.timeWindow = {at, rng.chance(0.5) ? at : at + 1.0f};
      break;
    }
    default: {  // relative, maybe inverted or disjoint from the absolute
      c.params.relativeWindow = Vec2{rng.uniform(0.0f, 1.0f),
                                     rng.uniform(0.0f, 1.0f)};
      if (rng.chance(0.5)) {
        c.params.timeWindow = {rng.uniform(-10.0f, 100.0f),
                               rng.uniform(50.0f, 250.0f)};
      }
      break;
    }
  }
  return c;
}

TEST(AnyHighlightTest, EqualsTheFullVerdictOverSeededCases) {
  Rng rng(0xE715ULL);
  int hits = 0;
  for (int i = 0; i < 1000; ++i) {
    const ExistenceCase c = randomExistenceCase(rng);
    const TrajectoryRef ref{&c.trajectory, 0};
    const bool full =
        evaluate(std::vector<TrajectoryRef>{ref}, c.canvas.grid(), c.params)
            .summaries[0]
            .anyHighlight();
    ASSERT_EQ(anyHighlight(ref, c.canvas.grid(), c.params), full)
        << "case " << i << ": " << c.trajectory.size() << " points, "
        << c.canvas.strokes().size() << " strokes, brushCount "
        << c.params.brushCount;
    hits += full ? 1 : 0;
  }
  // Both verdicts must be well represented, or the comparison is idle.
  EXPECT_GT(hits, 100);
  EXPECT_LT(hits, 900);
}

TEST(AnyHighlightTest, MidpointOnlyHitAndUncountedMasking) {
  // A segment whose endpoints miss the paint and whose midpoint is on
  // it: a hit through the midpoint probe alone. Painting an uncounted
  // brush under the first endpoint masks the midpoint (the first
  // non-empty probe wins), so the same trajectory then misses.
  const traj::Trajectory t({}, {{{-20, 0}, 0}, {{20, 0}, 1}});
  BrushCanvas canvas(50.0f, 128);
  canvas.addStroke({0, {0, 0}, 4.0f});
  QueryParams params;
  const TrajectoryRef ref{&t, 0};
  EXPECT_TRUE(anyHighlight(ref, canvas.grid(), params));
  canvas.addStroke({7, {-20, 0}, 3.0f});
  EXPECT_FALSE(anyHighlight(ref, canvas.grid(), params));
  // brushCount 8 counts brush 7 again.
  params.brushCount = 8;
  EXPECT_TRUE(anyHighlight(ref, canvas.grid(), params));
}

TEST(HighlightSummaryTest, Accessors) {
  HighlightSummary s;
  s.segmentsPerBrush = {0, 5, 0};
  s.durationPerBrush = {0.0f, 2.5f, 0.0f};
  EXPECT_TRUE(s.anyHighlight());
  EXPECT_FALSE(s.hitByBrush(0));
  EXPECT_TRUE(s.hitByBrush(1));
  EXPECT_FALSE(s.hitByBrush(99));  // out of range is safe
  EXPECT_FLOAT_EQ(s.highlightedDuration(1), 2.5f);
  EXPECT_FLOAT_EQ(s.highlightedDuration(99), 0.0f);
}

}  // namespace
}  // namespace svq::core
