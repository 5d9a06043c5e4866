#include "core/query.h"

#include <algorithm>

#include "core/querykernel.h"
#include "util/arena.h"

namespace svq::core {

namespace {

/// Window-independent final-position signal: which brush covers the
/// trajectory's end. The very last sample can sit a step beyond the arena
/// boundary (the exit crossing), where nothing is painted, so probe the
/// last few samples walking backwards. Three scalar probes — not worth a
/// kernel launch.
std::int8_t probeLastSegmentBrush(traj::PointsView pts,
                                  const BrushGrid& brush) {
  for (std::size_t back = 0; back < 3 && back < pts.size(); ++back) {
    const std::int8_t b = brush.brushAt(pts.pos(pts.size() - 1 - back));
    if (b != kNoBrush) return b;
  }
  return kNoBrush;
}

/// Merge-loop chunk between cancellation polls; big enough that the poll
/// (one atomic load, plus a clock read under a deadline) never shows up
/// in a profile, small enough that abandoning a million-segment
/// trajectory is prompt.
constexpr std::size_t kCancelChunkSegments = std::size_t{1} << 16;

/// Kernel-side segment classification: spatial[s] for all segments of
/// `pts`, writing into caller-provided storage. Replicates the historical
/// per-segment probe — endpoint a, else endpoint b, else midpoint — by
/// classifying every point once, then every segment midpoint, with the
/// vectorized point-in-brush kernel. The midpoint probe is pure, so
/// evaluating it unconditionally (instead of only on double-miss segments)
/// changes nothing but lets the whole pass run as three dense kernel
/// sweeps over the SoA channels.
///
/// Polls `cancel` between sweeps and per merge chunk; returns false when
/// it stopped early (spatial[] is then partial garbage — discard it).
/// The kernels are pure and the output identical wherever the poll sits,
/// so cancellation never changes completed results, only whether a
/// result completes.
bool classifySegments(traj::PointsView pts, const BrushGridView& grid,
                      std::int8_t* spatial, std::size_t segmentCount,
                      const util::Cancellation& cancel) {
  if (cancel.shouldStop()) return false;
  util::Arena& arena = util::frameArena();
  util::ArenaScope scope(arena);

  std::int8_t* pointBrush = arena.allocate<std::int8_t>(pts.size());
  pointBrushKernel(grid, pts.x, pts.y, pointBrush, pts.size());
  if (cancel.shouldStop()) return false;

  float* midX = arena.allocate<float>(segmentCount);
  float* midY = arena.allocate<float>(segmentCount);
  segmentMidpoints(pts.x, midX, segmentCount);
  segmentMidpoints(pts.y, midY, segmentCount);
  std::int8_t* midBrush = arena.allocate<std::int8_t>(segmentCount);
  pointBrushKernel(grid, midX, midY, midBrush, segmentCount);
  if (cancel.shouldStop()) return false;

  for (std::size_t base = 0; base < segmentCount;
       base += kCancelChunkSegments) {
    if (base != 0 && cancel.shouldStop()) return false;
    const std::size_t end =
        std::min(segmentCount, base + kCancelChunkSegments);
    for (std::size_t s = base; s < end; ++s) {
      std::int8_t hit = pointBrush[s];
      if (hit == kNoBrush) hit = pointBrush[s + 1];
      if (hit == kNoBrush) hit = midBrush[s];
      spatial[s] = hit;
    }
  }
  return true;
}

void initSummary(HighlightSummary& summary, std::uint32_t index,
                 std::size_t brushCount) {
  summary = HighlightSummary{};
  summary.trajectoryIndex = index;
  summary.segmentsPerBrush.assign(brushCount, 0);
  summary.durationPerBrush.assign(brushCount, 0.0f);
  summary.firstHitTime.assign(brushCount, -1.0f);
}

/// The temporal half of a segment's verdict: segment [tA, tB] meets the
/// (effective) window.
bool segmentInWindow(float tA, float tB, Vec2 window) {
  return !(tB < window.x || tA > window.y);
}

void recordHighlight(HighlightSummary& summary, std::int8_t hit, float tA,
                     float tB, std::size_t brushCount) {
  if (countedBrush(hit, brushCount)) {
    const auto brushIdx = static_cast<std::size_t>(hit);
    ++summary.segmentsPerBrush[brushIdx];
    summary.durationPerBrush[brushIdx] += tB - tA;
    if (summary.firstHitTime[brushIdx] < 0.0f) {
      summary.firstHitTime[brushIdx] = tA;
    }
  }
}

}  // namespace

void evaluate(const TrajectoryRef& t, const BrushGrid& brush,
              const QueryParams& params,
              std::vector<std::int8_t>& segmentsOut,
              HighlightSummary& summaryOut) {
  const traj::PointsView pts = t->view();
  const std::size_t segmentCount = pts.size() >= 2 ? pts.size() - 1 : 0;

  util::Arena& arena = util::frameArena();
  util::ArenaScope scope(arena);
  std::int8_t* spatial = arena.allocate<std::int8_t>(segmentCount);
  if (segmentCount > 0) {
    classifySegments(pts, brush.view(), spatial, segmentCount,
                     util::Cancellation::none());
  }

  applyTemporalMask(*t, t.index, {spatial, segmentCount},
                    probeLastSegmentBrush(pts, brush), params, segmentsOut,
                    summaryOut);
}

bool anyHighlight(const TrajectoryRef& t, const BrushGrid& brush,
                  const QueryParams& params) {
  const traj::PointsView pts = t->view();
  const std::size_t segmentCount = pts.size() >= 2 ? pts.size() - 1 : 0;
  if (segmentCount == 0) return false;

  util::Arena& arena = util::frameArena();
  util::ArenaScope scope(arena);
  std::int8_t* spatial = arena.allocate<std::int8_t>(segmentCount);
  classifySegments(pts, brush.view(), spatial, segmentCount,
                   util::Cancellation::none());

  const Vec2 window = params.effectiveWindow(t->duration());
  for (std::size_t s = 0; s < segmentCount; ++s) {
    if (countedBrush(spatial[s], params.brushCount) &&
        segmentInWindow(pts.time(s), pts.time(s + 1), window)) {
      return true;
    }
  }
  return false;
}

void classifySpatial(const traj::Trajectory& t, const BrushGrid& brush,
                     std::vector<std::int8_t>& spatialOut,
                     std::int8_t& lastSegmentBrushOut) {
  classifySpatial(t, brush, spatialOut, lastSegmentBrushOut,
                  util::Cancellation::none());
}

bool classifySpatial(const traj::Trajectory& t, const BrushGrid& brush,
                     std::vector<std::int8_t>& spatialOut,
                     std::int8_t& lastSegmentBrushOut,
                     const util::Cancellation& cancel) {
  const traj::PointsView pts = t.view();
  const std::size_t segmentCount = pts.size() >= 2 ? pts.size() - 1 : 0;
  spatialOut.assign(segmentCount, kNoBrush);
  lastSegmentBrushOut = probeLastSegmentBrush(pts, brush);
  if (segmentCount > 0) {
    return classifySegments(pts, brush.view(), spatialOut.data(),
                            segmentCount, cancel);
  }
  return !cancel.shouldStop();
}

void applyTemporalMask(const traj::Trajectory& t, std::uint32_t index,
                       std::span<const std::int8_t> spatialHits,
                       std::int8_t lastSegmentBrush,
                       const QueryParams& params,
                       std::vector<std::int8_t>& segmentsOut,
                       HighlightSummary& summaryOut) {
  const traj::PointsView pts = t.view();
  const std::size_t segmentCount = pts.size() >= 2 ? pts.size() - 1 : 0;
  segmentsOut.assign(segmentCount, kNoBrush);

  initSummary(summaryOut, index, params.brushCount);
  summaryOut.lastSegmentBrush = lastSegmentBrush;

  const Vec2 window = params.effectiveWindow(t.duration());
  const std::size_t n = std::min(segmentCount, spatialHits.size());
  for (std::size_t s = 0; s < n; ++s) {
    const std::int8_t hit = spatialHits[s];
    if (hit == kNoBrush) continue;
    const float tA = pts.time(s);
    const float tB = pts.time(s + 1);
    if (!segmentInWindow(tA, tB, window)) continue;

    segmentsOut[s] = hit;
    recordHighlight(summaryOut, hit, tA, tB, params.brushCount);
  }
}

std::vector<TrajectoryRef> makeRefs(const traj::TrajectoryDataset& dataset,
                                    std::span<const std::uint32_t> indices) {
  std::vector<TrajectoryRef> refs;
  refs.reserve(indices.size());
  for (std::uint32_t index : indices) {
    refs.push_back({&dataset[index], index});
  }
  return refs;
}

std::vector<TrajectoryRef> makeRefs(
    std::span<const traj::Trajectory> trajectories) {
  std::vector<TrajectoryRef> refs;
  refs.reserve(trajectories.size());
  for (std::size_t i = 0; i < trajectories.size(); ++i) {
    refs.push_back({&trajectories[i], static_cast<std::uint32_t>(i)});
  }
  return refs;
}

QueryResult evaluate(std::span<const TrajectoryRef> trajectories,
                     const BrushGrid& brush, const QueryParams& params) {
  const std::size_t count = trajectories.size();
  QueryResult result;
  result.segmentHighlights.resize(count);
  result.summaries.resize(count);
  result.trajectoriesEvaluated = count;

  auto body = [&](std::size_t i) {
    evaluate(trajectories[i], brush, params, result.segmentHighlights[i],
             result.summaries[i]);
  };

  if (params.parallel) {
    parallelFor(0, count, body, 8);
  } else {
    for (std::size_t i = 0; i < count; ++i) body(i);
  }

  for (std::size_t i = 0; i < count; ++i) {
    const auto& segs = result.segmentHighlights[i];
    result.totalSegmentsEvaluated += segs.size();
    const auto highlighted = static_cast<std::size_t>(
        std::count_if(segs.begin(), segs.end(),
                      [](std::int8_t h) { return h != kNoBrush; }));
    result.totalSegmentsHighlighted += highlighted;
    if (highlighted > 0) ++result.trajectoriesHighlighted;
  }
  return result;
}

}  // namespace svq::core
