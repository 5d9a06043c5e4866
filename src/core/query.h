// query.h — the scalable visual query engine (stateless surface).
//
// A visual query = brush mask (where) x temporal window (when), evaluated
// against every displayed trajectory simultaneously. The engine computes,
// per trajectory, which segments are highlighted by which brush — exactly
// the paint-crossing semantics of §IV.C.2: "segments in all currently
// displayed trajectories [are] highlighted when the insect moves over a
// brushed area".
//
// Every evaluation flows through ONE code path: a span of TrajectoryRef
// views. Datasets, displayed subsets, cluster averages and single
// trajectories are all just different ways of building that span.
//
// Evaluation is embarrassingly parallel over trajectories and linear in
// the number of samples — this is the property that lets a query "cover"
// 432 cells in interactive time and scale to cluster-level exploration.
// For *incremental* evaluation with caching and dirty-region invalidation
// see core/queryengine.h, which builds on the spatial/temporal factoring
// primitives (classifySpatial / applyTemporalMask) declared here.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/brush.h"
#include "traj/dataset.h"
#include "util/cancel.h"
#include "util/geometry.h"
#include "util/threadpool.h"

namespace svq::core {

/// Per-trajectory digest of a query result — what the analyst "sees" when
/// glancing at a cell: does it light up, in which color, when, for how long.
struct HighlightSummary {
  std::uint32_t trajectoryIndex = 0;
  /// Number of highlighted segments per brush index (size = brush count).
  std::vector<std::uint32_t> segmentsPerBrush;
  /// Total highlighted duration (s) per brush.
  std::vector<float> durationPerBrush;
  /// Time of the first highlighted sample per brush (-1 = never).
  std::vector<float> firstHitTime;
  /// Brush highlighting the trajectory's final segment (kNoBrush if none)
  /// — the "where does the ant end up" signal the Fig. 5 exit-side query
  /// reads off when the analyst narrows the temporal filter to the last
  /// seconds of the experiment.
  std::int8_t lastSegmentBrush = kNoBrush;

  bool anyHighlight() const {
    for (auto n : segmentsPerBrush) {
      if (n > 0) return true;
    }
    return false;
  }
  bool hitByBrush(std::size_t brush) const {
    return brush < segmentsPerBrush.size() && segmentsPerBrush[brush] > 0;
  }
  float highlightedDuration(std::size_t brush) const {
    return brush < durationPerBrush.size() ? durationPerBrush[brush] : 0.0f;
  }
};

/// Full result of evaluating one visual query over a trajectory set.
struct QueryResult {
  /// segmentHighlights[i][s] = brush index highlighting segment s of
  /// trajectory i, or kNoBrush. Sized to trajectory point count - 1.
  std::vector<std::vector<std::int8_t>> segmentHighlights;
  std::vector<HighlightSummary> summaries;
  /// Totals for quick verdicts.
  std::size_t trajectoriesEvaluated = 0;
  std::size_t trajectoriesHighlighted = 0;
  std::size_t totalSegmentsEvaluated = 0;
  std::size_t totalSegmentsHighlighted = 0;
  /// Monotonic stamp set by the incremental engine (0 = one-shot result).
  std::uint64_t generation = 0;
};

/// Engine configuration.
struct QueryParams {
  /// Temporal window [t0, t1]; segments outside are never highlighted.
  Vec2 timeWindow{0.0f, 1e9f};
  /// Optional *relative* window as fractions of each trajectory's own
  /// duration — the way the analyst actually uses the range slider for
  /// exit-side questions ("show the last few seconds of the experiment"),
  /// where trajectories have different lengths. {0.9, 1.0} = final 10%.
  /// Applied in addition to the absolute window when set.
  std::optional<Vec2> relativeWindow;
  /// Number of distinct brushes tracked in summaries.
  std::size_t brushCount = 6;
  /// Evaluate in parallel via the global thread pool.
  bool parallel = true;

  /// The effective absolute window for a trajectory of given duration.
  /// Disjoint absolute/relative windows yield an empty (inverted) window
  /// that matches no segment.
  Vec2 effectiveWindow(float durationS) const {
    Vec2 w = timeWindow;
    if (relativeWindow) {
      w.x = std::max(w.x, relativeWindow->x * durationS);
      w.y = std::min(w.y, relativeWindow->y * durationS);
    }
    return w;
  }
};

/// Lightweight non-owning view of one trajectory to evaluate, tagged with
/// the index reported in its HighlightSummary. This is the unit every
/// query entry point operates on: datasets, cluster averages and single
/// trajectories all become spans of TrajectoryRef.
struct TrajectoryRef {
  const traj::Trajectory* trajectory = nullptr;
  std::uint32_t index = 0;

  const traj::Trajectory& operator*() const { return *trajectory; }
  const traj::Trajectory* operator->() const { return trajectory; }
};

/// Refs for dataset[indices[i]], in `indices` order (e.g. the displayed
/// subset). The dataset must outlive the refs.
std::vector<TrajectoryRef> makeRefs(const traj::TrajectoryDataset& dataset,
                                    std::span<const std::uint32_t> indices);

/// Refs for a plain trajectory array (cluster averages, tests); summary
/// indices are array positions. The array must outlive the refs.
std::vector<TrajectoryRef> makeRefs(
    std::span<const traj::Trajectory> trajectories);

/// Evaluates the brush mask against the referenced trajectories; results
/// are ordered like `trajectories`. The single stateless entry point.
QueryResult evaluate(std::span<const TrajectoryRef> trajectories,
                     const BrushGrid& brush, const QueryParams& params);

/// Evaluates one trajectory through the same code path.
void evaluate(const TrajectoryRef& t, const BrushGrid& brush,
              const QueryParams& params,
              std::vector<std::int8_t>& segmentsOut,
              HighlightSummary& summaryOut);

/// The existence pass: the verdict evaluate() reports for `t` as
/// summaries[0].anyHighlight(), without the per-segment output. It shares
/// evaluate()'s probes, window test and brushCount rule, returns at the
/// first counted in-window segment and allocates nothing (arena scratch
/// only). Serial.
bool anyHighlight(const TrajectoryRef& t, const BrushGrid& brush,
                  const QueryParams& params);

/// Whether a segment classified `brush` counts toward a summary of
/// `brushCount` brushes. kNoBrush never counts, and neither does paint of
/// an index at or past brushCount (indices past 127 read negative).
inline bool countedBrush(std::int8_t brush, std::size_t brushCount) {
  return static_cast<std::size_t>(brush) < brushCount;
}

// --- spatial/temporal factoring -------------------------------------------
// A query's spatial half (which brush covers each segment) is independent
// of the temporal window, and the temporal half (which segments fall in
// the window) is independent of the brush. The incremental engine caches
// the expensive spatial half and re-runs only the cheap temporal mask when
// the analyst drags the range slider.

/// Classifies every segment against the brush, ignoring the temporal
/// window: spatialOut[s] = brush index (or kNoBrush) from the same
/// endpoint+midpoint probes the fused path uses. Also extracts the
/// window-independent last-segment brush.
void classifySpatial(const traj::Trajectory& t, const BrushGrid& brush,
                     std::vector<std::int8_t>& spatialOut,
                     std::int8_t& lastSegmentBrushOut);

/// Cancellable variant: polls `cancel` between the kernel sweeps and per
/// 64Ki-segment merge chunk. Returns false when it stopped early — the
/// outputs are then unspecified and must be discarded (the incremental
/// engine leaves the trajectory marked dirty so the next pass redoes it).
bool classifySpatial(const traj::Trajectory& t, const BrushGrid& brush,
                     std::vector<std::int8_t>& spatialOut,
                     std::int8_t& lastSegmentBrushOut,
                     const util::Cancellation& cancel);

/// Masks a precomputed spatial classification with the temporal window and
/// rebuilds the summary. Equivalent to evaluate() given the same brush.
void applyTemporalMask(const traj::Trajectory& t, std::uint32_t index,
                       std::span<const std::int8_t> spatialHits,
                       std::int8_t lastSegmentBrush,
                       const QueryParams& params,
                       std::vector<std::int8_t>& segmentsOut,
                       HighlightSummary& summaryOut);

}  // namespace svq::core
