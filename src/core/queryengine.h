// queryengine.h — stateful, incremental visual-query evaluation.
//
// The stateless core/query.h surface recomputes every trajectory's full
// segment classification on every call. That is fine for batch analysis,
// but the interactive loop of the paper (§IV.C.2, §VI.C) hammers the same
// trajectory set with a stream of *small deltas*: one more brush dab, one
// notch of the temporal range slider. QueryEngine keeps the query state
// per trajectory and re-evaluates only what a delta actually touched:
//
//   * dirty-region invalidation — brush edits report the arena-space rect
//     they touched (BrushGrid/BrushCanvas return it); the engine
//     re-classifies only trajectories whose precomputed spatial footprint
//     (AABB + coarse occupancy bitmask, traj/spatialindex.h) intersects
//     that rect;
//   * spatial/temporal factoring — per-segment brush hits are cached
//     separately from the temporal mask, so a time-window change (the
//     most frequent interaction) is a cheap re-mask pass with ZERO calls
//     into the brush grid;
//   * parallel incremental passes — the dirty subset is re-classified via
//     the shared ThreadPool;
//   * double-buffered result generations — evaluate() publishes a new
//     immutable QueryResult behind a shared_ptr; render/wall consumers
//     holding the previous generation never observe a half-updated one.
//
// Built-in metrics expose exactly what the invalidation machinery did
// (trajectories invalidated vs. reused, cache hit rate, per-pass latency)
// so benches and tests can verify the incremental contract.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/brush.h"
#include "core/query.h"
#include "traj/spatialindex.h"
#include "util/geometry.h"

namespace svq::core {

/// Counters describing the engine's incremental behaviour. Cumulative
/// counters run since construction / resetMetrics(); lastPass* describe
/// the most recent evaluate() that produced a new generation.
struct QueryEngineMetrics {
  /// evaluate() calls that produced a new result generation.
  std::uint64_t passes = 0;
  /// evaluate() calls answered entirely from cache (no new generation).
  std::uint64_t cachedPasses = 0;
  /// Trajectories whose spatial classification was recomputed.
  std::uint64_t trajectoriesInvalidated = 0;
  /// Trajectories whose cached spatial classification was reused.
  std::uint64_t trajectoriesReused = 0;
  /// Passes that touched the brush grid at all.
  std::uint64_t spatialPasses = 0;
  /// Passes that only re-masked the temporal window.
  std::uint64_t temporalOnlyPasses = 0;
  /// evaluate() calls abandoned by cancellation/deadline before they
  /// published: no generation was produced, dirty state was preserved.
  std::uint64_t abandonedPasses = 0;

  std::uint64_t lastPassInvalidated = 0;
  std::uint64_t lastPassReused = 0;
  /// Spatial re-classifications in the last pass; 0 proves a
  /// temporal-window-only change did no spatial work.
  std::uint64_t lastPassSpatialClassifications = 0;
  double lastPassMillis = 0.0;

  /// Fraction of per-trajectory evaluations served from the spatial cache.
  double cacheHitRate() const {
    const std::uint64_t total = trajectoriesInvalidated + trajectoriesReused;
    return total == 0 ? 0.0
                      : static_cast<double>(trajectoriesReused) /
                            static_cast<double>(total);
  }
};

/// Incremental evaluator for one trajectory set x one brush grid.
///
/// Ownership: trajectories and the brush grid are borrowed and must
/// outlive the engine (or be re-bound before the next evaluate()).
/// Thread-safety: mutation (set*/invalidate*/evaluate) is single-threaded;
/// current()/generation() may be called concurrently from consumers.
class QueryEngine {
 public:
  explicit QueryEngine(QueryParams params = {});

  // --- binding ------------------------------------------------------------
  /// Binds the trajectory set; `frame` is the arena-space reference frame
  /// for the spatial footprints (normally the brush grid's bounds).
  /// Drops all cached state.
  void setTrajectories(std::vector<TrajectoryRef> refs, const AABB2& frame);
  /// Convenience: dataset subset, framed by the dataset's arena bounds.
  void setTrajectories(const traj::TrajectoryDataset& dataset,
                       std::span<const std::uint32_t> indices);
  /// Convenience: plain trajectory array (cluster averages, tests).
  void setTrajectories(std::span<const traj::Trajectory> trajectories,
                       const AABB2& frame);

  /// Binds the brush grid (borrowed; nullptr = query nothing). Marks every
  /// trajectory spatially dirty — use invalidateRegion() for edits to an
  /// already-bound grid.
  void setBrush(const BrushGrid* brush);
  const BrushGrid* brush() const { return brush_; }

  // --- delta notifications ------------------------------------------------
  /// Reports an arena-space region whose paint changed (the rect returned
  /// by BrushGrid::paint / BrushCanvas::addStroke / BrushCanvas::clear).
  /// Invalid rects are ignored (a no-op edit dirties nothing).
  void invalidateRegion(const AABB2& arenaRect);

  /// Updates the query parameters. A change that only moves the temporal
  /// window (absolute or relative) triggers a pure re-mask pass; spatial
  /// caches stay valid. Never causes spatial work.
  void setParams(const QueryParams& params);
  const QueryParams& params() const { return params_; }

  // --- evaluation -----------------------------------------------------------
  /// Re-evaluates incrementally and publishes a new immutable generation
  /// (or returns the current one unchanged when nothing is dirty). The
  /// returned result is never mutated afterwards.
  std::shared_ptr<const QueryResult> evaluate();

  /// Cancellable variant, polled at chunk granularity (per dirty
  /// trajectory in the spatial pass, per row in the rebuild pass, per
  /// segment chunk inside classifySpatial). Returns nullptr when the
  /// pass was abandoned — and then guarantees the engine is never torn:
  ///
  ///   * the partially built result is discarded, current()/generation()
  ///     are exactly what they were before the call;
  ///   * every trajectory whose re-classification did not complete stays
  ///     marked dirty (spatialValid=false / rowDirty=true), so the next
  ///     evaluate() resumes the same work;
  ///   * trajectories that did complete keep their fresh spatial cache —
  ///     abandoned work is discarded, finished work is not wasted.
  std::shared_ptr<const QueryResult> evaluate(
      const util::Cancellation& cancel);

  /// Latest published generation; an empty result before the first pass.
  std::shared_ptr<const QueryResult> current() const;

  /// Monotonic generation counter (0 before the first pass).
  std::uint64_t generation() const { return generation_; }

  std::size_t trajectoryCount() const { return refs_.size(); }

  const QueryEngineMetrics& metrics() const { return metrics_; }
  void resetMetrics() { metrics_ = QueryEngineMetrics{}; }

 private:
  struct CacheEntry {
    std::vector<std::int8_t> spatialHits;  ///< per-segment brush, no window
    traj::SpatialFootprint footprint;
    std::int8_t lastSegmentBrush = kNoBrush;
    bool spatialValid = false;  ///< spatialHits matches the bound brush
    bool rowDirty = true;       ///< published row needs rebuilding
  };

  void publish(std::shared_ptr<const QueryResult> next);
  void markAllSpatialDirty();

  QueryParams params_;
  const BrushGrid* brush_ = nullptr;
  std::vector<TrajectoryRef> refs_;
  AABB2 frame_;
  std::vector<CacheEntry> cache_;
  std::vector<AABB2> pendingDirtyRects_;
  bool temporalDirty_ = true;

  mutable std::mutex currentMutex_;
  std::shared_ptr<const QueryResult> current_;
  std::uint64_t generation_ = 0;
  QueryEngineMetrics metrics_;
};

}  // namespace svq::core
