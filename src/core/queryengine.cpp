#include "core/queryengine.h"

#include <algorithm>
#include <utility>

#include "util/stopwatch.h"
#include "util/threadpool.h"

namespace svq::core {

QueryEngine::QueryEngine(QueryParams params) : params_(std::move(params)) {
  current_ = std::make_shared<const QueryResult>();
}

void QueryEngine::setTrajectories(std::vector<TrajectoryRef> refs,
                                  const AABB2& frame) {
  refs_ = std::move(refs);
  frame_ = frame;
  cache_.assign(refs_.size(), CacheEntry{});
  for (std::size_t i = 0; i < refs_.size(); ++i) {
    cache_[i].footprint = traj::computeFootprint(*refs_[i], frame_);
  }
  pendingDirtyRects_.clear();
  temporalDirty_ = true;
}

void QueryEngine::setTrajectories(const traj::TrajectoryDataset& dataset,
                                  std::span<const std::uint32_t> indices) {
  setTrajectories(makeRefs(dataset, indices), dataset.arena().bounds());
}

void QueryEngine::setTrajectories(
    std::span<const traj::Trajectory> trajectories, const AABB2& frame) {
  setTrajectories(makeRefs(trajectories), frame);
}

void QueryEngine::setBrush(const BrushGrid* brush) {
  brush_ = brush;
  markAllSpatialDirty();
}

void QueryEngine::markAllSpatialDirty() {
  for (CacheEntry& e : cache_) {
    e.spatialValid = false;
    e.rowDirty = true;
  }
  pendingDirtyRects_.clear();
  temporalDirty_ = true;  // rows must rebuild even if the window is stable
}

void QueryEngine::invalidateRegion(const AABB2& arenaRect) {
  if (!arenaRect.valid()) return;
  pendingDirtyRects_.push_back(arenaRect);
}

void QueryEngine::setParams(const QueryParams& params) {
  const bool temporalChanged =
      params.timeWindow.x != params_.timeWindow.x ||
      params.timeWindow.y != params_.timeWindow.y ||
      params.relativeWindow != params_.relativeWindow ||
      params.brushCount != params_.brushCount;
  params_ = params;
  if (temporalChanged) temporalDirty_ = true;
}

std::shared_ptr<const QueryResult> QueryEngine::current() const {
  std::lock_guard lock(currentMutex_);
  return current_;
}

void QueryEngine::publish(std::shared_ptr<const QueryResult> next) {
  std::lock_guard lock(currentMutex_);
  current_ = std::move(next);
}

std::shared_ptr<const QueryResult> QueryEngine::evaluate() {
  return evaluate(util::Cancellation::none());
}

std::shared_ptr<const QueryResult> QueryEngine::evaluate(
    const util::Cancellation& cancel) {
  // Fold pending dirty rects into per-trajectory invalidation.
  if (brush_ != nullptr && !pendingDirtyRects_.empty()) {
    for (const AABB2& rect : pendingDirtyRects_) {
      const std::uint64_t mask = traj::rectOccupancyMask(rect, frame_);
      for (CacheEntry& e : cache_) {
        if (!e.spatialValid) continue;  // already scheduled for reclassify
        if (traj::footprintMayIntersect(e.footprint, rect, mask)) {
          e.spatialValid = false;
          e.rowDirty = true;
        }
      }
    }
  }
  pendingDirtyRects_.clear();

  // Collect the spatially dirty subset.
  std::vector<std::size_t> dirty;
  if (brush_ != nullptr) {
    for (std::size_t i = 0; i < cache_.size(); ++i) {
      if (!cache_[i].spatialValid) dirty.push_back(i);
    }
  }

  if (dirty.empty() && !temporalDirty_) {
    ++metrics_.cachedPasses;
    return current();
  }

  Stopwatch watch;

  // Pass 1 — spatial re-classification of the dirty subset only. Each
  // task polls the cancellation: a stopped task leaves its entry dirty
  // (spatialValid=false), a completed one keeps its fresh cache either
  // way — abandoning mid-pass never tears an entry.
  if (!dirty.empty()) {
    auto body = [&](std::size_t k) {
      if (cancel.shouldStop()) return;
      const std::size_t i = dirty[k];
      CacheEntry& e = cache_[i];
      if (classifySpatial(*refs_[i], *brush_, e.spatialHits,
                          e.lastSegmentBrush, cancel)) {
        e.spatialValid = true;
      }
    };
    if (params_.parallel && dirty.size() > 1) {
      parallelFor(0, dirty.size(), body, 4);
    } else {
      for (std::size_t k = 0; k < dirty.size(); ++k) body(k);
    }
  }
  if (cancel.shouldStop()) {
    ++metrics_.abandonedPasses;
    return nullptr;
  }

  // Pass 2 — rebuild rows. A temporal change touches every row; a spatial
  // edit touches only rows whose classification changed, the rest are
  // copied from the previous generation (double-buffering: the previous
  // result object is never written to).
  const std::size_t count = refs_.size();
  auto prev = current();
  auto next = std::make_shared<QueryResult>();
  next->segmentHighlights.resize(count);
  next->summaries.resize(count);
  next->trajectoriesEvaluated = count;

  const bool copyRows =
      !temporalDirty_ && prev->segmentHighlights.size() == count;
  auto rowBody = [&](std::size_t i) {
    if (cancel.shouldStop()) return;  // `next` is discarded below
    CacheEntry& e = cache_[i];
    if (copyRows && !e.rowDirty) {
      next->segmentHighlights[i] = prev->segmentHighlights[i];
      next->summaries[i] = prev->summaries[i];
      return;
    }
    if (brush_ == nullptr) {
      // No brush bound: nothing can highlight; emit empty rows.
      const std::size_t nPts = refs_[i]->size();
      next->segmentHighlights[i].assign(nPts >= 2 ? nPts - 1 : 0, kNoBrush);
      HighlightSummary& s = next->summaries[i];
      s = HighlightSummary{};
      s.trajectoryIndex = refs_[i].index;
      s.segmentsPerBrush.assign(params_.brushCount, 0);
      s.durationPerBrush.assign(params_.brushCount, 0.0f);
      s.firstHitTime.assign(params_.brushCount, -1.0f);
      return;
    }
    applyTemporalMask(*refs_[i], refs_[i].index, e.spatialHits,
                      e.lastSegmentBrush, params_, next->segmentHighlights[i],
                      next->summaries[i]);
  };
  if (params_.parallel && count > 1) {
    parallelFor(0, count, rowBody, 8);
  } else {
    for (std::size_t i = 0; i < count; ++i) rowBody(i);
  }
  if (cancel.shouldStop()) {
    // Abandon before publishing: `next` dies here, rowDirty/temporalDirty
    // stay set, generation and current() are untouched — consumers can
    // never observe the partial rebuild.
    ++metrics_.abandonedPasses;
    return nullptr;
  }
  for (CacheEntry& e : cache_) e.rowDirty = false;

  for (std::size_t i = 0; i < count; ++i) {
    const auto& segs = next->segmentHighlights[i];
    next->totalSegmentsEvaluated += segs.size();
    const auto highlighted = static_cast<std::size_t>(
        std::count_if(segs.begin(), segs.end(),
                      [](std::int8_t h) { return h != kNoBrush; }));
    next->totalSegmentsHighlighted += highlighted;
    if (highlighted > 0) ++next->trajectoriesHighlighted;
  }

  next->generation = ++generation_;
  temporalDirty_ = false;

  // Metrics.
  ++metrics_.passes;
  metrics_.lastPassInvalidated = dirty.size();
  metrics_.lastPassReused = count - dirty.size();
  metrics_.lastPassSpatialClassifications = dirty.size();
  metrics_.trajectoriesInvalidated += dirty.size();
  metrics_.trajectoriesReused += count - dirty.size();
  if (dirty.empty()) {
    ++metrics_.temporalOnlyPasses;
  } else {
    ++metrics_.spatialPasses;
  }
  metrics_.lastPassMillis = watch.elapsedMillis();

  std::shared_ptr<const QueryResult> published = std::move(next);
  publish(published);
  return published;
}

}  // namespace svq::core
