#include "render/pipeline.h"

#include <algorithm>
#include <memory>

#include "render/sharedcache.h"
#include "util/metrics.h"

namespace svq::render {

namespace {

struct PipelineMetrics {
  Counter& cellsRasterized;
  Counter& cellsBlitted;
  Counter& cellsSharedBlitted;
  Counter& cellsSkipped;
  Counter& cellsCulled;
  Counter& pixelsRasterized;
  Counter& pixelsBlitted;
  Counter& fullRecomposites;

  static PipelineMetrics& get() {
    MetricsRegistry& reg = MetricsRegistry::global();
    static PipelineMetrics m{reg.counter("render.cells_rasterized"),
                             reg.counter("render.cells_blitted"),
                             reg.counter("render.cells_shared_blitted"),
                             reg.counter("render.cells_skipped"),
                             reg.counter("render.cells_culled"),
                             reg.counter("render.pixels_rasterized"),
                             reg.counter("render.pixels_blitted"),
                             reg.counter("render.full_recomposites")};
    return m;
  }
};

/// The smallest rect holding both; an empty rect holds nothing.
RectI hull(const RectI& a, const RectI& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  const int x0 = std::min(a.x, b.x);
  const int y0 = std::min(a.y, b.y);
  const int x1 = std::max(a.x + a.w, b.x + b.w);
  const int y1 = std::max(a.y + a.h, b.y + b.h);
  return {x0, y0, x1 - x0, y1 - y0};
}

}  // namespace

CellRenderPipeline::CellRenderPipeline(PipelineOptions options)
    : options_(options) {
  if (options_.sharedCache != nullptr) {
    sharedClientId_ = options_.sharedCache->registerClient();
  }
}

bool CellRenderPipeline::clipsDisjoint() const {
  // O(n^2) pairwise check over non-empty clips; layouts are a few hundred
  // cells and this runs only when the layout changes. Clips, not rects:
  // cells that overlap only outside the canvas never share a pixel here,
  // and the flag then changes exactly when the layout key does.
  const std::size_t n = slots_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const RectI& a = slots_[i].clip;
    if (a.empty()) continue;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (a.intersects(slots_[j].clip)) return false;
    }
  }
  return true;
}

void CellRenderPipeline::resetLayout(const SceneModel& scene,
                                     Canvas canvas) {
  slots_.assign(scene.cells.size(), CellSlot{});
  const RectI bounds = canvas.clipRect();
  for (std::size_t i = 0; i < scene.cells.size(); ++i) {
    slots_[i].clip = scene.cells[i].rect.clipped(bounds);
  }
  layoutDisjoint_ = clipsDisjoint();
}

PipelineStats CellRenderPipeline::render(const SceneModel& scene,
                                         const traj::TrajectoryDataset& dataset,
                                         Canvas canvas, Eye eye,
                                         const util::Cancellation* cancel) {
  PipelineStats stats;
  PipelineMetrics& metrics = PipelineMetrics::get();
  if (cancel != nullptr && cancel->shouldStop()) {
    // Abandoned before any pixel moved: nothing to roll back, nothing to
    // invalidate — the previous frame is still intact in the target.
    stats.aborted = true;
    return stats;
  }

  // Fold the eye into the key: a cached left-eye cell must never be
  // blitted into a right-eye render of the same scene.
  const std::uint64_t sceneHash =
      sceneStateHash(scene) ^
      (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(eye) + 1));

  // Layout change = any cell's clipped rect moved, or the cell count
  // changed. A moved cell leaves stale pixels at its old location that no
  // per-cell repaint covers, so the whole target recomposites.
  bool layoutChanged = slots_.size() != scene.cells.size();
  if (!layoutChanged) {
    const RectI bounds = canvas.clipRect();
    for (std::size_t i = 0; i < scene.cells.size(); ++i) {
      if (slots_[i].clip != scene.cells[i].rect.clipped(bounds)) {
        layoutChanged = true;
        break;
      }
    }
  }
  if (layoutChanged) resetLayout(scene, canvas);

  if (!layoutDisjoint_) {
    // Overlapping cells depend on painter's order; incremental skip and
    // parallel rasterization are both unsound. Draw nothing, and distrust
    // the target so the next disjoint scene recomposites.
    stats.refused = true;
    targetValid_ = false;
    return stats;
  }

  const bool targetChanged = targetFb_ != canvas.fb ||
                             targetRegion_ != canvas.region || eye_ != eye ||
                             background_ != scene.wallBackground;
  const bool recomposite = targetChanged || layoutChanged || !targetValid_;
  stats.fullRecomposite = recomposite;
  if (recomposite) metrics.fullRecomposites.add(1);

  if (recomposite) {
    fillRect(canvas, canvas.clipRect(), scene.wallBackground);
  }

  // Classify every cell: culled / skip / blit from the shared cache /
  // repaint its overlay / rasterize. Only visible cells are keyed: a
  // culled slot's key is never read, because a clip change resets it.
  struct Work {
    std::size_t cell;
    CellKeys keys;
    CellOverlay overlay;
    /// Overlay-only: the rects to repaint, within the slot's clip.
    /// Otherwise the whole cell is drawn.
    bool overlayOnly = false;
    RectI damage[2];
  };
  std::vector<Work> toRasterize;
  for (std::size_t i = 0; i < scene.cells.size(); ++i) {
    CellSlot& slot = slots_[i];
    if (slot.clip.empty()) {
      ++stats.cellsCulled;
      continue;
    }
    const CellView& cell = scene.cells[i];
    const CellKeys keys = cellKeys(cell, sceneHash);
    const bool unchanged = slot.hasKey && slot.keys.full == keys.full;
    if (unchanged && !recomposite) {
      ++stats.cellsSkipped;
      continue;
    }
    const CellOverlay overlay = cellOverlay(cell);
    // Changed, or redrawn by a recomposite. A pipeline sharing the cache
    // (this one included) may already have rasterized this exact cell —
    // the key covers everything renderCell reads, so a dimension-matched
    // hit is pixel-identical by construction.
    if (options_.sharedCache != nullptr) {
      if (auto shared = options_.sharedCache->find(
              keys.full, slot.clip.w, slot.clip.h, sharedClientId_)) {
        canvas.blitRows(*shared, 0, 0, slot.clip);
        ++(unchanged ? stats.cellsBlitted : stats.cellsSharedBlitted);
        stats.pixelsBlitted += static_cast<std::uint64_t>(slot.clip.areaPx());
        slot.keys = keys;
        slot.overlay = overlay;
        slot.hasKey = true;
        continue;
      }
    }
    Work work{i, keys, overlay, false, {}};
    if (!recomposite && slot.hasKey && slot.keys.body == keys.body) {
      // Only the label or the coverage moved: every other pixel of the
      // cell is already right. Repaint what the old or the new label
      // covers, and the strip when either draws one (its track depends
      // only on the rect, which the body key covers).
      work.overlayOnly = true;
      work.damage[0] =
          hull(slot.overlay.label, overlay.label).clipped(slot.clip);
      work.damage[1] =
          hull(slot.overlay.strip, overlay.strip).clipped(slot.clip);
    }
    toRasterize.push_back(work);
  }

  // Rasterize dirty cells. Cells own disjoint clips (checked at layout
  // reset), so concurrent sub-canvas writes never touch the same pixel and
  // output is bit-identical for any thread count.
  std::vector<std::size_t> segments(toRasterize.size(), 0);
  // Chunk-granular cancellation: the unit of abandonment is one cell. A
  // cell either rasterizes completely (key updated, pixels published) or
  // not at all (slot untouched, stays dirty) — never half a cell.
  std::vector<std::uint8_t> rasterized(toRasterize.size(), 0);
  auto rasterizeOne = [&](std::size_t w) {
    if (cancel != nullptr && cancel->shouldStop()) return;
    const Work& work = toRasterize[w];
    const CellView& cell = scene.cells[work.cell];
    CellSlot& slot = slots_[work.cell];
    RenderStats cellStats;
    if (work.overlayOnly) {
      // The same renderCell, clipped to each damage rect: by clip
      // invariance its pixels there equal a whole-cell render's.
      for (const RectI& damage : work.damage) {
        if (damage.empty()) continue;
        renderCell(scene, cell, dataset, canvas.subCanvas(damage), eye,
                   cellStats);
      }
    } else {
      renderCell(scene, cell, dataset, canvas.subCanvas(cell.rect), eye,
                 cellStats);
    }
    segments[w] = cellStats.segmentsDrawn;
    if (options_.sharedCache != nullptr) {
      // Publish a snapshot of the cell's pixels; the cache owns it. Only
      // a published cell is ever copied out of the target.
      auto snap = std::make_shared<Framebuffer>(slot.clip.w, slot.clip.h);
      snap->copyRect(*canvas.fb,
                     RectI{slot.clip.x - canvas.region.x,
                           slot.clip.y - canvas.region.y, slot.clip.w,
                           slot.clip.h},
                     0, 0);
      options_.sharedCache->insert(work.keys.full, std::move(snap),
                                   sharedClientId_);
    }
    slot.keys = work.keys;
    slot.overlay = work.overlay;
    slot.hasKey = true;
    rasterized[w] = 1;
  };
  if (options_.pool != nullptr && !options_.pool->onWorkerThread() &&
      toRasterize.size() > 1) {
    options_.pool->parallelFor(0, toRasterize.size(), rasterizeOne);
  } else {
    for (std::size_t w = 0; w < toRasterize.size(); ++w) rasterizeOne(w);
  }
  for (const std::size_t s : segments) stats.segmentsDrawn += s;
  for (std::size_t w = 0; w < toRasterize.size(); ++w) {
    if (!rasterized[w]) {
      stats.aborted = true;
      continue;
    }
    const Work& work = toRasterize[w];
    ++stats.cellsRasterized;
    stats.pixelsRasterized += static_cast<std::uint64_t>(
        work.overlayOnly
            ? work.damage[0].areaPx() + work.damage[1].areaPx() -
                  work.damage[0].clipped(work.damage[1]).areaPx()
            : slots_[work.cell].clip.areaPx());
  }

  metrics.cellsRasterized.add(stats.cellsRasterized);
  metrics.cellsBlitted.add(stats.cellsBlitted);
  metrics.cellsSharedBlitted.add(stats.cellsSharedBlitted);
  metrics.cellsSkipped.add(stats.cellsSkipped);
  metrics.cellsCulled.add(stats.cellsCulled);
  metrics.pixelsRasterized.add(stats.pixelsRasterized);
  metrics.pixelsBlitted.add(stats.pixelsBlitted);

  targetFb_ = canvas.fb;
  targetRegion_ = canvas.region;
  eye_ = eye;
  background_ = scene.wallBackground;
  // An aborted render leaves the target missing the abandoned cells:
  // self-invalidate so the next render recomposites instead of trusting it.
  targetValid_ = !stats.aborted;
  return stats;
}

}  // namespace svq::render
