// pipeline.h — the scene renderer: dirty-cell-aware and cell-parallel.
//
// The interactive loop of the paper never needs to redraw every cell of
// every eye on every frame: the incremental query engine knows exactly
// which cells' highlights changed, and the wall's layout is static
// between edits. CellRenderPipeline is the one render path of the
// library:
//
//   * per-cell keys — each cell rasterizes into the target through a
//     sub-canvas clipped to its own rect, keyed by content hashes over
//     everything renderCell reads (cellKeys): a body key over the scene
//     state, trajectory, rect, background and highlights, and a full key
//     that folds in the overlay, the label and the coverage strip. A cell
//     whose full key is unchanged since the last frame is skipped
//     outright: its pixels are already in the (persistent) target. A cell
//     whose body key is unchanged repaints only its overlay damage, the
//     union of its old and new label rects and the coverage strip
//     (cellOverlay), through the same renderCell clipped to each rect.
//     That rests on clip invariance — a primitive's pixels inside a clip
//     do not depend on the clip — which every tile of the sort-first wall
//     already relies on. The pipeline keeps keys and overlay rects, not
//     pixels;
//   * one pixel cache — with PipelineOptions::sharedCache set, a cell
//     that must be drawn (changed, or any cell of a recomposite after
//     target damage) is first looked up in the SharedCellCache
//     (render/sharedcache.h) by its full key and blitted on a hit; every
//     rasterized cell, overlay repaints included, is published there.
//     Without one, such cells are rasterized and never copied;
//   * cell-parallel rasterization — dirty cells rasterize concurrently
//     over a ThreadPool. Cells own pairwise-disjoint rects, so concurrent
//     cells never touch the same pixel and the output is bit-identical
//     for any thread count — the same determinism contract the batch SOM
//     trainer makes. Layouts and cluster overviews are disjoint by
//     construction; a scene whose cells overlap inside the canvas is
//     refused (PipelineStats::refused), not drawn;
//   * clipping semantics — a cell's pixels are clipped to its rect, so
//     stereo parallax never shifts a polyline past the cell edge (cells
//     own their pixels — the property that makes skip/blit compositing
//     and race-free parallelism possible).
//
// A full-redraw reference renderer for tests and benches lives in
// tests/support/reference_render.h; it is not part of the library.
//
// Metrics (util/metrics, prefix "render."): cells rasterized / blitted /
// skipped, pixels rasterized (repainted, for an overlay-only cell) /
// blitted — dumped by bench_render.
#pragma once

#include <cstdint>
#include <vector>

#include "render/scene.h"
#include "util/cancel.h"
#include "util/threadpool.h"

namespace svq::render {

class SharedCellCache;

/// Knobs for CellRenderPipeline.
struct PipelineOptions {
  /// Worker pool for cell-parallel rasterization; nullptr = serial.
  /// Output is bit-identical either way.
  ThreadPool* pool = nullptr;
  /// The pixel cache (render/sharedcache.h), or nullptr for none. When
  /// set, every cell that must be drawn is first looked up by content
  /// key — a hit blits pixels this or another pipeline already
  /// rasterized — and freshly rasterized cells are published back. Every
  /// pipeline sharing a cache must render the same dataset on the same
  /// wall (the SharedContext discipline); output is bit-identical with or
  /// without the cache.
  SharedCellCache* sharedCache = nullptr;
};

/// What one render() call did (also mirrored into the global metrics
/// registry under "render.").
struct PipelineStats {
  /// Drawn by renderCell: whole, or only the overlay damage when just
  /// the label or the coverage changed.
  std::size_t cellsRasterized = 0;
  /// Unchanged, restored from the shared cache by a recomposite.
  std::size_t cellsBlitted = 0;
  std::size_t cellsSharedBlitted = 0;  ///< changed, served from shared cache
  std::size_t cellsSkipped = 0;     ///< unchanged, pixels already in target
  std::size_t cellsCulled = 0;      ///< outside the canvas region
  std::uint64_t pixelsRasterized = 0;  ///< pixels renderCell repainted
  std::uint64_t pixelsBlitted = 0;
  std::size_t segmentsDrawn = 0;
  bool fullRecomposite = false;  ///< background + every visible cell redone
  /// Cells overlap inside the canvas: nothing was drawn and the target
  /// keeps its previous pixels. The next disjoint scene recomposites.
  bool refused = false;
  /// A cancellation stopped the render before every dirty cell was
  /// rasterized. The target is incomplete; the pipeline has already
  /// self-invalidated, so the next render() recomposites every visible
  /// cell (from the shared cache where it holds them).
  bool aborted = false;

  std::size_t cellsDrawn() const {
    return cellsRasterized + cellsBlitted + cellsSharedBlitted;
  }
};

/// Incremental renderer for one (target framebuffer, eye) stream.
///
/// The pipeline assumes it renders the *same logical surface* repeatedly:
/// the first render (or any change of target, region, eye, layout or wall
/// background) does a full recomposite; subsequent renders touch only the
/// cells whose content hash changed, and of a cell whose body is
/// unchanged only its overlay rects. Call invalidate() when the target's
/// pixels were damaged externally (e.g. buffer reuse) — the next render
/// recomposites instead of trusting the target: each visible cell is
/// blitted from the shared cache when it holds the cell, else rasterized.
///
/// Not thread-safe per instance; one pipeline per render stream (the
/// cluster app keeps one per owned tile per eye).
class CellRenderPipeline {
 public:
  explicit CellRenderPipeline(PipelineOptions options = {});

  /// Renders `scene` into `canvas` for `eye`, incrementally. `cancel`
  /// (optional) is polled per cell in the rasterize phase: an abandoned
  /// render returns stats.aborted=true with the pipeline self-invalidated
  /// (cells that finished keep their keys; abandoned cells stay dirty and
  /// redo on the next render).
  PipelineStats render(const SceneModel& scene,
                       const traj::TrajectoryDataset& dataset,
                       Canvas canvas, Eye eye,
                       const util::Cancellation* cancel = nullptr);

  /// Marks the target's pixels unreliable; the next render recomposites
  /// every visible cell.
  void invalidate() { targetValid_ = false; }

  const PipelineOptions& options() const { return options_; }

 private:
  struct CellSlot {
    CellKeys keys;
    bool hasKey = false;
    RectI clip;  ///< cell.rect ∩ canvas.region at last render
    /// The overlay rects of the cell whose pixels the target holds.
    CellOverlay overlay;
  };

  void resetLayout(const SceneModel& scene, Canvas canvas);
  bool clipsDisjoint() const;

  PipelineOptions options_;
  std::vector<CellSlot> slots_;
  // Target identity: recomposite when any of these change.
  Framebuffer* targetFb_ = nullptr;
  RectI targetRegion_;
  Eye eye_ = Eye::kCenter;
  Color background_{};
  bool targetValid_ = false;
  bool layoutDisjoint_ = true;
  /// Identity in options_.sharedCache for cross-hit accounting (0 = none).
  std::uint64_t sharedClientId_ = 0;
};

}  // namespace svq::render
