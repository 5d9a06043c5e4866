// Tests for render/pipeline.h — the dirty-cell incremental renderer: cell
// keying, skip/blit/rasterize classification, overlay-only repaints,
// restores through the shared pixel cache, overlap refusal, and the
// determinism contracts (parallel == serial, cached == cold) that the
// cluster renderer and benches rely on.
#include "render/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reference_render.h"
#include "render/sharedcache.h"
#include "traj/synth.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace svq::render {
namespace {

traj::TrajectoryDataset makeDataset(std::size_t n = 12) {
  traj::AntSimulator sim({}, 909);
  traj::DatasetSpec spec;
  spec.count = n;
  return sim.generate(spec);
}

/// Grid of disjoint cells with per-segment highlights, stereo on.
SceneModel makeScene(const traj::TrajectoryDataset& ds, int cols = 4,
                     int rows = 2, int cellW = 60, int cellH = 40) {
  SceneModel scene;
  scene.arenaRadiusCm = ds.arena().radiusCm;
  for (int cy = 0; cy < rows; ++cy) {
    for (int cx = 0; cx < cols; ++cx) {
      const int i = cy * cols + cx;
      CellView cell;
      cell.trajectoryIndex = static_cast<std::uint32_t>(i % ds.size());
      cell.rect = {cx * cellW, cy * cellH, cellW, cellH};
      cell.background = groupBackground(static_cast<std::size_t>(i % 3));
      cell.label = std::to_string(i);
      cell.label.insert(0, 1, 'C');
      scene.cells.push_back(cell);
    }
  }
  return scene;
}

/// Simulates a brush edit: changes the highlights of one cell.
void dabCell(SceneModel& scene, std::size_t cell, std::int8_t brush) {
  auto& hl = scene.cells[cell].segmentHighlights;
  hl.assign(40, static_cast<std::int8_t>(-1));
  for (std::size_t s = 10; s < 20; ++s) hl[s] = brush;
}

Framebuffer coldRender(const SceneModel& scene,
                       const traj::TrajectoryDataset& ds, int w, int h,
                       Eye eye) {
  Framebuffer fb(w, h);
  CellRenderPipeline pipeline;
  pipeline.render(scene, ds, Canvas::whole(fb), eye);
  return fb;
}

TEST(PipelineTest, ColdMatchesLegacyWhenNothingSpills) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds);
  // Centre eye: no parallax shift, so the reference renderer's output
  // stays inside each cell's rect and the pipeline's cell clipping is
  // invisible.
  Framebuffer reference(240, 80);
  renderScene(scene, ds, Canvas::whole(reference), Eye::kCenter);
  const Framebuffer pipelined = coldRender(scene, ds, 240, 80, Eye::kCenter);
  EXPECT_EQ(pipelined.contentHash(), reference.contentHash());
}

TEST(PipelineTest, SecondIdenticalFrameSkipsEverything) {
  const auto ds = makeDataset();
  const SceneModel scene = makeScene(ds);
  Framebuffer fb(240, 80);
  CellRenderPipeline pipeline;
  const PipelineStats first =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_TRUE(first.fullRecomposite);
  EXPECT_EQ(first.cellsRasterized, scene.cells.size());

  const std::uint64_t hash = fb.contentHash();
  const PipelineStats second =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_FALSE(second.fullRecomposite);
  EXPECT_EQ(second.cellsRasterized, 0u);
  EXPECT_EQ(second.cellsSkipped, scene.cells.size());
  EXPECT_EQ(second.pixelsRasterized, 0u);
  EXPECT_EQ(fb.contentHash(), hash);
}

TEST(PipelineTest, DirtyCellOnlyRasterizedAndMatchesCold) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds);
  Framebuffer fb(240, 80);
  CellRenderPipeline pipeline;
  pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);

  dabCell(scene, 3, 0);
  const PipelineStats stats =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_EQ(stats.cellsRasterized, 1u);
  EXPECT_EQ(stats.cellsSkipped, scene.cells.size() - 1);
  EXPECT_EQ(fb.contentHash(),
            coldRender(scene, ds, 240, 80, Eye::kLeft).contentHash());
}

TEST(PipelineTest, QueryGenerationChangeAloneDirtiesNothing) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds);
  Framebuffer fb(240, 80);
  CellRenderPipeline pipeline;
  pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  scene.queryGeneration += 7;  // identifies the source, not the pixels
  const PipelineStats stats =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_EQ(stats.cellsRasterized, 0u);
}

TEST(PipelineTest, SceneWideChangeDirtiesEveryCell) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds);
  Framebuffer fb(240, 80);
  CellRenderPipeline pipeline;
  pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  scene.timeWindow = {5.0f, 60.0f};
  const PipelineStats stats =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_EQ(stats.cellsRasterized, scene.cells.size());
  EXPECT_EQ(fb.contentHash(),
            coldRender(scene, ds, 240, 80, Eye::kLeft).contentHash());
}

TEST(PipelineTest, ParallelBitIdenticalToSerial) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds, 6, 4, 40, 30);
  const Framebuffer serialCold = coldRender(scene, ds, 240, 120, Eye::kLeft);

  for (unsigned threads : {1u, 4u, 8u}) {
    ThreadPool pool(threads);
    PipelineOptions options;
    options.pool = &pool;
    Framebuffer fb(240, 120);
    CellRenderPipeline pipeline(options);
    pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
    EXPECT_EQ(fb.contentHash(), serialCold.contentHash())
        << threads << " threads, cold";

    // Incremental dab edit must also match, at every thread count.
    SceneModel edited = scene;
    dabCell(edited, 7, 1);
    dabCell(edited, 12, 0);
    pipeline.render(edited, ds, Canvas::whole(fb), Eye::kLeft);
    EXPECT_EQ(fb.contentHash(),
              coldRender(edited, ds, 240, 120, Eye::kLeft).contentHash())
        << threads << " threads, incremental";
  }
}

TEST(PipelineTest, NoCacheRecompositeRasterizesEveryVisibleCell) {
  const auto ds = makeDataset();
  const SceneModel scene = makeScene(ds);
  Framebuffer fb(240, 80);
  CellRenderPipeline pipeline;
  pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  const std::uint64_t hash = fb.contentHash();

  // Without a pixel cache, target damage is repaired by rasterizing.
  fb.clear(colors::kRed);
  pipeline.invalidate();
  const PipelineStats restore =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_TRUE(restore.fullRecomposite);
  EXPECT_EQ(restore.cellsRasterized, scene.cells.size());
  EXPECT_EQ(restore.cellsBlitted, 0u);
  EXPECT_EQ(restore.cellsSharedBlitted, 0u);
  EXPECT_EQ(restore.pixelsBlitted, 0u);
  EXPECT_EQ(fb.contentHash(), hash);

  // Keys survive the recomposite: the next frame skips every cell.
  const PipelineStats steady =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_EQ(steady.cellsSkipped, scene.cells.size());
  EXPECT_EQ(steady.cellsRasterized, 0u);
  EXPECT_EQ(fb.contentHash(), hash);
}

TEST(PipelineTest, InvalidateRestoresFromCacheBitIdentical) {
  const auto ds = makeDataset();
  const SceneModel scene = makeScene(ds);
  SharedCellCache cache;
  PipelineOptions options;
  options.sharedCache = &cache;
  Framebuffer fb(240, 80);
  CellRenderPipeline pipeline(options);
  pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  const std::uint64_t hash = fb.contentHash();

  fb.clear(colors::kRed);  // external damage
  pipeline.invalidate();
  const PipelineStats stats =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_TRUE(stats.fullRecomposite);
  // Unchanged cells restored from the cache count as cellsBlitted only,
  // never also as shared blits of changed cells.
  EXPECT_EQ(stats.cellsBlitted, scene.cells.size());
  EXPECT_EQ(stats.cellsSharedBlitted, 0u);
  EXPECT_EQ(stats.cellsRasterized, 0u);
  EXPECT_EQ(stats.pixelsBlitted, 240u * 80u);
  EXPECT_EQ(fb.contentHash(), hash);
}

TEST(PipelineTest, TinyBudgetCachesSomeCellsAndStaysCorrect) {
  const auto ds = makeDataset();
  const SceneModel scene = makeScene(ds);
  // Room for two 60x40 RGBA cells.
  SharedCellCache cache(2 * 60 * 40 * 4 + 64);
  PipelineOptions options;
  options.sharedCache = &cache;
  Framebuffer fb(240, 80);
  CellRenderPipeline pipeline(options);
  pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_EQ(cache.entries(), 2u);
  const std::uint64_t hash = fb.contentHash();

  fb.clear(colors::kRed);
  pipeline.invalidate();
  const PipelineStats restore =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_GT(restore.cellsBlitted, 0u);
  EXPECT_GT(restore.cellsRasterized, 0u);
  EXPECT_EQ(restore.cellsBlitted + restore.cellsRasterized,
            scene.cells.size());
  EXPECT_EQ(fb.contentHash(), hash);
}

TEST(PipelineTest, SharedCacheInsertsEveryRasterizedCell) {
  const auto ds = makeDataset();
  const SceneModel scene = makeScene(ds, 6, 4, 40, 30);
  SceneModel edited = scene;
  dabCell(edited, 7, 1);
  dabCell(edited, 12, 0);
  SceneModel rewindowed = edited;
  rewindowed.timeWindow = {5.0f, 60.0f};

  for (unsigned threads : {1u, 4u, 8u}) {
    ThreadPool pool(threads);
    SharedCellCache cache;
    PipelineOptions options;
    options.pool = &pool;
    options.sharedCache = &cache;
    Framebuffer fb(240, 120);
    CellRenderPipeline pipeline(options);
    auto check = [&](const SceneModel& frame, const char* step) {
      const std::uint64_t before = cache.stats().inserts;
      const PipelineStats stats =
          pipeline.render(frame, ds, Canvas::whole(fb), Eye::kLeft);
      EXPECT_EQ(cache.stats().inserts - before, stats.cellsRasterized)
          << threads << " threads, " << step;
      EXPECT_EQ(fb.contentHash(),
                coldRender(frame, ds, 240, 120, Eye::kLeft).contentHash())
          << threads << " threads, " << step;
      return stats.cellsRasterized;
    };
    EXPECT_EQ(check(scene, "cold"), scene.cells.size());
    EXPECT_EQ(check(edited, "dab"), 2u);
    fb.clear(colors::kRed);
    pipeline.invalidate();
    EXPECT_EQ(check(edited, "restore"), 0u);
    EXPECT_EQ(check(rewindowed, "window"), scene.cells.size());
  }
}

TEST(PipelineTest, OverlappingCellsAreRefused) {
  const auto ds = makeDataset();
  const SceneModel disjoint = makeScene(ds, 2, 1, 60, 40);
  SceneModel overlapping = disjoint;
  overlapping.cells[1].rect = {30, 0, 60, 40};  // overlaps cell 0
  SceneModel next = disjoint;
  dabCell(next, 1, 0);
  const std::uint64_t want =
      coldRender(next, ds, 120, 40, Eye::kLeft).contentHash();

  for (unsigned threads : {0u, 4u, 8u}) {
    std::unique_ptr<ThreadPool> pool;
    PipelineOptions options;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      options.pool = pool.get();
    }
    Framebuffer fb(120, 40);
    CellRenderPipeline pipeline(options);
    pipeline.render(disjoint, ds, Canvas::whole(fb), Eye::kLeft);
    const std::uint64_t before = fb.contentHash();

    // Every frame is refused while the overlap persists: nothing is drawn.
    for (int frame = 0; frame < 2; ++frame) {
      const PipelineStats stats =
          pipeline.render(overlapping, ds, Canvas::whole(fb), Eye::kLeft);
      EXPECT_TRUE(stats.refused) << threads << " threads";
      EXPECT_EQ(stats.cellsDrawn(), 0u) << threads << " threads";
      EXPECT_EQ(fb.contentHash(), before) << threads << " threads";
    }

    // The next disjoint scene recomposites to the cold render.
    const PipelineStats stats =
        pipeline.render(next, ds, Canvas::whole(fb), Eye::kLeft);
    EXPECT_FALSE(stats.refused) << threads << " threads";
    EXPECT_TRUE(stats.fullRecomposite) << threads << " threads";
    EXPECT_EQ(fb.contentHash(), want) << threads << " threads";
  }
}

TEST(PipelineTest, ZeroAreaAndOffTargetCellsAreCulled) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds, 2, 1, 60, 40);
  CellView zeroArea;
  zeroArea.trajectoryIndex = 0;
  zeroArea.rect = {10, 10, 0, 0};
  scene.cells.push_back(zeroArea);
  CellView offTarget;
  offTarget.trajectoryIndex = 1;
  offTarget.rect = {500, 500, 60, 40};
  scene.cells.push_back(offTarget);
  // Overlaps offTarget, but only outside the canvas: no pixel is shared
  // here, so the scene is drawn, not refused.
  offTarget.rect = {520, 500, 60, 40};
  scene.cells.push_back(offTarget);

  Framebuffer fb(120, 40);
  CellRenderPipeline pipeline;
  const PipelineStats stats =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_FALSE(stats.refused);
  EXPECT_EQ(stats.cellsCulled, 3u);
  EXPECT_EQ(stats.cellsRasterized, 2u);
}

TEST(PipelineTest, TilePartitionMatchesFullRender) {
  const auto ds = makeDataset();
  // Cells straddle the 120px tile border (cells are 50 wide at x=0,50,100…).
  SceneModel scene = makeScene(ds, 4, 2, 50, 40);
  const Framebuffer full = coldRender(scene, ds, 240, 80, Eye::kLeft);

  Framebuffer tile(120, 80);
  CellRenderPipeline pipeline;
  pipeline.render(scene, ds, Canvas{&tile, {120, 0, 120, 80}, {}}, Eye::kLeft);
  for (int y = 0; y < 80; ++y) {
    for (int x = 0; x < 120; ++x) {
      ASSERT_EQ(tile.at(x, y), full.at(120 + x, y))
          << "tile pixel (" << x << "," << y << ")";
    }
  }

  // The same pipeline panned to the left tile: cells culled a frame ago
  // come into view and the straddling cell's clip shrinks, so no key or
  // pixels cached for the old region may be reused.
  pipeline.render(scene, ds, Canvas{&tile, {0, 0, 120, 80}, {}}, Eye::kLeft);
  for (int y = 0; y < 80; ++y) {
    for (int x = 0; x < 120; ++x) {
      ASSERT_EQ(tile.at(x, y), full.at(x, y))
          << "panned tile pixel (" << x << "," << y << ")";
    }
  }
}

TEST(PipelineTest, LayoutChangeForcesRecomposite) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds);
  Framebuffer fb(240, 80);
  CellRenderPipeline pipeline;
  pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);

  // Swap two cells' rects: the old pixels must not survive anywhere.
  std::swap(scene.cells[0].rect, scene.cells[7].rect);
  const PipelineStats stats =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_TRUE(stats.fullRecomposite);
  EXPECT_EQ(fb.contentHash(),
            coldRender(scene, ds, 240, 80, Eye::kLeft).contentHash());
}

TEST(PipelineTest, CancelledRenderAbortsAndNextFrameIsBitIdentical) {
  const auto ds = makeDataset();
  const SceneModel scene = makeScene(ds);
  Framebuffer fb(240, 80);
  CellRenderPipeline pipeline;

  // A pre-fired token: the render must abort (possibly mid-cell-loop),
  // report it, and self-invalidate so nothing half-drawn is ever trusted.
  util::CancelToken token;
  token.requestCancel();
  const util::Cancellation cancel(&token);
  const PipelineStats aborted =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft, &cancel);
  EXPECT_TRUE(aborted.aborted);

  // The next uncancelled render recomposites and matches a cold render
  // bit for bit — the abort left no torn pixels behind.
  const PipelineStats stats =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_FALSE(stats.aborted);
  EXPECT_TRUE(stats.fullRecomposite);
  EXPECT_EQ(fb.contentHash(),
            coldRender(scene, ds, 240, 80, Eye::kLeft).contentHash());
}

TEST(PipelineTest, DeadlineAbortKeepsIncrementalStateConsistent) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds);
  Framebuffer fb(240, 80);
  CellRenderPipeline pipeline;
  pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);

  // Dirty one cell, then abort the incremental frame with an
  // already-expired deadline (manual clock: deterministic expiry).
  dabCell(scene, 3, 0);
  util::ManualClock clock;
  const util::Cancellation cancel(util::Deadline::after(0, &clock));
  const PipelineStats aborted =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft, &cancel);
  EXPECT_TRUE(aborted.aborted);

  // The retry must converge to the cold truth for the *edited* scene —
  // the abort may not have left the old cell's pixels marked clean.
  pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  EXPECT_EQ(fb.contentHash(),
            coldRender(scene, ds, 240, 80, Eye::kLeft).contentHash());

  // And a null cancellation means no overhead path surprises: steady
  // frames still skip everything.
  const PipelineStats steady =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft, nullptr);
  EXPECT_EQ(steady.cellsRasterized, 0u);
  EXPECT_EQ(steady.cellsSkipped, scene.cells.size());
}

TEST(PipelineTest, EyeChangeRecomposites) {
  const auto ds = makeDataset();
  const SceneModel scene = makeScene(ds);
  Framebuffer fb(240, 80);
  CellRenderPipeline pipeline;
  pipeline.render(scene, ds, Canvas::whole(fb), Eye::kLeft);
  const PipelineStats stats =
      pipeline.render(scene, ds, Canvas::whole(fb), Eye::kRight);
  EXPECT_TRUE(stats.fullRecomposite);
  EXPECT_EQ(fb.contentHash(),
            coldRender(scene, ds, 240, 80, Eye::kRight).contentHash());
}

// --- overlay-only repaints ----------------------------------------------------
// A cell whose body key is unchanged repaints only the union of its old
// and new label rects and its coverage strip. One long-lived pipeline
// per target runs seeded edit sequences; after every frame the target
// must equal a cold render, and the stats must count exactly the
// repainted pixels.

/// A clock that advances one microsecond per read: a Deadline::after(n)
/// on it expires after n polls, so a render stops part-way.
class CountingClock final : public util::Clock {
 public:
  std::int64_t nowUs() const override { return ++now_; }

 private:
  mutable std::atomic<std::int64_t> now_{0};
};

/// The smallest rect holding both; an empty rect holds nothing.
RectI hull(const RectI& a, const RectI& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  const int x0 = std::min(a.x, b.x);
  const int y0 = std::min(a.y, b.y);
  return {x0, y0, std::max(a.x + a.w, b.x + b.w) - x0,
          std::max(a.y + a.h, b.y + b.h) - y0};
}

/// What one render of `scene` must rasterize over `region`, given the
/// scene whose pixels the target holds (none: a recomposite).
struct ExpectedRaster {
  std::size_t cells = 0;         ///< drawn: changed, or every visible cell
  std::size_t overlayCells = 0;  ///< of them, body unchanged
  std::uint64_t pixels = 0;      ///< whole clips plus overlay damage
  std::uint64_t overlayPixels = 0;      ///< of them, overlay damage
  std::uint64_t overlayClipPixels = 0;  ///< the overlay cells' whole clips
};

ExpectedRaster expectedRaster(const std::optional<SceneModel>& held,
                              const SceneModel& scene, const RectI& region) {
  ExpectedRaster e;
  bool recomposite = !held || held->cells.size() != scene.cells.size();
  for (std::size_t i = 0; !recomposite && i < scene.cells.size(); ++i) {
    recomposite = held->cells[i].rect.clipped(region) !=
                  scene.cells[i].rect.clipped(region);
  }
  const std::uint64_t heldHash = held ? sceneStateHash(*held) : 0;
  const std::uint64_t sceneHash = sceneStateHash(scene);
  for (std::size_t i = 0; i < scene.cells.size(); ++i) {
    const CellView& cell = scene.cells[i];
    const RectI clip = cell.rect.clipped(region);
    if (clip.empty()) continue;
    if (recomposite) {
      ++e.cells;
      e.pixels += static_cast<std::uint64_t>(clip.areaPx());
      continue;
    }
    const CellKeys was = cellKeys(held->cells[i], heldHash);
    const CellKeys now = cellKeys(cell, sceneHash);
    if (was.full == now.full) continue;
    ++e.cells;
    if (was.body != now.body) {
      e.pixels += static_cast<std::uint64_t>(clip.areaPx());
      continue;
    }
    ++e.overlayCells;
    e.overlayClipPixels += static_cast<std::uint64_t>(clip.areaPx());
    const CellOverlay a = cellOverlay(held->cells[i]);
    const CellOverlay b = cellOverlay(cell);
    const RectI label = hull(a.label, b.label).clipped(clip);
    const RectI strip = hull(a.strip, b.strip).clipped(clip);
    const auto damage = static_cast<std::uint64_t>(
        label.areaPx() + strip.areaPx() - label.clipped(strip).areaPx());
    e.pixels += damage;
    e.overlayPixels += damage;
  }
  return e;
}

/// A progressive-overview style label: "N=<members> hit~<hits>".
std::string overviewLabel(Rng& rng) {
  std::string label = "N=" + std::to_string(rng.rangeInt(1, 400)) + " hit";
  label += rng.chance(0.5) ? "~" : "=";
  return label + std::to_string(rng.rangeInt(0, 120));
}

/// One frame of an overlay sequence.
struct OverlayFrame {
  SceneModel scene;
  bool cancel = false;  ///< render with a deadline that stops it part-way
};

/// One seeded frame of edits. Most frames change only labels and
/// coverage; some carry body edits, a scene-wide change or a layout
/// change. Returns true when the frame's render is to be cancelled.
bool editFrame(SceneModel& scene, Rng& rng) {
  static constexpr float kCoverage[] = {0.0f, 0.1f, 0.37f, 0.5f, 0.93f};
  const auto pick = [&] { return rng.below(scene.cells.size()); };
  const std::uint64_t kind = rng.below(20);
  const std::uint64_t overlayEdits = 1 + rng.below(6);
  for (std::uint64_t e = 0; e < overlayEdits; ++e) {
    CellView& cell = scene.cells[pick()];
    switch (rng.below(6)) {
      case 0:  // the label grows
        cell.label += rng.chance(0.5) ? " *" : std::to_string(rng.below(1000));
        break;
      case 1:  // the label shrinks
        cell.label.resize(cell.label.size() / 2);
        break;
      case 2:  // the label empties, or takes a new value
        cell.label = rng.chance(0.3) ? std::string() : overviewLabel(rng);
        break;
      case 3:  // coverage rises, staying below 1
        cell.coverage = std::min(0.99f, cell.coverage + rng.uniform(0.01f, 0.5f));
        break;
      case 4:  // coverage reaches 1, or falls from it
        cell.coverage = cell.coverage < 1.0f
                            ? 1.0f
                            : kCoverage[rng.below(std::size(kCoverage))];
        break;
      default:  // label and coverage together, as a refine step moves them
        cell.label = overviewLabel(rng);
        cell.coverage = kCoverage[rng.below(std::size(kCoverage))];
        break;
    }
  }
  if (kind < 3) {  // a body edit: a dab or a tint
    dabCell(scene, pick(), static_cast<std::int8_t>(rng.below(3)));
    scene.cells[pick()].background = groupBackground(rng.below(6));
  } else if (kind == 3) {  // scene-wide
    scene.timeWindow = {rng.uniform(0.0f, 20.0f), rng.uniform(40.0f, 200.0f)};
  } else if (kind == 4) {  // layout
    std::swap(scene.cells[pick()].rect, scene.cells[pick()].rect);
  }
  return kind == 5;
}

/// The frames every sequence starts with, before its seeded edits. In
/// the shared-cache setup frame 3 blits cell 0 and cell 1 from the
/// cache, so frame 4's repaint must take its old overlay rects from that
/// blit, not from the repaint before it.
std::vector<OverlayFrame> overlaySequence(const SceneModel& first,
                                          std::uint64_t seed) {
  std::vector<OverlayFrame> frames(4, OverlayFrame{first});
  frames[0].scene.cells[0].label = "N=1 hit~22";
  frames[0].scene.cells[1].coverage = 0.5f;
  frames[1] = frames[0];
  frames[1].scene.cells[0].label = "N=1";
  frames[1].scene.cells[1].coverage = 1.0f;
  frames[1].scene.cells[1].label = "C1A";
  frames[2] = frames[0];
  frames[3] = frames[2];
  frames[3].scene.cells[0].label = "N=2";
  frames[3].scene.cells[1].coverage = 1.0f;
  frames[3].scene.cells[1].label = "C1B";

  Rng rng(seed * 0x51EDULL);
  SceneModel scene = frames.back().scene;
  for (int f = 0; f < 40; ++f) {
    const bool cancel = editFrame(scene, rng);
    if (cancel) {
      // Every cell's coverage moves, so the render has many overlay
      // repaints to abandon; the next frame redraws the same scene.
      for (CellView& cell : scene.cells) cell.coverage *= 0.5f;
      frames.push_back({scene, true});
    }
    frames.push_back({scene, false});
  }
  return frames;
}

struct OverlaySetup {
  const char* name;
  unsigned threads;
  bool sharedCache;
  bool tiles;  ///< 2x2 tiles, one pipeline each, instead of one target
};

TEST(PipelineOverlayTest, EditSequencesMatchColdAndCountOnlyTheDamage) {
  const auto ds = makeDataset();
  constexpr int kW = 320;
  constexpr int kH = 144;
  SceneModel start = makeScene(ds, 5, 3, 64, 48);
  {
    Rng rng(0x0E7A1ULL);
    for (CellView& cell : start.cells) {
      cell.label = overviewLabel(rng);
      cell.coverage = rng.uniform(0.0f, 0.9f);
    }
  }
  for (const OverlaySetup setup :
       {OverlaySetup{"serial", 0, false, false},
        OverlaySetup{"pool of 4", 4, false, false},
        OverlaySetup{"shared cache", 4, true, false},
        OverlaySetup{"2x2 tiles", 0, false, true}}) {
    std::unique_ptr<ThreadPool> pool;
    if (setup.threads > 0) pool = std::make_unique<ThreadPool>(setup.threads);
    SharedCellCache cache;
    PipelineOptions options;
    options.pool = pool.get();
    options.sharedCache = setup.sharedCache ? &cache : nullptr;
    struct Target {
      RectI region;
      Framebuffer fb;
      std::unique_ptr<CellRenderPipeline> pipeline;
      std::optional<SceneModel> held;  ///< none after a cancelled render
    };
    std::vector<Target> targets;
    const int tiles = setup.tiles ? 2 : 1;
    for (int ty = 0; ty < tiles; ++ty) {
      for (int tx = 0; tx < tiles; ++tx) {
        const RectI region{tx * kW / tiles, ty * kH / tiles, kW / tiles,
                           kH / tiles};
        targets.push_back({region, Framebuffer(region.w, region.h),
                           std::make_unique<CellRenderPipeline>(options),
                           std::nullopt});
      }
    }
    std::size_t overlayCells = 0;
    std::uint64_t overlayPixels = 0;
    std::uint64_t overlayClipPixels = 0;
    std::size_t cancelled = 0;
    std::size_t frame = 0;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const auto& [frameScene, cancel] : overlaySequence(start, seed)) {
        ++frame;
        const Framebuffer cold = coldRender(frameScene, ds, kW, kH, Eye::kLeft);
        for (Target& t : targets) {
          const ExpectedRaster want = expectedRaster(t.held, frameScene, t.region);
          const std::uint64_t insertsBefore = cache.stats().inserts;
          CountingClock clock;
          const util::Cancellation stop(util::Deadline::after(3, &clock));
          const PipelineStats stats = t.pipeline->render(
              frameScene, ds, Canvas{&t.fb, t.region, {}}, Eye::kLeft,
              cancel ? &stop : nullptr);
          const std::string where = std::string(setup.name) + ", frame " +
                                    std::to_string(frame) + ", region " +
                                    std::to_string(t.region.x) + "," +
                                    std::to_string(t.region.y);
          if (cancel) {
            if (want.cells > 3) {
              EXPECT_TRUE(stats.aborted) << where;
              ++cancelled;
            }
            t.held = stats.aborted ? std::nullopt
                                   : std::optional<SceneModel>(frameScene);
            continue;
          }
          ASSERT_FALSE(stats.aborted) << where;
          t.held = frameScene;
          for (int y = 0; y < t.region.h; ++y) {
            for (int x = 0; x < t.region.w; ++x) {
              ASSERT_EQ(t.fb.at(x, y), cold.at(t.region.x + x, t.region.y + y))
                  << where << ", pixel (" << t.region.x + x << ","
                  << t.region.y + y << ")";
            }
          }
          overlayCells += want.overlayCells;
          overlayPixels += want.overlayPixels;
          overlayClipPixels += want.overlayClipPixels;
          if (!setup.sharedCache) {
            EXPECT_EQ(stats.cellsRasterized, want.cells) << where;
            EXPECT_EQ(stats.pixelsRasterized, want.pixels) << where;
            continue;
          }
          // A cache hit blits where the others rasterize; whatever is
          // rasterized is published.
          EXPECT_EQ(stats.cellsRasterized + stats.cellsBlitted +
                        stats.cellsSharedBlitted,
                    want.cells)
              << where;
          EXPECT_LE(stats.pixelsRasterized, want.pixels) << where;
          EXPECT_EQ(cache.stats().inserts - insertsBefore, stats.cellsRasterized)
              << where;
          if (frame == 3) {
            EXPECT_EQ(stats.cellsSharedBlitted, 2u) << where;
          }
        }
      }
    }
    // The sequences reached what they test, and an overlay repaint
    // touches a small part of its cell.
    EXPECT_GT(overlayCells, 200u) << setup.name;
    EXPECT_LT(overlayPixels * 3, overlayClipPixels) << setup.name;
    EXPECT_GT(cancelled, 0u) << setup.name;
  }
}

}  // namespace
}  // namespace svq::render
