// Tests for render/pipeline.h — the dirty-cell incremental renderer: cell
// keying, skip/blit/rasterize classification, restores through the shared
// pixel cache, overlap refusal, and the determinism contracts (parallel ==
// serial, cached == cold) that the cluster renderer and benches rely on.
#include "render/pipeline.h"

#include <gtest/gtest.h>

#include <memory>

#include "reference_render.h"
#include "render/sharedcache.h"
#include "traj/synth.h"
#include "util/cancel.h"
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

}  // namespace
}  // namespace svq::render
