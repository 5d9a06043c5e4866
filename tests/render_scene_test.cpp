// Tests for render/scene.h — cell rendering and content keys — through
// the full-redraw reference renderer (tests/support): culling, and the
// sort-first partition property (tile renders == full render restricted
// to tile); the clip invariance of renderCell that the pipeline's overlay
// repaints rest on; and the body/full key split.
#include "render/scene.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "reference_render.h"
#include "traj/synth.h"
#include "util/rng.h"

namespace svq::render {
namespace {

traj::TrajectoryDataset makeDataset(std::size_t n = 8) {
  traj::AntSimulator sim({}, 404);
  traj::DatasetSpec spec;
  spec.count = n;
  return sim.generate(spec);
}

SceneModel makeScene(const traj::TrajectoryDataset& ds, int cells = 4) {
  SceneModel scene;
  scene.arenaRadiusCm = ds.arena().radiusCm;
  for (int i = 0; i < cells; ++i) {
    CellView cell;
    cell.trajectoryIndex = static_cast<std::uint32_t>(i % ds.size());
    cell.rect = {10 + i * 60, 10, 50, 50};
    cell.background = groupBackground(static_cast<std::size_t>(i));
    scene.cells.push_back(cell);
  }
  return scene;
}

TEST(SceneTest, RenderFillsBackground) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds, 1);
  scene.wallBackground = colors::kBlack;
  Framebuffer fb(300, 80, colors::kWhite);
  renderScene(scene, ds, Canvas::whole(fb), Eye::kCenter);
  // Pixels outside the cell are wall background, not white.
  EXPECT_EQ(fb.at(299, 79), colors::kBlack);
}

TEST(SceneTest, CellBackgroundApplied) {
  const auto ds = makeDataset();
  const SceneModel scene = makeScene(ds, 1);
  Framebuffer fb(300, 80);
  renderScene(scene, ds, Canvas::whole(fb), Eye::kCenter);
  // A corner pixel inside the cell rect but away from the trajectory.
  EXPECT_EQ(fb.at(12, 58), scene.cells[0].background);
}

TEST(SceneTest, StatsCountCells) {
  const auto ds = makeDataset();
  const SceneModel scene = makeScene(ds, 4);
  Framebuffer fb(300, 80);
  const RenderStats stats =
      renderScene(scene, ds, Canvas::whole(fb), Eye::kCenter);
  EXPECT_EQ(stats.cellsDrawn, 4u);
  EXPECT_EQ(stats.cellsCulled, 0u);
  EXPECT_GT(stats.segmentsDrawn, 0u);
}

TEST(SceneTest, CullingSkipsOffTileCells) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds, 4);  // cells at x=10..250
  // Zero parallax so the cull rect is not inflated beyond a couple px.
  scene.stereo.timeScaleCmPerS = 0.0f;
  scene.stereo.depthOffsetCm = 0.0f;
  Framebuffer fb(60, 80);
  // Canvas viewport covering only the first cell.
  const Canvas canvas{&fb, {0, 0, 60, 80}, {}};
  const RenderStats stats = renderScene(scene, ds, canvas, Eye::kCenter);
  EXPECT_EQ(stats.cellsDrawn, 1u);
  EXPECT_EQ(stats.cellsCulled, 3u);
}

TEST(SceneTest, SortFirstPartitionMatchesFullRender) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds, 4);
  scene.stereo.timeScaleCmPerS = 0.3f;

  // Full render.
  Framebuffer full(260, 70);
  renderScene(scene, ds, Canvas::whole(full), Eye::kLeft);

  // Two half renders through restricted canvases.
  Framebuffer leftHalf(130, 70);
  Framebuffer rightHalf(130, 70);
  renderScene(scene, ds, Canvas{&leftHalf, {0, 0, 130, 70}, {}}, Eye::kLeft);
  renderScene(scene, ds, Canvas{&rightHalf, {130, 0, 130, 70}, {}}, Eye::kLeft);

  for (int y = 0; y < 70; ++y) {
    for (int x = 0; x < 260; ++x) {
      const Color expected = full.at(x, y);
      const Color actual =
          x < 130 ? leftHalf.at(x, y) : rightHalf.at(x - 130, y);
      ASSERT_EQ(expected, actual) << "pixel " << x << "," << y;
    }
  }
}

TEST(SceneTest, StereoEyesProduceDifferentImages) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds, 2);
  scene.stereo.timeScaleCmPerS = 0.5f;
  Framebuffer left(300, 80);
  Framebuffer right(300, 80);
  renderScene(scene, ds, Canvas::whole(left), Eye::kLeft);
  renderScene(scene, ds, Canvas::whole(right), Eye::kRight);
  EXPECT_NE(left.contentHash(), right.contentHash());
}

TEST(SceneTest, ZeroTimeScaleEyesIdentical) {
  const auto ds = makeDataset();
  SceneModel scene = makeScene(ds, 2);
  scene.stereo.timeScaleCmPerS = 0.0f;
  scene.stereo.depthOffsetCm = 0.0f;
  Framebuffer left(300, 80);
  Framebuffer right(300, 80);
  renderScene(scene, ds, Canvas::whole(left), Eye::kLeft);
  renderScene(scene, ds, Canvas::whole(right), Eye::kRight);
  EXPECT_EQ(left.contentHash(), right.contentHash());
}

TEST(SceneTest, HighlightChangesPixels) {
  const auto ds = makeDataset();
  SceneModel plain = makeScene(ds, 1);
  SceneModel highlighted = makeScene(ds, 1);
  const std::size_t segs = ds[0].size() - 1;
  highlighted.cells[0].segmentHighlights.assign(segs, 0);  // all red

  Framebuffer a(80, 80);
  Framebuffer b(80, 80);
  renderScene(plain, ds, Canvas::whole(a), Eye::kCenter);
  renderScene(highlighted, ds, Canvas::whole(b), Eye::kCenter);
  EXPECT_NE(a.contentHash(), b.contentHash());
}

TEST(SceneTest, TimeWindowReducesDrawnSegments) {
  const auto ds = makeDataset();
  SceneModel all = makeScene(ds, 1);
  SceneModel windowed = makeScene(ds, 1);
  windowed.timeWindow = {0.0f, ds[0].duration() * 0.25f};
  Framebuffer a(80, 80);
  Framebuffer b(80, 80);
  const RenderStats sa = renderScene(all, ds, Canvas::whole(a), Eye::kCenter);
  const RenderStats sb =
      renderScene(windowed, ds, Canvas::whole(b), Eye::kCenter);
  EXPECT_LT(sb.segmentsDrawn, sa.segmentsDrawn);
}

TEST(SceneTest, LabelDrawnWhenSet) {
  const auto ds = makeDataset();
  SceneModel unlabeled = makeScene(ds, 1);
  SceneModel labeled = makeScene(ds, 1);
  labeled.cells[0].label = "EAST";
  Framebuffer a(80, 80);
  Framebuffer b(80, 80);
  renderScene(unlabeled, ds, Canvas::whole(a), Eye::kCenter);
  renderScene(labeled, ds, Canvas::whole(b), Eye::kCenter);
  EXPECT_NE(a.contentHash(), b.contentHash());
}

TEST(SceneTest, OutOfRangeTrajectoryIndexIsSafe) {
  const auto ds = makeDataset(2);
  SceneModel scene = makeScene(ds, 1);
  scene.cells[0].trajectoryIndex = 999;  // invalid
  Framebuffer fb(80, 80);
  const RenderStats stats =
      renderScene(scene, ds, Canvas::whole(fb), Eye::kCenter);
  EXPECT_EQ(stats.cellsDrawn, 1u);  // background still drawn
  EXPECT_EQ(stats.segmentsDrawn, 0u);
}

TEST(SceneTest, ParallaxAwareCullingKeepsShiftedContent) {
  // A cell just outside the canvas whose stereo shift pushes pixels in.
  const auto ds = makeDataset();
  SceneModel scene;
  scene.arenaRadiusCm = ds.arena().radiusCm;
  scene.stereo.timeScaleCmPerS = 1.0f;   // strong parallax
  scene.stereo.parallaxPxPerCm = 2.0f;
  CellView cell;
  cell.trajectoryIndex = 0;
  cell.rect = {100, 0, 50, 50};
  scene.cells.push_back(cell);

  Framebuffer fb(99, 50);  // viewport ends at x=99, cell starts at 100
  const Canvas canvas{&fb, {0, 0, 99, 50}, {}};
  const RenderStats stats = renderScene(scene, ds, canvas, Eye::kLeft);
  // The parallax inflation must keep this cell (not cull it).
  EXPECT_EQ(stats.cellsDrawn, 1u);
}

/// A highlight row of `n` values in {-1, 0, 1, 2}, as the query engine
/// writes them (no highlight, brushes 0..2).
std::vector<std::int8_t> highlightRow(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> row(n);
  for (std::int8_t& v : row) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.below(4)) - 1);
  }
  return row;
}

// --- clip invariance ---------------------------------------------------------
// The pipeline repaints a cell whose body is unchanged through renderCell
// clipped to its overlay rects (render/pipeline.h). That is sound only if
// a clip decides which pixels are written, never their values.

/// A label of `n` characters: glyphs of the font, lower case, spaces and
/// characters the font lacks (drawn as solid blocks).
std::string randomLabel(std::size_t n, Rng& rng) {
  static constexpr char kChars[] = "0123456789ABHNXZ hit~=*%:.-#abq";
  std::string label(n, ' ');
  for (char& c : label) c = kChars[rng.below(sizeof(kChars) - 1)];
  return label;
}

/// A non-empty rect inside the non-empty rect `r`.
RectI subRectOf(const RectI& r, Rng& rng) {
  const int x = rng.rangeInt(r.x, r.x + r.w - 1);
  const int y = rng.rangeInt(r.y, r.y + r.h - 1);
  return {x, y, rng.rangeInt(1, r.x + r.w - x), rng.rangeInt(1, r.y + r.h - y)};
}

TEST(ClipInvarianceTest, ClippedCellEqualsTheWholeInsideAndTouchesNothingElse) {
  const auto ds = makeDataset();
  // An offset viewport, so a cell can be cut by any of its edges.
  const RectI region{40, 30, 160, 110};
  static constexpr float kCoverage[] = {0.0f, 0.37f, 1.0f};
  Rng rng(0xC11B5EEDULL);
  std::size_t clips = 0;
  std::size_t drawnInside = 0;
  for (int c = 0; c < 240; ++c) {
    SceneModel scene;
    scene.arenaRadiusCm = ds.arena().radiusCm;
    scene.stereo.timeScaleCmPerS = rng.uniform(0.2f, 1.0f);
    scene.stereo.parallaxPxPerCm = rng.uniform(0.5f, 3.0f);
    if (rng.chance(0.3)) scene.timeWindow = {rng.uniform(0.0f, 30.0f), 90.0f};
    const Eye eye = c % 2 == 0 ? Eye::kLeft : Eye::kRight;

    CellView cell;
    cell.trajectoryIndex = static_cast<std::uint32_t>(rng.below(ds.size()));
    const int w = rng.rangeInt(4, 96);
    const int h = rng.rangeInt(4, 72);
    // Anywhere that overlaps the viewport: inside, or cut by its edges.
    cell.rect = {rng.rangeInt(region.x - w + 1, region.x + region.w - 1),
                 rng.rangeInt(region.y - h + 1, region.y + region.h - 1), w,
                 h};
    cell.background = groupBackground(rng.below(6));
    if (rng.chance(0.7)) {
      cell.segmentHighlights =
          highlightRow(ds[cell.trajectoryIndex].size() - 1, rng);
    }
    cell.label = randomLabel(rng.below(41), rng);
    cell.coverage = kCoverage[c % 3];

    // A seeded pattern under the cell: "untouched" must mean untouched,
    // and parallax spill blends over it.
    Framebuffer base(region.w, region.h);
    for (int y = 0; y < region.h; ++y) {
      for (int x = 0; x < region.w; ++x) {
        base.at(x, y) = Color{static_cast<std::uint8_t>(rng.below(256)),
                              static_cast<std::uint8_t>(rng.below(256)),
                              static_cast<std::uint8_t>(rng.below(256)), 255};
      }
    }
    Framebuffer whole = base;
    RenderStats stats;
    renderCell(scene, cell, ds, Canvas{&whole, region, {}}, eye, stats);

    const CellOverlay overlay = cellOverlay(cell);
    CellView relabeled = cell;
    relabeled.label = randomLabel(rng.below(41), rng);
    const RectI cellRect = cell.rect;
    std::vector<RectI> clipRects = {
        overlay.label,
        overlay.strip,
        cellOverlay(relabeled).label,
        cellRect,
        // 1-px slivers: a column and a row of the cell.
        {rng.rangeInt(cellRect.x, cellRect.x + w - 1), cellRect.y, 1, h},
        {cellRect.x, rng.rangeInt(cellRect.y, cellRect.y + h - 1), w, 1},
        // Across the cell's edge, where parallax spills.
        {cellRect.x - rng.rangeInt(1, 12), cellRect.y + rng.rangeInt(0, h - 1),
         rng.rangeInt(2, 24), rng.rangeInt(1, h)},
        {cellRect.x + w - rng.rangeInt(1, 12),
         cellRect.y - rng.rangeInt(0, 6), rng.rangeInt(2, 24),
         rng.rangeInt(1, h + 12)},
        subRectOf(cellRect, rng),
        subRectOf(cellRect, rng),
    };
    for (const RectI& clip : clipRects) {
      Framebuffer clipped = base;
      renderCell(scene, cell, ds, Canvas{&clipped, region, {}}.subCanvas(clip),
                 eye, stats);
      const RectI inside = clip.clipped(region);
      for (int y = 0; y < region.h; ++y) {
        for (int x = 0; x < region.w; ++x) {
          const bool in = inside.contains(region.x + x, region.y + y);
          const Color want = in ? whole.at(x, y) : base.at(x, y);
          ASSERT_EQ(clipped.at(x, y), want)
              << "case " << c << ", clip " << clip << ", cell " << cellRect
              << ", pixel (" << region.x + x << "," << region.y + y << ")";
          if (in && want != base.at(x, y)) ++drawnInside;
        }
      }
      ++clips;
    }
  }
  EXPECT_EQ(clips, 240u * 10u);
  EXPECT_GT(drawnInside, 0u);
}

TEST(ClipInvarianceTest, OverlayRectsHoldTheLabelAndTheStripInsideTheCell) {
  CellView cell;
  cell.rect = {100, 50, 64, 40};
  cell.label = "N=12 hit~3";
  cell.coverage = 0.37f;
  CellOverlay overlay = cellOverlay(cell);
  EXPECT_EQ(overlay.label,
            (RectI{103, 53, textTinyWidth(cell.label), textTinyHeight()}));
  EXPECT_EQ(overlay.strip, (RectI{101, 87, 62, 2}));

  // A label longer than the cell is cut at its right edge.
  cell.label = std::string(40, 'W');
  EXPECT_EQ(cellOverlay(cell).label, (RectI{103, 53, 61, textTinyHeight()}));
  // No label, no coverage strip at 1.0 and above or on a cell too small
  // to hold one: empty rects.
  cell.label.clear();
  cell.coverage = 1.0f;
  overlay = cellOverlay(cell);
  EXPECT_TRUE(overlay.label.empty());
  EXPECT_TRUE(overlay.strip.empty());
  cell.coverage = 0.0f;
  cell.rect.h = 4;
  EXPECT_TRUE(cellOverlay(cell).strip.empty());
}

// --- content keys ------------------------------------------------------------

CellView keyedCell() {
  CellView cell;
  cell.trajectoryIndex = 7;
  cell.rect = {120, 40, 56, 48};
  cell.background = groupBackground(2);
  cell.segmentHighlights = {-1, 0, 1, 2, -1, -1, 0, 1, 2, 2, -1};
  cell.label = "C17";
  return cell;
}

TEST(CellContentHashTest, EveryHighlightByteCountsAtEveryTailLength) {
  // Lengths 0..24 put every tail length (0..7 bytes) in each of the first
  // three words.
  const std::uint64_t sceneHash = sceneStateHash(SceneModel{});
  Rng rng(1);
  for (std::size_t n = 0; n <= 24; ++n) {
    CellView cell = keyedCell();
    cell.segmentHighlights = highlightRow(n, rng);
    const std::uint64_t key = cellContentHash(cell, sceneHash);
    for (std::size_t i = 0; i < n; ++i) {
      CellView changed = cell;
      for (int delta = 1; delta < 256; ++delta) {
        changed.segmentHighlights[i] =
            static_cast<std::int8_t>(cell.segmentHighlights[i] + delta);
        ASSERT_NE(cellContentHash(changed, sceneHash), key)
            << "length " << n << ", byte " << i << ", delta " << delta;
      }
    }
  }
}

TEST(CellContentHashTest, EveryCellFieldCounts) {
  const std::uint64_t sceneHash = sceneStateHash(SceneModel{});
  const CellView base = keyedCell();
  const std::uint64_t key = cellContentHash(base, sceneHash);
  const auto keyChanges = [&](const auto& mutate) {
    CellView cell = base;
    mutate(cell);
    return cellContentHash(cell, sceneHash) != key;
  };
  EXPECT_TRUE(keyChanges([](CellView& c) { c.trajectoryIndex += 1; }));
  EXPECT_TRUE(keyChanges([](CellView& c) { c.rect.x += 1; }));
  EXPECT_TRUE(keyChanges([](CellView& c) { c.rect.y += 1; }));
  EXPECT_TRUE(keyChanges([](CellView& c) { c.rect.w += 1; }));
  EXPECT_TRUE(keyChanges([](CellView& c) { c.rect.h += 1; }));
  EXPECT_TRUE(keyChanges([](CellView& c) { c.background.r ^= 1; }));
  EXPECT_TRUE(keyChanges([](CellView& c) { c.background.g ^= 1; }));
  EXPECT_TRUE(keyChanges([](CellView& c) { c.background.b ^= 1; }));
  EXPECT_TRUE(keyChanges([](CellView& c) { c.background.a ^= 1; }));
  for (std::size_t i = 0; i < base.label.size(); ++i) {
    for (int delta = 1; delta < 256; ++delta) {
      EXPECT_TRUE(keyChanges([&](CellView& c) {
        c.label[i] = static_cast<char>(c.label[i] + delta);
      })) << "label byte " << i << ", delta " << delta;
    }
  }
  // The same bytes in the same order, split differently between the
  // highlight row and the label.
  EXPECT_TRUE(keyChanges([](CellView& c) {
    c.label.insert(0, 1, static_cast<char>(c.segmentHighlights.back()));
    c.segmentHighlights.pop_back();
  }));
}

TEST(CellContentHashTest, CoverageCountsOnlyBelowOne) {
  CellView cell = keyedCell();
  const std::uint64_t unset = cellContentHash(cell, 0);
  cell.coverage = 1.0f;
  EXPECT_EQ(cellContentHash(cell, 0), unset);
  // No coverage strip is drawn at or above 1.0.
  cell.coverage = 2.0f;
  EXPECT_EQ(cellContentHash(cell, 0), unset);
  cell.coverage = 0.5f;
  const std::uint64_t half = cellContentHash(cell, 0);
  cell.coverage = 0.25f;
  const std::uint64_t quarter = cellContentHash(cell, 0);
  EXPECT_NE(half, unset);
  EXPECT_NE(quarter, unset);
  EXPECT_NE(half, quarter);
}

TEST(CellContentHashTest, BodyKeyLeavesOutOnlyTheOverlay) {
  const std::uint64_t sceneHash = sceneStateHash(SceneModel{});
  const CellView base = keyedCell();
  const CellKeys keys = cellKeys(base, sceneHash);
  EXPECT_EQ(keys.full, cellContentHash(base, sceneHash));
  const auto changed = [&](const auto& mutate) {
    CellView cell = base;
    mutate(cell);
    const CellKeys k = cellKeys(cell, sceneHash);
    return std::pair<bool, bool>{k.body != keys.body, k.full != keys.full};
  };
  using Both = std::pair<bool, bool>;
  // The body: every change moves both keys.
  EXPECT_EQ(changed([](CellView& c) { c.trajectoryIndex += 1; }), Both(true, true));
  EXPECT_EQ(changed([](CellView& c) { c.rect.x += 1; }), Both(true, true));
  EXPECT_EQ(changed([](CellView& c) { c.rect.h += 1; }), Both(true, true));
  EXPECT_EQ(changed([](CellView& c) { c.background.g ^= 1; }), Both(true, true));
  EXPECT_EQ(changed([](CellView& c) { c.segmentHighlights[3] = -1; }),
            Both(true, true));
  EXPECT_EQ(changed([](CellView& c) { c.segmentHighlights.pop_back(); }),
            Both(true, true));
  // The overlay: only the full key moves.
  EXPECT_EQ(changed([](CellView& c) { c.label += "0"; }), Both(false, true));
  EXPECT_EQ(changed([](CellView& c) { c.label.clear(); }), Both(false, true));
  EXPECT_EQ(changed([](CellView& c) { c.coverage = 0.37f; }), Both(false, true));
  EXPECT_EQ(changed([](CellView& c) { c.coverage = 1.5f; }), Both(false, false));
  // The scene and the eye salt reach the body through `sceneHash`.
  EXPECT_NE(cellKeys(base, sceneHash ^ 1).body, keys.body);
}

TEST(SceneStateHashTest, EverySceneWideFieldCountsButQueryGeneration) {
  const SceneModel base;
  const std::uint64_t key = sceneStateHash(base);
  const auto keyChanges = [&](const auto& mutate) {
    SceneModel scene = base;
    mutate(scene);
    return sceneStateHash(scene) != key;
  };
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.stereo.timeScaleCmPerS += 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.stereo.depthOffsetCm += 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.stereo.parallaxPxPerCm += 1; }));
  EXPECT_TRUE(
      keyChanges([](SceneModel& s) { s.stereo.maxComfortParallaxPx += 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.arenaRadiusCm += 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.timeWindow.x += 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.timeWindow.y = 60.0f; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.style.baseColor.r ^= 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.style.baseColor.g ^= 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.style.baseColor.b ^= 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.style.baseColor.a ^= 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.style.nearBrightness += 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.style.halfWidthPx += 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.style.startMarkerPx += 1; }));
  EXPECT_TRUE(keyChanges(
      [](SceneModel& s) { s.drawArenaOutline = !s.drawArenaOutline; }));
  EXPECT_TRUE(
      keyChanges([](SceneModel& s) { s.drawCellBorder = !s.drawCellBorder; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.wallBackground.r ^= 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.wallBackground.g ^= 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.wallBackground.b ^= 1; }));
  EXPECT_TRUE(keyChanges([](SceneModel& s) { s.wallBackground.a ^= 1; }));
  // The highlight source, not the pixels: it must not dirty every cell.
  EXPECT_FALSE(keyChanges([](SceneModel& s) { s.queryGeneration = 42; }));
}

/// Random row `id / 2` (length 0..600); odd ids change one of its bytes
/// to another value.
std::vector<std::int8_t> randomRow(std::uint64_t id) {
  Rng rng(id / 2);
  std::vector<std::int8_t> row = highlightRow(rng.below(601), rng);
  if (id % 2 == 1 && !row.empty()) {
    const std::size_t at = rng.below(row.size());
    const int shift = 1 + static_cast<int>(rng.below(3));
    row[at] = static_cast<std::int8_t>((row[at] + 1 + shift) % 4 - 1);
  }
  return row;
}

TEST(CellContentHashTest, RandomRowsAndOneByteMutantsNeverCollide) {
  constexpr std::uint64_t kIds = 2 * 100000;
  CellView cell = keyedCell();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keyed;  // (key, id)
  keyed.reserve(kIds);
  for (std::uint64_t id = 0; id < kIds; ++id) {
    cell.segmentHighlights = randomRow(id);
    keyed.emplace_back(cellContentHash(cell, 0), id);
  }
  std::sort(keyed.begin(), keyed.end());
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < keyed.size(); ++i) {
    if (keyed[i].first != keyed[i - 1].first) continue;
    // Only equal rows may share a key; short rows do repeat.
    ASSERT_EQ(randomRow(keyed[i].second), randomRow(keyed[i - 1].second))
        << "ids " << keyed[i - 1].second << " and " << keyed[i].second;
    ++repeats;
  }
  EXPECT_LT(repeats, kIds / 50);
}

}  // namespace
}  // namespace svq::render
