#include "render/scene.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>

namespace svq::render {

CellOverlay cellOverlay(const CellView& cell) {
  CellOverlay overlay;
  overlay.label = RectI{cell.rect.x + 3, cell.rect.y + 3,
                        textTinyWidth(cell.label), textTinyHeight()}
                      .clipped(cell.rect);
  // Anytime-refinement coverage strip: a 2px progress bar along the
  // bottom edge. Absent at coverage 1.0, so exact/converged frames render
  // byte-identically to pre-anytime frames.
  if (cell.coverage < 1.0f && cell.rect.w > 2 && cell.rect.h > 4) {
    overlay.strip = {cell.rect.x + 1, cell.rect.y + cell.rect.h - 3,
                     cell.rect.w - 2, 2};
  }
  return overlay;
}

void renderCell(const SceneModel& scene, const CellView& cell,
                const traj::TrajectoryDataset& dataset, Canvas canvas,
                Eye eye, RenderStats& stats) {
  fillRect(canvas, cell.rect, cell.background);
  if (scene.drawCellBorder) {
    strokeRect(canvas, cell.rect, cell.background.scaled(1.8f));
  }

  const CellTransform transform{cell.rect, scene.arenaRadiusCm, 3.0f};

  if (scene.drawArenaOutline) {
    // Arena boundary circle, drawn as a polyline ring at z = 0.
    const Vec2 c = transform.center();
    const float r = scene.arenaRadiusCm * transform.scale();
    const int segments = 48;
    const Color ring = cell.background.scaled(2.2f);
    Vec2 prev{c.x + r, c.y};
    for (int i = 1; i <= segments; ++i) {
      const float a = kTwoPi * static_cast<float>(i) / segments;
      const Vec2 p{c.x + r * std::cos(a), c.y + r * std::sin(a)};
      drawLine(canvas, prev, p, ring);
      prev = p;
    }
  }

  if (cell.trajectoryIndex < dataset.size()) {
    const traj::Trajectory& t = dataset[cell.trajectoryIndex];
    const OrthoStereoCamera camera(scene.stereo);
    const StyledPolyline line =
        tessellate(t, transform, camera, eye, cell.segmentHighlights,
                   scene.timeWindow, scene.style);
    drawThickPolyline(canvas, line.points, line.colors,
                      scene.style.halfWidthPx);
    stats.segmentsDrawn += line.points.empty() ? 0 : line.points.size() - 1;

    // Release-point marker at the arena centre (t = start of window).
    if (scene.style.startMarkerPx > 0.0f && !t.empty()) {
      const float t0 = std::max(scene.timeWindow.x, t.front().t);
      if (t0 <= std::min(scene.timeWindow.y, t.back().t)) {
        const Vec2 base = transform.toPixels(t.positionAt(t0));
        const Vec2 p = camera.project(base, t0, eye);
        fillCircle(canvas, p.x, p.y, scene.style.startMarkerPx,
                   scene.style.baseColor.scaled(scene.style.nearBrightness));
      }
    }
  }

  // The overlay, drawn only inside its rects (cellOverlay).
  const CellOverlay overlay = cellOverlay(cell);
  if (!overlay.label.empty()) {
    drawTextTiny(canvas.subCanvas(overlay.label), overlay.label.x,
                 overlay.label.y, cell.label, cell.background.scaled(3.0f));
  }
  if (!overlay.strip.empty()) {
    // Filled to the refined fraction.
    const RectI& track = overlay.strip;
    const float clamped = std::max(cell.coverage, 0.0f);
    const int fillW = static_cast<int>(clamped * static_cast<float>(track.w));
    fillRect(canvas, track, cell.background.scaled(0.6f));
    if (fillW > 0) {
      fillRect(canvas, {track.x, track.y, fillW, track.h},
               cell.background.scaled(2.6f));
    }
  }
  ++stats.cellsDrawn;
}

namespace {

// xxHash64's primes; both odd, so multiplying by either is a bijection.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;

/// One xxHash64-style round. For a fixed state it is a bijection in the
/// word, and for a fixed word a bijection in the state, so two
/// equal-length inputs that differ in one word never collide.
std::uint64_t mixWord(std::uint64_t h, std::uint64_t word) {
  return std::rotl(h ^ (word * kPrime2), 31) * kPrime1;
}

/// Folds raw bytes into `h` one 8-byte word per round; a short tail is
/// zero-padded into one last word, never read past its end.
std::uint64_t mixBytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, sizeof word);
    h = mixWord(h, word);
  }
  if (i < n) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, n - i);
    h = mixWord(h, word);
  }
  return h;
}

/// mixBytes of one value that fits a word, with the copy's size known at
/// compile time.
template <typename T>
std::uint64_t mixValue(std::uint64_t h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) <= sizeof(std::uint64_t));
  std::uint64_t word = 0;
  std::memcpy(&word, &v, sizeof(T));
  return mixWord(h, word);
}

}  // namespace

std::uint64_t sceneStateHash(const SceneModel& scene) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mixValue(h, scene.stereo.timeScaleCmPerS);
  h = mixValue(h, scene.stereo.depthOffsetCm);
  h = mixValue(h, scene.stereo.parallaxPxPerCm);
  h = mixValue(h, scene.stereo.maxComfortParallaxPx);
  h = mixValue(h, scene.arenaRadiusCm);
  h = mixValue(h, scene.timeWindow.x);
  h = mixValue(h, scene.timeWindow.y);
  h = mixValue(h, scene.style.baseColor);
  h = mixValue(h, scene.style.nearBrightness);
  h = mixValue(h, scene.style.halfWidthPx);
  h = mixValue(h, scene.style.startMarkerPx);
  h = mixValue(h, scene.drawArenaOutline);
  h = mixValue(h, scene.drawCellBorder);
  h = mixValue(h, scene.wallBackground);
  return h;
}

CellKeys cellKeys(const CellView& cell, std::uint64_t sceneHash) {
  CellKeys keys;
  std::uint64_t h = sceneHash;
  h = mixValue(h, cell.trajectoryIndex);
  h = mixValue(h, cell.rect.x);
  h = mixValue(h, cell.rect.y);
  h = mixValue(h, cell.rect.w);
  h = mixValue(h, cell.rect.h);
  h = mixValue(h, cell.background);
  h = mixBytes(h, cell.segmentHighlights.data(),
               cell.segmentHighlights.size());
  // Length separators so {highlights="A", label=""} != {"", "A"}.
  h = mixValue(h, static_cast<std::uint64_t>(cell.segmentHighlights.size()));
  keys.body = h;
  h = mixBytes(h, cell.label.data(), cell.label.size());
  h = mixValue(h, static_cast<std::uint64_t>(cell.label.size()));
  // Coverage folds only when it draws (< 1.0): an exact or converged cell
  // keys exactly like one that never set it.
  if (cell.coverage < 1.0f) {
    h = mixValue(h, cell.coverage);
  }
  keys.full = h;
  return keys;
}

std::uint64_t cellContentHash(const CellView& cell, std::uint64_t sceneHash) {
  return cellKeys(cell, sceneHash).full;
}

std::vector<std::uint64_t> sceneCellHashes(const SceneModel& scene) {
  const std::uint64_t sceneHash = sceneStateHash(scene);
  std::vector<std::uint64_t> hashes;
  hashes.reserve(scene.cells.size());
  for (const CellView& cell : scene.cells) {
    hashes.push_back(cellContentHash(cell, sceneHash));
  }
  return hashes;
}

}  // namespace svq::render
