#include "render/rasterizer.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>

#include "render/kernels.h"

namespace svq::render {

void Canvas::fillSpan(int gx, int gy, int w, Color c) {
  const RectI bounds = clipRect();
  if (gy < bounds.y || gy >= bounds.y + bounds.h) return;
  const int x0 = std::max(gx, bounds.x);
  const int x1 = std::min(gx + w, bounds.x + bounds.w);
  if (x0 >= x1) return;
  Color* row = &fb->at(x0 - region.x, gy - region.y);
  const auto run = static_cast<std::size_t>(x1 - x0);
  if (c.a == 255) {
    fillRow(row, run, c);
  } else if (c.a != 0) {
    blendSpan(row, run, c);
  }
}

void Canvas::blitRows(const Framebuffer& src, int srcX, int srcY,
                      const RectI& dstGlobal) {
  const RectI target = dstGlobal.clipped(clipRect());
  if (target.empty()) return;
  for (int y = 0; y < target.h; ++y) {
    const int sy = srcY + (target.y - dstGlobal.y) + y;
    const int sx = srcX + (target.x - dstGlobal.x);
    if (sy < 0 || sy >= src.height()) continue;
    const int runX = std::max(sx, 0);
    const int run = std::min(sx + target.w, src.width()) - runX;
    if (run <= 0) continue;
    const Color* srcRow = &src.at(runX, sy);
    Color* dstRow = &fb->at(target.x + (runX - sx) - region.x,
                            target.y + y - region.y);
    copyRow(dstRow, srcRow, static_cast<std::size_t>(run));
  }
}

void fillRect(Canvas canvas, const RectI& r, Color c) {
  const RectI clipped = r.clipped(canvas.clipRect());
  for (int y = clipped.y; y < clipped.y + clipped.h; ++y) {
    canvas.fillSpan(clipped.x, y, clipped.w, c);
  }
}

void strokeRect(Canvas canvas, const RectI& r, Color c) {
  if (r.empty()) return;
  fillRect(canvas, {r.x, r.y, r.w, 1}, c);
  fillRect(canvas, {r.x, r.y + r.h - 1, r.w, 1}, c);
  fillRect(canvas, {r.x, r.y + 1, 1, r.h - 2}, c);
  fillRect(canvas, {r.x + r.w - 1, r.y + 1, 1, r.h - 2}, c);
}

void fillCircle(Canvas canvas, float cx, float cy, float r, Color c) {
  if (r <= 0.0f) return;
  const int x0 = static_cast<int>(std::floor(cx - r));
  const int x1 = static_cast<int>(std::ceil(cx + r));
  const int y0 = static_cast<int>(std::floor(cy - r));
  const int y1 = static_cast<int>(std::ceil(cy + r));
  const RectI box =
      RectI{x0, y0, x1 - x0 + 1, y1 - y0 + 1}.clipped(canvas.clipRect());
  // A box clipped empty in x still has rows, whose row pointer would lie
  // past the pixels.
  if (box.empty()) return;
  const float r2 = r * r;
  for (int y = box.y; y < box.y + box.h; ++y) {
    // Every (x, y) in the clipped box is inside the canvas; write through
    // the row pointer instead of re-checking containment per pixel.
    Color* row = &canvas.fb->at(box.x - canvas.region.x, y - canvas.region.y);
    const float dy = static_cast<float>(y) + 0.5f - cy;
    for (int x = box.x; x < box.x + box.w; ++x, ++row) {
      const float dx = static_cast<float>(x) + 0.5f - cx;
      if (dx * dx + dy * dy <= r2) *row = Color::over(*row, c);
    }
  }
}

namespace {

/// Intersects the parameter interval [t0, t1] of a(t) = o + d*t with the
/// slab lo <= o + d*t <= hi. Returns false when the intersection is empty.
bool clipAxis(float o, float d, float lo, float hi, float& t0, float& t1) {
  if (d == 0.0f) return o >= lo && o <= hi;
  float ta = (lo - o) / d;
  float tb = (hi - o) / d;
  if (ta > tb) std::swap(ta, tb);
  t0 = std::max(t0, ta);
  t1 = std::min(t1, tb);
  return t0 <= t1;
}

}  // namespace

void drawLine(Canvas canvas, Vec2 a, Vec2 b, Color c) {
  const float dx = b.x - a.x;
  const float dy = b.y - a.y;
  const int steps =
      static_cast<int>(std::max(std::abs(dx), std::abs(dy))) + 1;

  // Clip the *parameter range* against the canvas before the pixel walk
  // (Liang-Barsky over a 1px-inflated clip rect). The parametrization is
  // unchanged, so the pixels produced inside the canvas are bit-identical
  // to an unclipped walk — but a line crossing an off-tile cell no longer
  // costs O(length) rejected samples. The 1px inflation covers rounding:
  // a sample up to 0.5px outside the rect can still round to an inside
  // pixel.
  const RectI bounds = canvas.clipRect();
  if (bounds.empty()) return;
  float t0 = 0.0f, t1 = 1.0f;
  if (!clipAxis(a.x, dx, static_cast<float>(bounds.x) - 1.0f,
                static_cast<float>(bounds.x + bounds.w), t0, t1) ||
      !clipAxis(a.y, dy, static_cast<float>(bounds.y) - 1.0f,
                static_cast<float>(bounds.y + bounds.h), t0, t1)) {
    return;
  }
  const float fsteps = static_cast<float>(steps);
  const int i0 = std::max(0, static_cast<int>(std::floor(t0 * fsteps)));
  const int i1 = std::min(steps, static_cast<int>(std::ceil(t1 * fsteps)));
  for (int i = i0; i <= i1; ++i) {
    const float t = static_cast<float>(i) / fsteps;
    canvas.blend(static_cast<int>(std::round(a.x + dx * t)),
                 static_cast<int>(std::round(a.y + dy * t)), c);
  }
}

void drawThickLine(Canvas canvas, Vec2 a, Vec2 b, float halfWidth,
                   Color c, float feather) {
  halfWidth = std::max(0.5f, halfWidth);
  feather = std::max(0.25f, feather);
  const float reach = halfWidth + feather;
  const int x0 = static_cast<int>(std::floor(std::min(a.x, b.x) - reach));
  const int x1 = static_cast<int>(std::ceil(std::max(a.x, b.x) + reach));
  const int y0 = static_cast<int>(std::floor(std::min(a.y, b.y) - reach));
  const int y1 = static_cast<int>(std::ceil(std::max(a.y, b.y) + reach));
  const RectI box =
      RectI{x0, y0, x1 - x0 + 1, y1 - y0 + 1}.clipped(canvas.clipRect());
  if (box.empty()) return;
  Color* origin =
      &canvas.fb->at(box.x - canvas.region.x, box.y - canvas.region.y);
  thickLineBox(origin, static_cast<std::size_t>(canvas.fb->width()), box, a,
               b, halfWidth, feather, c);
}

void drawThickPolyline(Canvas canvas, std::span<const Vec2> points,
                       std::span<const Color> pointColors, float halfWidth) {
  for (std::size_t i = 1; i < points.size(); ++i) {
    // A zero-alpha vertex is a break sentinel (temporal-window gaps):
    // segments touching it are not drawn.
    if (pointColors[i - 1].a == 0 || pointColors[i].a == 0) continue;
    const Color c = Color::lerp(pointColors[i - 1], pointColors[i], 0.5f);
    drawThickLine(canvas, points[i - 1], points[i], halfWidth, c);
  }
}

namespace {

// 5x7 font: each glyph is 7 rows of 5-bit masks (MSB = leftmost column).
struct Glyph {
  char ch;
  std::uint8_t rows[7];
};

constexpr Glyph kGlyphs[] = {
    {'0', {0x0E, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0E}},
    {'1', {0x04, 0x0C, 0x04, 0x04, 0x04, 0x04, 0x0E}},
    {'2', {0x0E, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1F}},
    {'3', {0x1F, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0E}},
    {'4', {0x02, 0x06, 0x0A, 0x12, 0x1F, 0x02, 0x02}},
    {'5', {0x1F, 0x10, 0x1E, 0x01, 0x01, 0x11, 0x0E}},
    {'6', {0x06, 0x08, 0x10, 0x1E, 0x11, 0x11, 0x0E}},
    {'7', {0x1F, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08}},
    {'8', {0x0E, 0x11, 0x11, 0x0E, 0x11, 0x11, 0x0E}},
    {'9', {0x0E, 0x11, 0x11, 0x0F, 0x01, 0x02, 0x0C}},
    {'A', {0x0E, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11}},
    {'B', {0x1E, 0x11, 0x11, 0x1E, 0x11, 0x11, 0x1E}},
    {'C', {0x0E, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0E}},
    {'D', {0x1C, 0x12, 0x11, 0x11, 0x11, 0x12, 0x1C}},
    {'E', {0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x1F}},
    {'F', {0x1F, 0x10, 0x10, 0x1E, 0x10, 0x10, 0x10}},
    {'G', {0x0E, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0F}},
    {'H', {0x11, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11}},
    {'I', {0x0E, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E}},
    {'J', {0x07, 0x02, 0x02, 0x02, 0x02, 0x12, 0x0C}},
    {'K', {0x11, 0x12, 0x14, 0x18, 0x14, 0x12, 0x11}},
    {'L', {0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1F}},
    {'M', {0x11, 0x1B, 0x15, 0x15, 0x11, 0x11, 0x11}},
    {'N', {0x11, 0x19, 0x15, 0x13, 0x11, 0x11, 0x11}},
    {'O', {0x0E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E}},
    {'P', {0x1E, 0x11, 0x11, 0x1E, 0x10, 0x10, 0x10}},
    {'Q', {0x0E, 0x11, 0x11, 0x11, 0x15, 0x12, 0x0D}},
    {'R', {0x1E, 0x11, 0x11, 0x1E, 0x14, 0x12, 0x11}},
    {'S', {0x0F, 0x10, 0x10, 0x0E, 0x01, 0x01, 0x1E}},
    {'T', {0x1F, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04}},
    {'U', {0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E}},
    {'V', {0x11, 0x11, 0x11, 0x11, 0x11, 0x0A, 0x04}},
    {'W', {0x11, 0x11, 0x11, 0x15, 0x15, 0x1B, 0x11}},
    {'X', {0x11, 0x11, 0x0A, 0x04, 0x0A, 0x11, 0x11}},
    {'Y', {0x11, 0x11, 0x0A, 0x04, 0x04, 0x04, 0x04}},
    {'Z', {0x1F, 0x01, 0x02, 0x04, 0x08, 0x10, 0x1F}},
    {' ', {0, 0, 0, 0, 0, 0, 0}},
    {'-', {0, 0, 0, 0x0E, 0, 0, 0}},
    {'.', {0, 0, 0, 0, 0, 0x0C, 0x0C}},
    {':', {0, 0x0C, 0x0C, 0, 0x0C, 0x0C, 0}},
    {'/', {0x01, 0x01, 0x02, 0x04, 0x08, 0x10, 0x10}},
    {'%', {0x19, 0x19, 0x02, 0x04, 0x08, 0x13, 0x13}},
    {'=', {0, 0, 0x1F, 0, 0x1F, 0, 0}},
    {'(', {0x02, 0x04, 0x08, 0x08, 0x08, 0x04, 0x02}},
    {')', {0x08, 0x04, 0x02, 0x02, 0x02, 0x04, 0x08}},
    {'_', {0, 0, 0, 0, 0, 0, 0x1F}},
};

const Glyph* findGlyph(char c) {
  const char up = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  for (const auto& g : kGlyphs) {
    if (g.ch == up) return &g;
  }
  return nullptr;
}

constexpr std::uint8_t kUnknownRows[7] = {0x1F, 0x1F, 0x1F, 0x1F,
                                          0x1F, 0x1F, 0x1F};

}  // namespace

void drawTextTiny(Canvas canvas, int x, int y, std::string_view text,
                  Color c, int scale) {
  scale = std::max(1, scale);
  int cx = x;
  for (char ch : text) {
    const Glyph* g = findGlyph(ch);
    const std::uint8_t* rows = g ? g->rows : kUnknownRows;
    for (int row = 0; row < 7; ++row) {
      for (int col = 0; col < 5; ++col) {
        if (!(rows[row] & (0x10 >> col))) continue;
        fillRect(canvas,
                 {cx + col * scale, y + row * scale, scale, scale}, c);
      }
    }
    cx += 6 * scale;
  }
}

int textTinyWidth(std::string_view text, int scale) {
  return static_cast<int>(text.size()) * 6 * std::max(1, scale);
}

int textTinyHeight(int scale) { return 7 * std::max(1, scale); }

}  // namespace svq::render
