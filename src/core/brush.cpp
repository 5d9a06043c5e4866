#include "core/brush.h"

#include <algorithm>
#include <cmath>

namespace svq::core {

BrushGrid::BrushGrid(float arenaRadiusCm, int resolution)
    : arenaRadiusCm_(arenaRadiusCm),
      resolution_(std::max(8, resolution)),
      texelSizeCm_(2.0f * arenaRadiusCm / static_cast<float>(resolution_)) {
  texels_.assign(static_cast<std::size_t>(resolution_) *
                     static_cast<std::size_t>(resolution_),
                 kNoBrush);
}

AABB2 BrushGrid::clearAll() {
  const bool hadPaint =
      std::any_of(texels_.begin(), texels_.end(),
                  [](std::int8_t t) { return t != kNoBrush; });
  std::fill(texels_.begin(), texels_.end(), kNoBrush);
  return hadPaint ? bounds() : AABB2{};
}

AABB2 BrushGrid::clearBrush(std::int8_t brushIndex) {
  int tx0 = resolution_, ty0 = resolution_, tx1 = -1, ty1 = -1;
  for (int ty = 0; ty < resolution_; ++ty) {
    for (int tx = 0; tx < resolution_; ++tx) {
      auto& t = texels_[static_cast<std::size_t>(ty) *
                            static_cast<std::size_t>(resolution_) +
                        static_cast<std::size_t>(tx)];
      if (t == brushIndex) {
        t = kNoBrush;
        tx0 = std::min(tx0, tx);
        ty0 = std::min(ty0, ty);
        tx1 = std::max(tx1, tx);
        ty1 = std::max(ty1, ty);
      }
    }
  }
  return texelRect({tx0, ty0, tx1, ty1});
}

int BrushGrid::toTexel(float cm) const {
  return static_cast<int>(
      std::floor((cm + arenaRadiusCm_) / texelSizeCm_));
}

AABB2 BrushGrid::texelRect(const TexelBox& box) const {
  if (box.x0 > box.x1 || box.y0 > box.y1) return AABB2{};
  return AABB2::of(
      {static_cast<float>(box.x0) * texelSizeCm_ - arenaRadiusCm_,
       static_cast<float>(box.y0) * texelSizeCm_ - arenaRadiusCm_},
      {static_cast<float>(box.x1 + 1) * texelSizeCm_ - arenaRadiusCm_,
       static_cast<float>(box.y1 + 1) * texelSizeCm_ - arenaRadiusCm_});
}

BrushGrid::TexelBox BrushGrid::strokeTexels(const BrushStroke& stroke) const {
  return {std::max(0, toTexel(stroke.centerCm.x - stroke.radiusCm)),
          std::max(0, toTexel(stroke.centerCm.y - stroke.radiusCm)),
          std::min(resolution_ - 1,
                   toTexel(stroke.centerCm.x + stroke.radiusCm)),
          std::min(resolution_ - 1,
                   toTexel(stroke.centerCm.y + stroke.radiusCm))};
}

AABB2 BrushGrid::paint(const BrushStroke& stroke) {
  const TexelBox box = strokeTexels(stroke);
  const float r2 = stroke.radiusCm * stroke.radiusCm;
  for (int ty = box.y0; ty <= box.y1; ++ty) {
    for (int tx = box.x0; tx <= box.x1; ++tx) {
      // Texel centre in arena cm.
      const float cx =
          (static_cast<float>(tx) + 0.5f) * texelSizeCm_ - arenaRadiusCm_;
      const float cy =
          (static_cast<float>(ty) + 0.5f) * texelSizeCm_ - arenaRadiusCm_;
      const float dx = cx - stroke.centerCm.x;
      const float dy = cy - stroke.centerCm.y;
      if (dx * dx + dy * dy <= r2) {
        texels_[static_cast<std::size_t>(ty) *
                    static_cast<std::size_t>(resolution_) +
                static_cast<std::size_t>(tx)] = stroke.brushIndex;
      }
    }
  }
  return texelRect(box);
}

std::int8_t BrushGrid::brushAt(Vec2 arenaCm) const {
  const int tx = toTexel(arenaCm.x);
  const int ty = toTexel(arenaCm.y);
  if (tx < 0 || ty < 0 || tx >= resolution_ || ty >= resolution_) {
    return kNoBrush;
  }
  return texels_[static_cast<std::size_t>(ty) *
                     static_cast<std::size_t>(resolution_) +
                 static_cast<std::size_t>(tx)];
}

bool BrushGrid::hasPaint(std::int8_t brushIndex) const {
  return std::find(texels_.begin(), texels_.end(), brushIndex) !=
         texels_.end();
}

float BrushGrid::paintedAreaCm2(std::int8_t brushIndex) const {
  const auto count = std::count(texels_.begin(), texels_.end(), brushIndex);
  return static_cast<float>(count) * texelSizeCm_ * texelSizeCm_;
}

AABB2 BrushCanvas::addStroke(const BrushStroke& stroke) {
  strokes_.push_back(stroke);
  return grid_.paint(stroke);
}

AABB2 BrushCanvas::clear(std::int8_t brushIndex) {
  // kNoBrush is the single wildcard. Any other negative index cannot name
  // a stroke (paint never stores them), so reject it explicitly instead of
  // silently behaving like a second wildcard.
  if (brushIndex < 0 && brushIndex != kNoBrush) return AABB2{};

  // The texel rects, not the discs' bounding boxes: a painted texel
  // reaches up to half a texel past its disc.
  AABB2 dirty;
  std::erase_if(strokes_, [&](const BrushStroke& s) {
    if (brushIndex != kNoBrush && s.brushIndex != brushIndex) return false;
    dirty.expand(grid_.strokeRect(s));
    return true;
  });
  // No-op: nothing matched, or only strokes that missed the grid.
  if (!dirty.valid()) return AABB2{};
  rebuild();
  return dirty;
}

void BrushCanvas::rebuild() {
  grid_.clearAll();
  for (const BrushStroke& s : strokes_) grid_.paint(s);
}

BrushCanvas BrushCanvas::clone() const {
  BrushCanvas copy(grid_.arenaRadiusCm(), grid_.resolution());
  copy.grid_ = grid_;        // vector<int8_t> texels: fresh allocation
  copy.strokes_ = strokes_;  // stroke history: fresh allocation
  return copy;
}

void paintArenaHalf(BrushCanvas& canvas, std::int8_t brushIndex,
                    traj::ArenaSide side, float arenaRadiusCm,
                    float dabRadiusCm) {
  // Lay dabs on a grid covering the half-plane x<0 (west), x>0 (east),
  // y>0 (north) or y<0 (south), clipped to the arena disc.
  const float step = dabRadiusCm;  // overlapping dabs -> solid coverage
  for (float y = -arenaRadiusCm; y <= arenaRadiusCm; y += step) {
    for (float x = -arenaRadiusCm; x <= arenaRadiusCm; x += step) {
      const Vec2 p{x, y};
      if (p.norm() > arenaRadiusCm) continue;
      const bool inHalf = (side == traj::ArenaSide::kWest && x < 0.0f) ||
                          (side == traj::ArenaSide::kEast && x > 0.0f) ||
                          (side == traj::ArenaSide::kNorth && y > 0.0f) ||
                          (side == traj::ArenaSide::kSouth && y < 0.0f);
      if (inHalf) {
        canvas.addStroke(BrushStroke{brushIndex, p, dabRadiusCm});
      }
    }
  }
}

void paintArenaCenter(BrushCanvas& canvas, std::int8_t brushIndex,
                      float radiusCm, float dabRadiusCm) {
  const float step = dabRadiusCm;
  for (float y = -radiusCm; y <= radiusCm; y += step) {
    for (float x = -radiusCm; x <= radiusCm; x += step) {
      const Vec2 p{x, y};
      if (p.norm() <= radiusCm) {
        canvas.addStroke(BrushStroke{brushIndex, p, dabRadiusCm});
      }
    }
  }
}

}  // namespace svq::core
