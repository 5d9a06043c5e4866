#include "traj/trajectory.h"

#include <algorithm>
#include <cmath>

namespace svq::traj {

const char* toString(CaptureSide s) {
  switch (s) {
    case CaptureSide::kOnTrail: return "on_trail";
    case CaptureSide::kEast: return "east";
    case CaptureSide::kWest: return "west";
    case CaptureSide::kNorth: return "north";
    case CaptureSide::kSouth: return "south";
  }
  return "?";
}

const char* toString(JourneyDirection d) {
  switch (d) {
    case JourneyDirection::kOutbound: return "outbound";
    case JourneyDirection::kReturning: return "returning";
  }
  return "?";
}

const char* toString(SeedState s) {
  switch (s) {
    case SeedState::kNotCarrying: return "no_seed";
    case SeedState::kCarrying: return "carrying";
    case SeedState::kDroppedAtCapture: return "dropped";
  }
  return "?";
}

bool parseCaptureSide(const std::string& s, CaptureSide& out) {
  if (s == "on_trail") out = CaptureSide::kOnTrail;
  else if (s == "east") out = CaptureSide::kEast;
  else if (s == "west") out = CaptureSide::kWest;
  else if (s == "north") out = CaptureSide::kNorth;
  else if (s == "south") out = CaptureSide::kSouth;
  else return false;
  return true;
}

bool parseJourneyDirection(const std::string& s, JourneyDirection& out) {
  if (s == "outbound") out = JourneyDirection::kOutbound;
  else if (s == "returning") out = JourneyDirection::kReturning;
  else return false;
  return true;
}

bool parseSeedState(const std::string& s, SeedState& out) {
  if (s == "no_seed") out = SeedState::kNotCarrying;
  else if (s == "carrying") out = SeedState::kCarrying;
  else if (s == "dropped") out = SeedState::kDroppedAtCapture;
  else return false;
  return true;
}

void Trajectory::reservePoints(std::size_t minPoints) {
  if (minPoints <= cap_) return;
  std::size_t cap = cap_ == 0 ? kPointBlock : cap_;
  while (cap < minPoints) cap *= 2;
  // cap is kPointBlock << k, so channel bases stay block-aligned.
  std::vector<float> grown(3 * cap, 0.0f);
  if (size_ > 0) {
    std::copy_n(xs(), size_, grown.data());
    std::copy_n(ys(), size_, grown.data() + cap);
    std::copy_n(ts(), size_, grown.data() + 2 * cap);
  }
  soa_ = std::move(grown);
  cap_ = cap;
}

void Trajectory::appendPoint(Vec2 pos, float t) {
  reservePoints(size_ + 1);
  xs()[size_] = pos.x;
  ys()[size_] = pos.y;
  ts()[size_] = t;
  ++size_;
}

void Trajectory::assignPoints(const std::vector<TrajPoint>& points) {
  const Channels c = resizePoints(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    c.x[i] = points[i].pos.x;
    c.y[i] = points[i].pos.y;
    c.t[i] = points[i].t;
  }
}

Trajectory::Channels Trajectory::resizePoints(std::size_t n) {
  size_ = 0;  // nothing to preserve when growing
  reservePoints(n);
  size_ = n;
  return {xs(), ys(), ts()};
}

float Trajectory::pathLength() const {
  const PointsView v = view();
  float len = 0.0f;
  for (std::size_t i = 1; i < v.count; ++i) {
    len += (v.pos(i) - v.pos(i - 1)).norm();
  }
  return len;
}

float Trajectory::netDisplacement() const {
  if (size_ < 2) return 0.0f;
  const PointsView v = view();
  return (v.pos(v.count - 1) - v.pos(0)).norm();
}

AABB2 Trajectory::bounds() const {
  const PointsView v = view();
  AABB2 box;
  for (std::size_t i = 0; i < v.count; ++i) box.expand(v.pos(i));
  return box;
}

AABB3 Trajectory::spaceTimeBounds() const {
  const PointsView v = view();
  AABB3 box;
  for (std::size_t i = 0; i < v.count; ++i) box.expand(v.spaceTime(i));
  return box;
}

std::size_t Trajectory::lowerBoundIndex(float t) const {
  const float* begin = ts();
  const float* end = begin + size_;
  return static_cast<std::size_t>(std::lower_bound(begin, end, t) - begin);
}

Vec2 Trajectory::positionAt(float t) const {
  const PointsView v = view();
  if (v.count == 1) return v.pos(0);
  if (t <= v.time(0)) return v.pos(0);
  if (t >= v.time(v.count - 1)) return v.pos(v.count - 1);
  const std::size_t hi = lowerBoundIndex(t);
  const std::size_t lo = hi - 1;
  const float span = v.time(hi) - v.time(lo);
  const float u = span > 0.0f ? (t - v.time(lo)) / span : 0.0f;
  return lerp(v.pos(lo), v.pos(hi), u);
}

bool Trajectory::wellFormed(float eps) const {
  if (size_ == 0) return true;
  const float* t = ts();
  if (std::abs(t[0]) > eps) return false;
  for (std::size_t i = 1; i < size_; ++i) {
    if (t[i] <= t[i - 1]) return false;
  }
  return true;
}

}  // namespace svq::traj
