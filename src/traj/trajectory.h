// trajectory.h — core trajectory data model.
//
// A trajectory is a time-ordered polyline of 2D arena positions, plus the
// experimental metadata the paper's dataset carried: where the ant was
// captured relative to the colony's main foraging trail, which way it was
// heading, and its seed-carrying state. Positions are centimetres in arena
// space with the arena centre at the origin (ants are released at the
// centre); time is seconds since release.
//
// Storage is structure-of-arrays: one flat float buffer holding the x[],
// y[], and t[] channels as three contiguous spans, each padded to a
// multiple of kPointBlock points. Kernels (query point-in-brush, raster
// span ops) consume the channels through PointsView — the one sanctioned
// way to see points — so SIMD lanes read dense same-channel floats instead
// of striding over interleaved {x,y,t} records (DESIGN.md §12).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/geometry.h"

namespace svq::traj {

/// SoA channel padding granularity, in points. 64 points = 256 bytes per
/// channel = 4 cache lines = 8 AVX2 lanes' worth of floats, and divides
/// the SVQS shard block payload (whole SVQT points, 12 bytes each) so a
/// decoded shard block always fills whole SoA blocks with no straggler
/// remainder crossing a channel boundary.
inline constexpr std::size_t kPointBlock = 64;

/// One tracked sample: 2D arena position (cm) at time t (s since release).
/// With SoA storage this is the *exchange* type (I/O, synthesis, tests) —
/// trajectories do not store TrajPoint records internally.
struct TrajPoint {
  Vec2 pos;
  float t = 0.0f;

  constexpr bool operator==(const TrajPoint&) const = default;
  /// Space-time-cube embedding: XY = arena, Z = time.
  constexpr Vec3 spaceTime() const { return {pos.x, pos.y, t}; }
};

/// Non-owning SoA view over a trajectory's samples: three parallel float
/// spans of `count` live values each (the owning buffer pads every channel
/// to kPointBlock, so x/y/t each sit in contiguous, non-overlapping
/// storage). This is the kernel-facing point API: vector code loads lanes
/// straight from x/y/t; scalar code uses the indexed helpers.
struct PointsView {
  const float* x = nullptr;
  const float* y = nullptr;
  const float* t = nullptr;
  std::size_t count = 0;

  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }

  Vec2 pos(std::size_t i) const { return {x[i], y[i]}; }
  float time(std::size_t i) const { return t[i]; }
  Vec3 spaceTime(std::size_t i) const { return {x[i], y[i], t[i]}; }

  /// Materialized sample (by value — there is no AoS record to point at).
  TrajPoint operator[](std::size_t i) const { return {{x[i], y[i]}, t[i]}; }
  TrajPoint front() const { return (*this)[0]; }
  TrajPoint back() const { return (*this)[count - 1]; }
};

/// Position of the capture site relative to the colony's main foraging
/// trail (the trail runs north-south through the colony in our model).
enum class CaptureSide : std::uint8_t {
  kOnTrail = 0,
  kEast,
  kWest,
  kNorth,
  kSouth,
};

/// Direction of travel at the moment of capture.
enum class JourneyDirection : std::uint8_t {
  kOutbound = 0,  ///< heading away from the colony
  kReturning,     ///< heading back to the colony
};

/// Seed-carrying state at capture (drives the "search for dropped seed"
/// behaviour the pilot-study hypotheses probe).
enum class SeedState : std::uint8_t {
  kNotCarrying = 0,
  kCarrying,
  kDroppedAtCapture,  ///< was carrying, dropped the seed when captured
};

const char* toString(CaptureSide s);
const char* toString(JourneyDirection d);
const char* toString(SeedState s);

/// Parse helpers; return false on unknown token.
bool parseCaptureSide(const std::string& s, CaptureSide& out);
bool parseJourneyDirection(const std::string& s, JourneyDirection& out);
bool parseSeedState(const std::string& s, SeedState& out);

/// Experimental metadata attached to every trajectory.
struct TrajectoryMeta {
  std::uint32_t id = 0;
  CaptureSide side = CaptureSide::kOnTrail;
  JourneyDirection direction = JourneyDirection::kOutbound;
  SeedState seed = SeedState::kNotCarrying;

  constexpr bool operator==(const TrajectoryMeta&) const = default;
};

/// A single ant trajectory: metadata + time-ordered samples in SoA blocks.
///
/// Invariants maintained by the producers in this library (synthesizer,
/// dataset loader, resampler): points are sorted by strictly increasing t,
/// and the first sample is at t = 0.
class Trajectory {
 public:
  Trajectory() = default;
  Trajectory(TrajectoryMeta meta, const std::vector<TrajPoint>& points)
      : meta_(meta) {
    assignPoints(points);
  }

  const TrajectoryMeta& meta() const { return meta_; }
  TrajectoryMeta& meta() { return meta_; }

  /// SoA view of the samples — the one way kernels and iteration see
  /// points. Valid until the next mutation of this trajectory.
  PointsView view() const { return {xs(), ys(), ts(), size_}; }

  /// Appends one sample (amortized O(1); grows in whole kPointBlock units).
  void appendPoint(const TrajPoint& p) { appendPoint(p.pos, p.t); }
  void appendPoint(Vec2 pos, float t);

  /// Replaces all samples.
  void assignPoints(const std::vector<TrajPoint>& points);
  void clearPoints() { size_ = 0; }

  /// Writable x/y/t channels returned by resizePoints().
  struct Channels {
    float* x = nullptr;
    float* y = nullptr;
    float* t = nullptr;
  };
  /// Replaces all samples with `n` samples whose values the caller writes
  /// through the returned channels, each sample once (a decoder fills
  /// them straight from its input). Values are unspecified until written;
  /// the channels are valid until the next mutation of this trajectory.
  Channels resizePoints(std::size_t n);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  TrajPoint front() const { return view()[0]; }
  TrajPoint back() const { return view()[size_ - 1]; }
  TrajPoint operator[](std::size_t i) const { return view()[i]; }

  /// Total tracked duration in seconds (0 for < 2 points).
  float duration() const {
    return size_ >= 2 ? ts()[size_ - 1] - ts()[0] : 0.0f;
  }

  /// Sum of inter-sample segment lengths (cm).
  float pathLength() const;

  /// Straight-line distance from first to last sample (cm).
  float netDisplacement() const;

  /// 2D bounding box over all samples.
  AABB2 bounds() const;

  /// 3D space-time bounding box (Z = time).
  AABB3 spaceTimeBounds() const;

  /// Position linearly interpolated at time t (clamped to the tracked range).
  /// Precondition: !empty().
  Vec2 positionAt(float t) const;

  /// Index of the first sample with sample.t >= t (== size() if past end).
  std::size_t lowerBoundIndex(float t) const;

  /// True iff points are strictly increasing in t and start at t==0
  /// (within eps). Used by validation and property tests.
  bool wellFormed(float eps = 1e-4f) const;

 private:
  // Channel bases inside the flat buffer: [x: cap_][y: cap_][t: cap_].
  const float* xs() const { return soa_.data(); }
  const float* ys() const { return soa_.data() + cap_; }
  const float* ts() const { return soa_.data() + 2 * cap_; }
  float* xs() { return soa_.data(); }
  float* ys() { return soa_.data() + cap_; }
  float* ts() { return soa_.data() + 2 * cap_; }

  /// Grows capacity to at least `minPoints`, preserving live samples.
  void reservePoints(std::size_t minPoints);

  TrajectoryMeta meta_;
  std::vector<float> soa_;   ///< 3 * cap_ floats: x block, y block, t block.
  std::size_t cap_ = 0;      ///< per-channel capacity, multiple of kPointBlock
  std::size_t size_ = 0;     ///< live samples per channel
};

}  // namespace svq::traj
