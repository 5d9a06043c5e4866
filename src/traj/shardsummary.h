// shardsummary.h — per-shard spatial summary for aggregate-first queries.
//
// The anytime evaluation path (core/progressive.h) needs to answer "can
// this shard possibly contain a brush hit?" without loading the shard.
// The summary is a coarse occupancy grid plus a bounding envelope and a
// time range, persisted per shard in the SVQS v3 footer (and rebuilt
// lazily for v2 stores that predate it).
//
// Conservatism invariant (the contract everything above relies on): a
// segment is spatially hit iff one of its *probe points* — an endpoint
// or the segment midpoint, exactly what core::classifySegments tests —
// lands on painted brush texels. Every probe point of every member
// trajectory marks its occupancy cell here (midpoints rasterized
// explicitly; out-of-frame probes clamp into the border cells, which
// over-approximates but never under-approximates). Therefore: if the
// paint touches no occupied cell, the shard holds no spatial hit and
// "definitely-out" is exact, not heuristic. The reverse is never
// claimed — an occupied cell under paint only makes the shard
// *uncertain*, to be refined by exact evaluation.
#pragma once

#include <array>
#include <cstdint>

#include "traj/dataset.h"
#include "util/geometry.h"

namespace svq::traj {

/// Coarse spatial/temporal summary of one shard's trajectories.
struct ShardSummary {
  /// Occupancy grid dimension: kGridDim x kGridDim cells over the arena
  /// square [-R, +R]^2. 16x16 = 256 bits = 4 u64 words; one brush-mask
  /// intersection test is four ANDs.
  static constexpr int kGridDim = 16;
  static constexpr std::size_t kWords =
      static_cast<std::size_t>(kGridDim) * kGridDim / 64;
  /// On-disk size in the SVQS v3 footer: occupancy words + envelope
  /// (4 f32) + time range (2 f32).
  static constexpr std::size_t kSerializedBytes = kWords * 8 + 4 * 4 + 2 * 4;

  /// Bit (cy * kGridDim + cx) set iff any probe point of any member
  /// trajectory lands in cell (cx, cy).
  std::array<std::uint64_t, kWords> occupancy{};
  /// AABB over member sample points (midpoints are convex combinations of
  /// their endpoints, so the sample envelope covers them too). Invalid
  /// when the shard has no points.
  AABB2 envelope;
  /// Sample-time range over all members; [0, 0] when there are no points.
  float tMin = 0.0f;
  float tMax = 0.0f;

  bool occupancyEmpty() const {
    for (const std::uint64_t w : occupancy) {
      if (w != 0) return false;
    }
    return true;
  }
  void markCell(int cx, int cy) {
    const int bit = cy * kGridDim + cx;
    occupancy[static_cast<std::size_t>(bit) / 64] |= 1ull << (bit % 64);
  }
  bool cellSet(int cx, int cy) const {
    const int bit = cy * kGridDim + cx;
    return (occupancy[static_cast<std::size_t>(bit) / 64] >>
            (bit % 64)) & 1ull;
  }
  /// True iff any occupied cell is also set in `mask` (a paint-touch mask
  /// in the same bit layout).
  bool intersects(const std::array<std::uint64_t, kWords>& mask) const {
    for (std::size_t w = 0; w < kWords; ++w) {
      if ((occupancy[w] & mask[w]) != 0) return true;
    }
    return false;
  }
};

/// Occupancy cell index for one coordinate, clamped into [0, kGridDim):
/// out-of-arena probes land in the border cells (conservative — they can
/// never be painted, so the spurious occupancy only costs refinement).
int summaryCellOf(float coordCm, float arenaRadiusCm);

/// Folds one trajectory into `summary`: each of its probe points (every
/// sample and every segment midpoint) marks its cell, and the envelope
/// and time range widen over its samples. `anyPoint` says whether the
/// time range holds a sample yet; the calls that build one summary share
/// it. A fresh summary folded with one trajectory is that trajectory's
/// probe footprint (core/progressive.h keeps one per member).
void foldProbePoints(const Trajectory& traj, float arenaRadiusCm,
                     ShardSummary& summary, bool& anyPoint);

/// Computes the summary of a decoded shard: every sample point and every
/// segment midpoint of every trajectory marks its cell; the envelope and
/// time range cover the samples. The arena square comes from the
/// dataset's ArenaSpec.
ShardSummary computeShardSummary(const TrajectoryDataset& shard);

/// Plausibility check for a summary read from disk. The footer CRC
/// already rules out bit rot; this rejects *semantically* impossible
/// summaries (e.g. a stitched-together file whose entry claims points
/// but an empty occupancy grid, or a non-finite envelope). An
/// implausible summary is treated as absent — the shard stays uncertain
/// and falls back to exact evaluation, never to a wrong prune.
bool validateShardSummary(const ShardSummary& summary,
                          std::uint64_t pointCount);

}  // namespace svq::traj
