#include "traj/shardsummary.h"

#include <algorithm>
#include <cmath>

namespace svq::traj {

int summaryCellOf(float coordCm, float arenaRadiusCm) {
  const float cellSize =
      (2.0f * arenaRadiusCm) / static_cast<float>(ShardSummary::kGridDim);
  const float cell = (coordCm + arenaRadiusCm) / cellSize;
  // floor() then clamp, without a libm call or an out-of-range
  // conversion: clamping first makes truncation agree with floor, and
  // std::max(0, NaN) is 0.
  constexpr float kLast = static_cast<float>(ShardSummary::kGridDim - 1);
  return static_cast<int>(std::min(std::max(0.0f, cell), kLast));
}

void foldProbePoints(const Trajectory& traj, float arenaRadiusCm,
                     ShardSummary& summary, bool& anyPoint) {
  const PointsView pts = traj.view();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const float x = pts.x[i];
    const float y = pts.y[i];
    summary.markCell(summaryCellOf(x, arenaRadiusCm),
                     summaryCellOf(y, arenaRadiusCm));
    summary.envelope.expand(Vec2{x, y});
    if (!anyPoint) {
      summary.tMin = summary.tMax = pts.t[i];
      anyPoint = true;
    } else {
      summary.tMin = std::min(summary.tMin, pts.t[i]);
      summary.tMax = std::max(summary.tMax, pts.t[i]);
    }
    // Segment midpoints are probe points too (core::classifySegments
    // tests them), and a midpoint can land in a cell neither endpoint
    // occupies — rasterize it explicitly. The envelope needs no update:
    // a midpoint is a convex combination of its endpoints.
    if (i + 1 < pts.size()) {
      summary.markCell(
          summaryCellOf(0.5f * (x + pts.x[i + 1]), arenaRadiusCm),
          summaryCellOf(0.5f * (y + pts.y[i + 1]), arenaRadiusCm));
    }
  }
}

ShardSummary computeShardSummary(const TrajectoryDataset& shard) {
  ShardSummary summary;
  const float radius = shard.arena().radiusCm;
  bool anyPoint = false;
  for (const Trajectory& traj : shard.all()) {
    foldProbePoints(traj, radius, summary, anyPoint);
  }
  return summary;
}

bool validateShardSummary(const ShardSummary& summary,
                          std::uint64_t pointCount) {
  if (!std::isfinite(summary.tMin) || !std::isfinite(summary.tMax) ||
      summary.tMin > summary.tMax) {
    return false;
  }
  if (pointCount == 0) {
    // An empty shard must claim nothing.
    return summary.occupancyEmpty() && !summary.envelope.valid();
  }
  // Every probe point marks a cell, so points imply occupancy and a
  // finite, ordered envelope.
  if (summary.occupancyEmpty()) return false;
  if (!summary.envelope.valid() || !std::isfinite(summary.envelope.min.x) ||
      !std::isfinite(summary.envelope.min.y) ||
      !std::isfinite(summary.envelope.max.x) ||
      !std::isfinite(summary.envelope.max.y)) {
    return false;
  }
  return true;
}

}  // namespace svq::traj
