// clusterscene.h — small multiples of SOM cluster averages (§VI.C).
//
// "The small-multiple layout would be adapted to visualize and juxtapose
// cluster averages instead of showing individual trajectories" — this
// module builds renderable SceneModels for the two exploration scales:
// the overview (one cell per non-empty SOM cluster, laid out in lattice
// order with member-count labels) and the drill-down (a zoomed cluster's
// member trajectories in the usual layout). Both run the same brush
// query machinery, so the interaction idiom is unchanged across scales.
#pragma once

#include <span>

#include "core/clusterquery.h"
#include "core/layout.h"
#include "core/progressive.h"
#include "render/scene.h"
#include "wall/wall.h"

namespace svq::core {

/// Scene-building options for the cluster views.
struct ClusterSceneOptions {
  /// Tint cluster cells by relative member count (denser = brighter).
  bool tintBySize = true;
  /// Label cells with "N=<members>".
  bool labelCounts = true;
  /// When the backing clustering covers < 100% of the store (shards were
  /// quarantined — see ShardStore), mark every cluster cell as holding
  /// partial data: a "*" label suffix and a warning-tinted background.
  /// Cells are marked wall-wide because quarantine loses *membership*
  /// information — any cluster may be missing members. Scenes over a
  /// fully healthy store render identically with this on or off.
  bool markPartialData = true;
  render::StereoSettings stereo;
  Vec2 timeWindow{0.0f, 1e9f};
};

/// Overview scene: one cell per displayable (non-empty) cluster, in SOM
/// lattice order, in a near-square grid apportioned over the wall.
/// `brush` may be empty (no highlights). The returned dataset holds the
/// cluster-average trajectories and must be passed to
/// CellRenderPipeline::render alongside the scene.
struct ClusterOverviewScene {
  traj::TrajectoryDataset averagesDataset;  ///< cluster averages as dataset
  render::SceneModel scene;
  /// scene.cells[i] shows averagesDataset[i], which is cluster
  /// displayableClusters()[i].
  std::vector<std::uint32_t> cellToNode;
  /// Fraction of the source trajectories behind this overview; < 1.0 when
  /// shards were quarantined (cells carry partial-data markers then).
  double coverage = 1.0;
};

ClusterOverviewScene buildClusterOverview(const SomExplorer& explorer,
                                          const wall::WallSpec& wallSpec,
                                          const BrushGrid* brush,
                                          const ClusterSceneOptions& options);

/// Overview scene over an out-of-core store: identical layout and brush
/// semantics, but only the cluster averages are resident — the store's
/// trajectories stay on disk.
ClusterOverviewScene buildClusterOverview(const ShardSomExplorer& explorer,
                                          const wall::WallSpec& wallSpec,
                                          const BrushGrid* brush,
                                          const ClusterSceneOptions& options);

/// Overview scene for an anytime evaluation in progress: cells show the
/// (exact) prototype highlights immediately, labels carry the per-cluster
/// member hit count — "hit=<n>" once that cluster is fully refined,
/// "hit~<n>" (prototype-extrapolated) before — and CellView::coverage
/// exposes the refined fraction for the render layer's coverage strip.
/// Once every estimate has converged the output is bit-identical (cell
/// content hashes and pixels) to the scene built from
/// ProgressiveClusterQuery::exactReference — the render half of the
/// anytime exactness contract.
ClusterOverviewScene buildProgressiveOverview(
    const ShardSomExplorer& explorer, const QueryResult& prototypes,
    std::span<const ClusterEstimate> estimates,
    const wall::WallSpec& wallSpec, const ClusterSceneOptions& options);

/// Convenience wrapper over an engine's current state.
ClusterOverviewScene buildProgressiveOverview(
    const ProgressiveClusterQuery& query, const wall::WallSpec& wallSpec,
    const ClusterSceneOptions& options);

/// Drill-down scene for one cluster: its member trajectories in the
/// standard grid, queried with the same brush at full fidelity.
render::SceneModel buildClusterDrillDown(const SomExplorer& explorer,
                                         std::uint32_t nodeIndex,
                                         const wall::WallSpec& wallSpec,
                                         const BrushGrid* brush,
                                         const ClusterSceneOptions& options);

/// Drill-down over an out-of-core store: the chosen cluster's members are
/// materialized from the shard cache on demand and returned alongside the
/// scene (cells index membersDataset; cellToGlobalIndex maps back to
/// store indices). The same brush machinery runs unchanged.
struct ClusterDrillDownScene {
  traj::TrajectoryDataset membersDataset;  ///< materialized cluster members
  render::SceneModel scene;
  /// scene.cells[i] shows membersDataset[i] == store trajectory
  /// cellToGlobalIndex[i].
  std::vector<std::uint32_t> cellToGlobalIndex;
  /// Coverage of the clustering this drill-down came from (< 1.0 means
  /// this cluster's member list may itself be incomplete).
  double coverage = 1.0;
};

ClusterDrillDownScene buildClusterDrillDown(const ShardSomExplorer& explorer,
                                            std::uint32_t nodeIndex,
                                            const wall::WallSpec& wallSpec,
                                            const BrushGrid* brush,
                                            const ClusterSceneOptions& options);

/// Grid shape used for N cells on a wall (near-square, wall aspect aware).
LayoutConfig clusterGridFor(std::size_t cellCount,
                            const wall::WallSpec& wallSpec);

}  // namespace svq::core
