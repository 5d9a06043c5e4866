#include "core/clusterquery.h"

#include <algorithm>

namespace svq::core {

namespace {

/// Refs to the stored averages of the displayable nodes, in display order
/// (summary index = display position), so a query evaluates them in place
/// instead of on per-call copies.
std::vector<TrajectoryRef> displayableRefs(
    const std::vector<traj::Trajectory>& averages,
    std::span<const std::uint32_t> displayable) {
  std::vector<TrajectoryRef> refs;
  refs.reserve(displayable.size());
  for (std::size_t i = 0; i < displayable.size(); ++i) {
    refs.push_back({&averages[displayable[i]], static_cast<std::uint32_t>(i)});
  }
  return refs;
}

}  // namespace

SomExplorer::SomExplorer(const traj::TrajectoryDataset& dataset,
                         const traj::SomParams& somParams,
                         const traj::FeatureParams& featureParams)
    : dataset_(&dataset),
      clustering_(traj::clusterDataset(dataset, somParams, featureParams)) {
  for (std::uint32_t node = 0; node < clustering_.nodeCount(); ++node) {
    if (!clustering_.members[node].empty()) displayable_.push_back(node);
  }
}

std::vector<traj::Trajectory> SomExplorer::clusterAverages() const {
  std::vector<traj::Trajectory> out;
  out.reserve(displayable_.size());
  for (std::uint32_t node : displayable_) {
    out.push_back(clustering_.averages[node]);
  }
  return out;
}

QueryResult SomExplorer::queryClusters(const BrushGrid& brush,
                                       const QueryParams& params) const {
  return evaluate(displayableRefs(clustering_.averages, displayable_), brush,
                  params);
}

std::vector<std::uint32_t> SomExplorer::drillDown(
    std::uint32_t nodeIndex) const {
  if (nodeIndex >= clustering_.nodeCount()) return {};
  return clustering_.members[nodeIndex];
}

QueryResult SomExplorer::queryClusterMembers(std::uint32_t nodeIndex,
                                             const BrushGrid& brush,
                                             const QueryParams& params) const {
  const auto members = drillDown(nodeIndex);
  return evaluate(makeRefs(*dataset_, members), brush, params);
}

ShardSomExplorer::ShardSomExplorer(const traj::ShardStore& store,
                                   const traj::SomParams& somParams,
                                   const traj::FeatureParams& featureParams,
                                   ThreadPool* pool)
    : store_(&store),
      clustering_(
          traj::clusterShardStore(store, somParams, featureParams, pool)) {
  for (std::uint32_t node = 0; node < clustering_.nodeCount(); ++node) {
    if (!clustering_.members[node].empty()) displayable_.push_back(node);
  }
}

std::vector<traj::Trajectory> ShardSomExplorer::clusterAverages() const {
  std::vector<traj::Trajectory> out;
  out.reserve(displayable_.size());
  for (std::uint32_t node : displayable_) {
    out.push_back(clustering_.averages[node]);
  }
  return out;
}

QueryResult ShardSomExplorer::queryClusters(const BrushGrid& brush,
                                            const QueryParams& params) const {
  return evaluate(displayableRefs(clustering_.averages, displayable_), brush,
                  params);
}

std::vector<std::uint32_t> ShardSomExplorer::drillDown(
    std::uint32_t nodeIndex) const {
  if (nodeIndex >= clustering_.nodeCount()) return {};
  return clustering_.members[nodeIndex];
}

traj::TrajectoryDataset ShardSomExplorer::materializeCluster(
    std::uint32_t nodeIndex) const {
  traj::TrajectoryDataset out(store_->arena());
  const auto members = drillDown(nodeIndex);
  out.reserve(members.size());
  // Members are ascending, so shard loads are sequential: each member
  // shard is fetched once and served from the cache for its run.
  for (std::uint32_t g : members) {
    out.add(store_->trajectory(g));
  }
  return out;
}

QueryResult ShardSomExplorer::queryClusterMembers(
    std::uint32_t nodeIndex, const BrushGrid& brush,
    const QueryParams& params) const {
  const traj::TrajectoryDataset members = materializeCluster(nodeIndex);
  return evaluate(makeRefs(members.all()), brush, params);
}

float SomExplorer::clusterQueryFidelity(const BrushGrid& brush,
                                        const QueryParams& params) const {
  if (displayable_.empty()) return 1.0f;
  const QueryResult overview = queryClusters(brush, params);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < displayable_.size(); ++i) {
    const bool avgHit = overview.summaries[i].anyHighlight();
    const QueryResult detail =
        queryClusterMembers(displayable_[i], brush, params);
    const std::size_t hits = detail.trajectoriesHighlighted;
    const bool majorityHit = hits * 2 > detail.trajectoriesEvaluated;
    if (avgHit == majorityHit) ++agree;
  }
  return static_cast<float>(agree) / static_cast<float>(displayable_.size());
}

}  // namespace svq::core
