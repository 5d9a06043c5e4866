#include "core/progressive.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace svq::core {

AnytimeOptions AnytimeOptions::fromEnv() {
  AnytimeOptions options;
  if (const char* raw = std::getenv("SVQ_ANYTIME_BUDGET_MS")) {
    char* end = nullptr;
    const long long ms = std::strtoll(raw, &end, 10);
    if (end != raw && *end == '\0' && ms > 0) {
      options.prepassBudgetUs = static_cast<std::int64_t>(ms) * 1000;
    }
  }
  return options;
}

namespace {

using CellMask = std::array<std::uint64_t, traj::ShardSummary::kWords>;
constexpr int kCellDim = traj::ShardSummary::kGridDim;

/// The summary cells [first, last] that texel row or column `t` of a
/// `res`-texel axis overlaps: texel t spans the arena fraction
/// [t/res, (t+1)/res), cell c spans [c/kDim, (c+1)/kDim) — integer floor
/// arithmetic, exact for any resolution. paintTouchMask and begin()'s
/// texel diff both map texels to cells through it.
std::pair<int, int> texelCellSpan(int t, int res) {
  return {t * kCellDim / res, ((t + 1) * kCellDim - 1) / res};
}

void markCells(CellMask& mask, std::pair<int, int> xs, std::pair<int, int> ys) {
  for (int cy = ys.first; cy <= ys.second; ++cy) {
    for (int cx = xs.first; cx <= xs.second; ++cx) {
      const int bit = cy * kCellDim + cx;
      mask[static_cast<std::size_t>(bit) / 64] |= 1ull << (bit % 64);
    }
  }
}

bool meets(const CellMask& a, const CellMask& b) {
  for (std::size_t w = 0; w < a.size(); ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

/// The mask and the occupancy grid must partition the *same* arena
/// square, or a texel's cells are not the cells its points land in.
bool sameArena(float brushRadiusCm, float summaryRadiusCm) {
  const float tolerance = 1e-4f * std::max(1.0f, std::abs(summaryRadiusCm));
  return std::abs(brushRadiusCm - summaryRadiusCm) <= tolerance;
}

constexpr float kInf = std::numeric_limits<float>::infinity();

}  // namespace

std::array<std::uint64_t, traj::ShardSummary::kWords> paintTouchMask(
    const BrushGrid& brush, float summaryArenaRadiusCm) {
  CellMask mask{};
  const BrushGridView view = brush.view();
  if (view.texels == nullptr || view.resolution <= 0) return mask;

  // A radius mismatch disables pruning entirely (all-ones mask) instead
  // of risking a wrong definitely-out.
  if (!sameArena(view.arenaRadiusCm, summaryArenaRadiusCm)) {
    mask.fill(~0ull);
    return mask;
  }

  const int res = view.resolution;
  for (int ty = 0; ty < res; ++ty) {
    const std::pair<int, int> ys = texelCellSpan(ty, res);
    const std::int8_t* row = view.texels + static_cast<std::size_t>(ty) * res;
    for (int tx = 0; tx < res; ++tx) {
      if (row[tx] != kNoBrush) markCells(mask, texelCellSpan(tx, res), ys);
    }
  }
  return mask;
}

ProgressiveClusterQuery::ProgressiveClusterQuery(
    const ShardSomExplorer& explorer, AnytimeOptions options)
    : explorer_(&explorer),
      options_(options),
      members_(explorer.store().trajectoryCount()) {
  const traj::ShardClustering& clustering = explorer.clustering();
  const std::vector<std::uint32_t>& displayable =
      explorer.displayableClusters();

  std::vector<std::uint32_t> slotOfNode(clustering.nodeCount(), kNoSlot);
  for (std::size_t slot = 0; slot < displayable.size(); ++slot) {
    slotOfNode[displayable[slot]] = static_cast<std::uint32_t>(slot);
  }
  const std::size_t assigned =
      std::min(members_.size(), clustering.assignment.size());
  for (std::size_t g = 0; g < assigned; ++g) {
    const std::uint32_t node = clustering.assignment[g];
    if (node < slotOfNode.size()) members_[g].slot = slotOfNode[node];
  }
}

void ProgressiveClusterQuery::dirtyFlippable(const BrushGrid& brush,
                                             const QueryParams& params,
                                             float summaryArenaRadiusCm) {
  const BrushGridView was = brush_.view();
  const BrushGridView now = brush.view();
  const Vec2 w0 = params_.timeWindow;
  const Vec2 w1 = params.timeWindow;
  const bool everything =
      params.brushCount != params_.brushCount ||
      params_.relativeWindow.has_value() || params.relativeWindow.has_value() ||
      now.resolution <= 0 || now.texels == nullptr || was.texels == nullptr ||
      now.resolution != was.resolution ||
      now.arenaRadiusCm != was.arenaRadiusCm ||
      !sameArena(now.arenaRadiusCm, summaryArenaRadiusCm) ||
      std::isnan(w0.x) || std::isnan(w0.y) || std::isnan(w1.x) ||
      std::isnan(w1.y);
  if (everything) {
    for (Member& m : members_) m.clean = false;
    return;
  }

  // Texel diff: each changed texel adds hits, removes them, or both.
  CellMask adds{};
  CellMask removes{};
  bool painted = false;
  const int res = now.resolution;
  const std::size_t brushCount = params.brushCount;
  for (int ty = 0; ty < res; ++ty) {
    const std::size_t row = static_cast<std::size_t>(ty) * res;
    const std::int8_t* a = was.texels + row;
    const std::int8_t* b = now.texels + row;
    if (std::memcmp(a, b, static_cast<std::size_t>(res)) == 0) continue;
    const std::pair<int, int> ys = texelCellSpan(ty, res);
    for (int tx = 0; tx < res; ++tx) {
      if (a[tx] == b[tx]) continue;
      const bool aCounted = countedBrush(a[tx], brushCount);
      const bool bCounted = countedBrush(b[tx], brushCount);
      // Uncounted paint still masks a segment's later probes, so a change
      // to or from it can turn a hit into a miss and back.
      const bool uncounted = (a[tx] != kNoBrush && !aCounted) ||
                             (b[tx] != kNoBrush && !bCounted);
      const std::pair<int, int> xs = texelCellSpan(tx, res);
      if (uncounted || a[tx] == kNoBrush) markCells(adds, xs, ys);
      if (uncounted || b[tx] == kNoBrush) markCells(removes, xs, ys);
      painted = true;
    }
  }

  // Window edges: the interval each moved edge swept, and whether moving
  // it widened the window (adds hits) or narrowed it (removes them).
  struct Edge {
    float lo, hi;
    bool adds;
  };
  std::array<Edge, 2> edges{};
  std::size_t edgeCount = 0;
  if (w1.x != w0.x) {
    edges[edgeCount++] = {std::min(w0.x, w1.x), std::max(w0.x, w1.x),
                          w1.x < w0.x};
  }
  if (w1.y != w0.y) {
    edges[edgeCount++] = {std::min(w0.y, w1.y), std::max(w0.y, w1.y),
                          w1.y > w0.y};
  }
  if (!painted && edgeCount == 0) return;

  for (Member& m : members_) {
    if (!m.clean) continue;
    // A hit can only flip through removals, a miss through additions.
    bool flips = meets(m.cells, m.hit ? removes : adds);
    for (std::size_t e = 0; e < edgeCount && !flips; ++e) {
      flips = edges[e].adds != m.hit && m.tMax >= edges[e].lo &&
              m.tMin <= edges[e].hi;
    }
    if (flips) m.clean = false;
  }
}

std::pair<std::uint64_t, std::uint64_t> ProgressiveClusterQuery::memberRange(
    std::size_t shard) const {
  const traj::ShardInfo& info = explorer_->store().shardInfo(shard);
  const std::uint64_t size = members_.size();
  const std::uint64_t first = std::min(info.firstGlobalIndex, size);
  return {first, std::min(first + info.trajectoryCount, size)};
}

void ProgressiveClusterQuery::begin(const BrushGrid& brush,
                                    const QueryParams& params) {
  const traj::ShardStore& store = explorer_->store();
  const float summaryRadius = store.arena().radiusCm;
  // Before the first begin() every member is dirty already.
  if (active_) dirtyFlippable(brush, params, summaryRadius);

  brush_ = brush;
  params_ = params;
  active_ = true;
  pending_.clear();
  cursor_ = 0;
  prunedShards_ = 0;
  refinedShards_ = 0;
  lostMembers_ = 0;

  // First pixel: the prototypes (one per displayable cluster) are small
  // and evaluated exactly, inside the budget by construction.
  prototypes_ = explorer_->queryClusters(brush_, params_);

  const traj::ShardClustering& clustering = explorer_->clustering();
  const std::vector<std::uint32_t>& displayable =
      explorer_->displayableClusters();
  estimates_.assign(displayable.size(), {});
  for (std::size_t slot = 0; slot < displayable.size(); ++slot) {
    ClusterEstimate& est = estimates_[slot];
    est.node = displayable[slot];
    est.members = clustering.members[est.node].size();
    est.prototypeHit = slot < prototypes_.summaries.size() &&
                       prototypes_.summaries[slot].anyHighlight();
  }

  // Aggregate pre-pass: classify every shard against the paint-touch
  // mask and the absolute time window, under the latency budget. v3
  // stores answer summary() from the footer (no IO); v2 stores pay one
  // lazy rebuild per shard, which is exactly the work the deadline
  // bounds — expiry leaves the rest uncertain, never wrong. A shard the
  // summary cannot prove out, but with no dirty member, resolves from
  // the kept verdicts — also without IO. A quarantined shard always
  // goes to refinement, which counts its members lost.
  const auto mask = paintTouchMask(brush_, summaryRadius);
  const util::Deadline deadline =
      util::Deadline::after(options_.prepassBudgetUs, options_.clock);

  for (std::size_t s = 0; s < store.shardCount(); ++s) {
    const auto [first, last] = memberRange(s);
    std::uint32_t assigned = 0;
    bool dirty = false;
    for (std::uint64_t g = first; g < last; ++g) {
      if (members_[g].slot == kNoSlot) continue;
      ++assigned;
      dirty = dirty || !members_[g].clean;
    }
    if (assigned == 0) continue;  // nothing displayed lives here

    if (!deadline.expired()) {
      if (const auto summary = store.summary(s)) {
        const bool temporalOut =
            !params_.relativeWindow && (params_.timeWindow.y < summary->tMin ||
                                        params_.timeWindow.x > summary->tMax);
        if (temporalOut || !summary->intersects(mask)) {
          ++prunedShards_;
          resolveShardEmpty(s, *summary);
          continue;
        }
      }
    }
    if (!dirty && !store.isQuarantined(s)) {
      applyVerdicts(first, last, last);
      continue;
    }
    pending_.push_back(
        {static_cast<std::uint32_t>(s), assigned, store.isResident(s)});
  }

  // Resident shards first (a cache hit never evicts, so they cost no
  // read), then largest population first: each refinement step retires
  // the most uncertainty it can. Shard index makes the order total.
  std::sort(pending_.begin(), pending_.end(),
            [](const ShardWork& a, const ShardWork& b) {
              if (a.resident != b.resident) return a.resident;
              if (a.assignedMembers != b.assignedMembers) {
                return a.assignedMembers > b.assignedMembers;
              }
              return a.shard < b.shard;
            });
}

std::size_t ProgressiveClusterQuery::refineStep(
    std::size_t maxShards, const util::Cancellation& cancel) {
  if (!active_) return 0;
  std::size_t done = 0;
  while (done < maxShards && cursor_ < pending_.size()) {
    if (done > 0 && cancel.shouldStop()) break;
    resolveShardExact(pending_[cursor_].shard);
    ++cursor_;
    ++refinedShards_;
    ++done;
  }
  return done;
}

void ProgressiveClusterQuery::resolveShardExact(std::size_t shard) {
  const traj::ShardStore& store = explorer_->store();
  const std::shared_ptr<const traj::TrajectoryDataset> ds = store.shard(shard);
  const auto [first, last] = memberRange(shard);
  // Readable members: those the decoded shard holds. The rest (all of a
  // quarantined shard's) can never be evaluated and stay as they are.
  const std::uint64_t readable =
      ds == nullptr ? first : std::min<std::uint64_t>(last, first + ds->size());

  dirty_.clear();
  for (std::uint64_t g = first; g < readable; ++g) {
    if (members_[g].slot != kNoSlot && !members_[g].clean) dirty_.push_back(g);
  }
  const float radius = store.arena().radiusCm;
  auto evaluateDirty = [&](std::size_t k) {
    Member& m = members_[dirty_[k]];
    const auto local = static_cast<std::uint32_t>(dirty_[k] - first);
    const traj::Trajectory& trajectory = (*ds)[local];
    if (!m.exactFootprint) {
      traj::ShardSummary footprint;
      bool anyPoint = false;
      traj::foldProbePoints(trajectory, radius, footprint, anyPoint);
      keepFootprint(m, footprint);
      m.exactFootprint = true;
    }
    m.hit = anyHighlight({&trajectory, local}, brush_, params_);
    m.clean = true;
  };
  // The dispatch evaluate() uses; parallelFor runs fewer than two grains
  // inline. Verdicts are per trajectory, so the result is order- and
  // thread-count-invariant.
  if (params_.parallel) {
    parallelFor(0, dirty_.size(), evaluateDirty, 8);
  } else {
    for (std::size_t k = 0; k < dirty_.size(); ++k) evaluateDirty(k);
  }

  applyVerdicts(first, readable, last);
}

void ProgressiveClusterQuery::resolveShardEmpty(
    std::size_t shard, const traj::ShardSummary& summary) {
  const auto [first, last] = memberRange(shard);
  for (std::uint64_t g = first; g < last; ++g) {
    Member& m = members_[g];
    if (m.slot == kNoSlot) continue;
    ++estimates_[m.slot].refinedMembers;
    m.clean = true;
    m.hit = false;
    // The summary covers every member's probe points and sample times.
    if (!m.exactFootprint) keepFootprint(m, summary);
  }
}

void ProgressiveClusterQuery::keepFootprint(
    Member& m, const traj::ShardSummary& footprint) {
  m.cells = footprint.occupancy;
  // A NaN first sample leaves the folded range NaN: cover all time.
  const bool ranged = footprint.tMin <= footprint.tMax;
  m.tMin = ranged ? footprint.tMin : -kInf;
  m.tMax = ranged ? footprint.tMax : kInf;
}

void ProgressiveClusterQuery::applyVerdicts(std::uint64_t first,
                                            std::uint64_t readable,
                                            std::uint64_t last) {
  for (std::uint64_t g = first; g < last; ++g) {
    const Member& m = members_[g];
    if (m.slot == kNoSlot) continue;
    ClusterEstimate& est = estimates_[m.slot];
    ++est.refinedMembers;
    if (g >= readable) {
      // Quarantined at refinement time: the member can never be
      // evaluated. It counts refined with zero hits so the query still
      // converges, and lostMembers() surfaces the gap. Quarantine is
      // deterministic for a given file + fault seed, so this stays
      // bit-identical too.
      ++lostMembers_;
    } else if (m.hit) {
      ++est.exactHits;
    }
  }
}

double ProgressiveClusterQuery::coverage() const {
  std::uint64_t members = 0;
  std::uint64_t refined = 0;
  for (const ClusterEstimate& est : estimates_) {
    members += est.members;
    refined += est.refinedMembers;
  }
  return members == 0 ? 1.0
                      : static_cast<double>(refined) /
                            static_cast<double>(members);
}

std::vector<ClusterEstimate> ProgressiveClusterQuery::exactReference(
    const ShardSomExplorer& explorer, const BrushGrid& brush,
    const QueryParams& params) {
  const traj::ShardClustering& clustering = explorer.clustering();
  const std::vector<std::uint32_t>& displayable =
      explorer.displayableClusters();
  const QueryResult prototypes = explorer.queryClusters(brush, params);

  std::vector<ClusterEstimate> reference(displayable.size());
  for (std::size_t slot = 0; slot < displayable.size(); ++slot) {
    ClusterEstimate& est = reference[slot];
    est.node = displayable[slot];
    est.members = clustering.members[est.node].size();
    est.refinedMembers = est.members;
    est.prototypeHit = slot < prototypes.summaries.size() &&
                       prototypes.summaries[slot].anyHighlight();
    const QueryResult exact =
        explorer.queryClusterMembers(est.node, brush, params);
    for (const HighlightSummary& summary : exact.summaries) {
      if (summary.anyHighlight()) ++est.exactHits;
    }
  }
  return reference;
}

}  // namespace svq::core
