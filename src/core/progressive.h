// progressive.h — two-phase anytime query evaluation over a shard store.
//
// At the 100k–1M scale a from-scratch exact brush query walks every shard
// of the store — far beyond a 16 ms frame budget. This engine splits the
// evaluation in two:
//
//   1. Aggregate pre-pass (begin()): the brush is tested against the SOM
//      cluster prototypes (the overview's displayed content — this is the
//      "first pixel") and against the per-shard spatial summaries
//      (traj/shardsummary.h). Each shard is classified *definitely-out*
//      (its occupancy grid misses every painted cell, or its time range
//      misses the absolute window — both exact, by the summary's
//      conservatism invariant) or *uncertain*. The pre-pass runs under a
//      latency budget (AnytimeOptions::prepassBudgetUs, default 16 ms /
//      SVQ_ANYTIME_BUDGET_MS): when it expires, every unclassified shard
//      simply stays uncertain — over-approximation is always safe.
//   2. Progressive refinement (refineStep()): uncertain shards drain
//      through the exact existence pass (core::anyHighlight); per-cluster
//      hit counts tighten from prototype-based estimates toward exact
//      values, and estimates() exposes per-cluster coverage for the
//      render layer's partial-data overlays.
//
// Kept verdicts. The engine keeps, per store trajectory and across
// begin() calls, an exact verdict, a clean bit and a footprint: the
// member's probe-point occupancy in the summary bit layout plus its
// sample-time range (48 bytes a member: 144 KB at 3k trajectories,
// 48 MB at 1M). Invariant: a clean member's verdict equals
// anyHighlight() under the current brush and params. begin() diffs the
// new brush texels and window against the previous begin()'s and dirties
// only the clean members whose verdict that change can flip:
//   * texels: none→counted paint adds hits, counted→none removes them,
//     counted→counted flips nothing, and a change to or from paint that
//     is never counted (an index at or past brushCount; past 127 it
//     reads negative) both adds and removes — such paint still masks a
//     segment's later probes. Index 255 is kNoBrush itself, so a dab of
//     it erases: a change to none. A clean miss whose footprint meets an
//     add cell turns dirty, a clean hit one that meets a remove cell;
//   * window edges: an edge that widens dirties the misses, one that
//     narrows the hits, in both cases only members whose time range
//     meets the interval the edge moved over;
//   * everything turns dirty on the first begin(), a brushCount, grid
//     resolution or arena change, a brush/summary radius mismatch, and
//     whenever the old or new params carry a relative window.
// Every member starts dirty; a shard the pre-pass prunes makes its
// members clean misses (the summary proves them, and becomes the
// footprint of those never evaluated); a shard quarantined during
// refinement leaves its dirty members dirty. A dirty member stays dirty
// across interrupted begin() calls until it is evaluated, which is what
// lets the diffs chain from edit to edit. An unpruned shard with no
// dirty member resolves inside begin() from the kept verdicts, without
// IO and without counting as pruned; the others are pending, and
// refining one evaluates only its dirty members.
//
// Order. Pending shards drain resident-first (ShardStore::isResident:
// a hit never evicts, so the shards the last edit left in the cache are
// read for free), then by assigned population, largest first, then by
// index. Intermediate coverage therefore depends on the cache state and
// the previous edit; the converged answer does not, and replay stays
// deterministic because its steps run in order.
//
// Exactness contract: a shard is only ever skipped when the summary
// *proves* it contributes nothing, a kept verdict is only ever reused
// when no change since it was taken can flip it, and refinement applies
// the same per-trajectory verdicts an exhaustive evaluate() pass would,
// as order-independent integer sums. Therefore once converged() the
// estimates are bit-identical to exactReference() — a from-scratch
// evaluation that never looks at a summary or a kept verdict — at any
// thread count, any refinement schedule and any edit history, with one
// exception. Kept verdicts come from bytes that passed their CRC when
// they were read, and a shard is not read again while its members stay
// clean. If it rots on the media in between, begin() keeps its verdicts,
// while exactReference() reads it, quarantines it and counts its members
// with zero hits. The next begin() sees the quarantine and counts them
// lost, and from then on the two agree again. Tests
// (core_progressive_test) and the bench_progressive driver assert this.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/brush.h"
#include "core/clusterquery.h"
#include "core/query.h"
#include "traj/shardsummary.h"
#include "util/cancel.h"
#include "util/clock.h"

namespace svq::core {

/// Knobs for the anytime evaluation.
struct AnytimeOptions {
  /// Latency budget of the aggregate pre-pass in microseconds. Shards not
  /// classified when it expires stay uncertain (safe). <= 0 never
  /// classifies anything — every shard with a dirty member is refined
  /// exactly.
  std::int64_t prepassBudgetUs = 16000;
  /// Injectable time source for the pre-pass deadline; nullptr means
  /// steadyClock(). Replay injects a ManualClock so classification is a
  /// pure function of recorded time, not of runner speed.
  const util::Clock* clock = nullptr;

  /// Reads SVQ_ANYTIME_BUDGET_MS (milliseconds, positive integer) over
  /// the defaults.
  static AnytimeOptions fromEnv();
};

/// Per-cluster anytime state: exact hit counts over the refined members,
/// a prototype-based estimate for the rest.
struct ClusterEstimate {
  std::uint32_t node = 0;              ///< SOM lattice node index
  std::uint64_t members = 0;           ///< cluster population
  std::uint64_t refinedMembers = 0;    ///< members with an exact verdict
  std::uint64_t exactHits = 0;         ///< exact hits among refined members
  /// Whether the cluster-average prototype itself is highlighted by the
  /// brush (exact — prototypes are evaluated in the pre-pass).
  bool prototypeHit = false;

  bool converged() const { return refinedMembers == members; }
  /// Fraction of members with an exact verdict; 1.0 once converged.
  double coverage() const {
    return members == 0 ? 1.0
                        : static_cast<double>(refinedMembers) /
                              static_cast<double>(members);
  }
  /// Exact hits plus the prototype's verdict extrapolated over the
  /// unrefined remainder. Equals exactHits once converged.
  std::uint64_t estimatedHits() const {
    return exactHits + (prototypeHit ? members - refinedMembers : 0);
  }

  bool operator==(const ClusterEstimate&) const = default;
};

/// The two-phase anytime evaluation engine. One instance per session;
/// begin() restarts it for a new brush/window, refineStep() drains it.
/// Not thread-safe — callers serialize access (Session already does).
class ProgressiveClusterQuery {
 public:
  /// Precomputes per-shard cluster membership buckets from the explorer's
  /// clustering (O(store trajectories), once). The explorer must outlive
  /// this object.
  explicit ProgressiveClusterQuery(const ShardSomExplorer& explorer,
                                   AnytimeOptions options = {});

  /// Re-points the pre-pass deadline's time source (affects subsequent
  /// begin() calls). Replay binds its ManualClock here so classification
  /// depends on recorded time only.
  void bindClock(const util::Clock* clock) { options_.clock = clock; }

  /// Phase 1: evaluates the prototypes, dirties the members the change
  /// since the last begin() can flip, classifies every shard within the
  /// latency budget and resolves the shards with no dirty member from
  /// the kept verdicts. Restarts any refinement in progress.
  void begin(const BrushGrid& brush, const QueryParams& params);

  /// Phase 2: exactly evaluates the dirty members of up to `maxShards`
  /// pending shards, resident ones first; polls `cancel` between shards
  /// (a stopped step leaves the remainder pending — never torn, the next
  /// step resumes). Returns the number of shards resolved. No-op before
  /// begin().
  std::size_t refineStep(std::size_t maxShards,
                         const util::Cancellation& cancel =
                             util::Cancellation::none());

  /// True after begin() until the pending queue drains.
  bool active() const { return active_; }
  bool converged() const { return active_ && cursor_ >= pending_.size(); }
  std::size_t pendingShards() const { return pending_.size() - cursor_; }
  /// Shards the pre-pass proved definitely-out by their summary (resolved
  /// without IO). Shards resolved from kept verdicts are not counted.
  std::size_t prunedShards() const { return prunedShards_; }
  std::size_t refinedShardCount() const { return refinedShards_; }
  /// Members lost to shards that quarantined *during refinement* (counted
  /// refined with zero hits so the query still converges; deterministic
  /// for a given file + fault seed).
  std::uint64_t lostMembers() const { return lostMembers_; }

  /// The pre-pass prototype result: one entry per displayable cluster,
  /// aligned with the explorer's displayableClusters(). This is what the
  /// overview scene draws first.
  const QueryResult& prototypeResult() const { return prototypes_; }

  /// Per-cluster anytime state, aligned with displayableClusters().
  const std::vector<ClusterEstimate>& estimates() const { return estimates_; }

  /// Refined-member fraction across all clusters (1.0 once converged).
  double coverage() const;

  const ShardSomExplorer& explorer() const { return *explorer_; }
  const QueryParams& params() const { return params_; }

  /// Reference implementation: from-scratch exact evaluation of every
  /// cluster's members, never consulting a summary. The converged
  /// engine's estimates() must equal this bit-for-bit (tests and
  /// bench_progressive enforce it).
  static std::vector<ClusterEstimate> exactReference(
      const ShardSomExplorer& explorer, const BrushGrid& brush,
      const QueryParams& params);

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Kept per store trajectory across begin() calls (see the file
  /// comment); at most 48 bytes.
  struct Member {
    /// Probe-point occupancy in the ShardSummary bit layout: exact once
    /// the member was evaluated, its shard summary's when a prune made
    /// it clean first.
    std::array<std::uint64_t, traj::ShardSummary::kWords> cells{};
    /// Sample-time range the footprint covers (NaN times never flip a
    /// window test, so they need no cover).
    float tMin = 0.0f;
    float tMax = 0.0f;
    /// estimates_ slot, or kNoSlot when the member is not displayed.
    std::uint32_t slot = kNoSlot;
    bool clean = false;           ///< `hit` holds for brush_ and params_
    bool hit = false;             ///< the kept verdict
    bool exactFootprint = false;  ///< cells/time range are the member's own
  };
  static_assert(sizeof(Member) <= 48);

  /// Turns dirty every clean member whose verdict the change from
  /// (brush_, params_) to (brush, params) can flip.
  void dirtyFlippable(const BrushGrid& brush, const QueryParams& params,
                      float summaryArenaRadiusCm);
  /// Store-global index range [first, last) of one shard's members.
  std::pair<std::uint64_t, std::uint64_t> memberRange(std::size_t shard) const;
  /// Evaluates one shard's dirty members and applies every member's
  /// verdict (or the shard's loss) to the estimates.
  void resolveShardExact(std::size_t shard);
  /// A pruned shard: every member a clean miss.
  void resolveShardEmpty(std::size_t shard,
                         const traj::ShardSummary& summary);
  /// Keeps `footprint` (the member's own, or its shard's) as m's.
  static void keepFootprint(Member& m, const traj::ShardSummary& footprint);
  /// Applies the kept verdicts of members [first, last) to the
  /// estimates; those at or past `readable` (a quarantined shard's)
  /// count lost.
  void applyVerdicts(std::uint64_t first, std::uint64_t readable,
                     std::uint64_t last);

  struct ShardWork {
    std::uint32_t shard = 0;
    std::uint32_t assignedMembers = 0;  ///< members in non-empty clusters
    bool resident = false;              ///< in the shard cache at begin()
  };

  const ShardSomExplorer* explorer_;
  AnytimeOptions options_;
  /// Indexed by store-global trajectory index.
  std::vector<Member> members_;

  // Per-begin() state; brush_ and params_ are also what the next begin()
  // diffs against.
  bool active_ = false;
  BrushGrid brush_;
  QueryParams params_;
  QueryResult prototypes_;
  std::vector<ClusterEstimate> estimates_;
  std::vector<ShardWork> pending_;  ///< uncertain shards, priority order
  std::vector<std::uint64_t> dirty_;  ///< resolveShardExact scratch
  std::size_t cursor_ = 0;          ///< next pending_ entry to refine
  std::size_t prunedShards_ = 0;
  std::size_t refinedShards_ = 0;
  std::uint64_t lostMembers_ = 0;
};

/// The paint-touch mask: bit (cy * kGridDim + cx) set iff any painted
/// brush texel overlaps summary cell (cx, cy). Conservative under any
/// resolution (texel rects are mapped to the cells they overlap, the
/// mapping begin()'s texel diff uses too); when the brush and summary
/// arena radii disagree the mask degenerates to all-ones (nothing is
/// ever pruned). Exposed for the property tests.
std::array<std::uint64_t, traj::ShardSummary::kWords> paintTouchMask(
    const BrushGrid& brush, float summaryArenaRadiusCm);

}  // namespace svq::core
