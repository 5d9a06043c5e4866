// shardstore.h — sharded, out-of-core trajectory store (§VI.C at scale).
//
// The in-memory TrajectoryDataset tops out around 10k trajectories; the
// paper's scalability path (and the ROADMAP north star) needs 100k–1M.
// This store keeps the dataset on disk, split into fixed-capacity shards,
// and materializes only the shards a computation actually touches through
// a memory-bounded LRU cache.
//
// File layout ("SVQS" container, version 3, little-endian), built on the
// existing SVQT trajectory format:
//
//   header:   magic u32 "SVQS", version u32, arenaRadius f32,
//             shardCapacity u32, headerCrc u32 (CRC32C of the preceding
//             16 bytes)
//   payloads: per shard, a block header { magic u32 "SVQB", byteSize u64,
//             payloadCrc u32, headerCrc u32 } followed by a complete SVQT
//             blob (io_binary format), back-to-back
//   footer:   per shard { offset u64 (of the payload, past its block
//             header), byteSize u64, firstGlobalIndex u64, pointCount u64,
//             trajectoryCount u32, payloadCrc u32, bounds 4*f32,
//             maxDuration f32 } and — v3 only — the spatial summary
//             { occupancy 4*u64, envelope 4*f32, tMin f32, tMax f32 }
//             (see traj/shardsummary.h)
//   tail:     shardCount u32, trajectoryCount u64, pointCount u64,
//             footerBytes u64, footerCrc u32, tailCrc u32 (CRC32C of the
//             preceding 32 bytes), magic u32 "SVQF"
//
// The tail is fixed-size and read first (from the end of the file), so
// opening a store touches O(shardCount) bytes, never the payloads. The
// per-shard feature summaries (bounds, counts, max duration) let callers
// prune shards without loading them; the v3 spatial summary additionally
// lets the anytime query path (core/progressive.h) classify whole shards
// as definitely-out without IO. Version 2 stores (no summary) still open
// — summary() rebuilds their summaries lazily from the payloads, and
// repairShardStore() upgrades them to v3 on rewrite.
//
// Integrity and crash-safety (the storage counterpart to the net-layer
// fault model, see DESIGN.md "Storage fault model"):
//   * Every payload carries a CRC32C, recorded twice (block header and
//     footer) and verified on every load into the LRU cache; the footer
//     and tail carry their own CRCs. A single bit flip anywhere in a
//     checksummed region is always detected — a store can be wrong, but
//     never silently wrong.
//   * The writer streams into "<path>.tmp" and publishes with
//     fsync + atomic rename only after the footer and tail are complete
//     (footer-last commit protocol): a killed writer leaves no file at
//     the target path, and repairShardStore() recovers the temp file to
//     its last fully committed shard using the self-delimiting block
//     headers.
//   * A shard whose payload fails its CRC (or decode, or read after
//     bounded retries) is *quarantined*, not fatal: shard() returns
//     nullptr, shardStatus() reports the typed io::Status cause, and
//     queries degrade over the surviving shards, surfacing coverage().
//     Quarantine is sticky and deterministic for a given file + fault
//     seed, which keeps out-of-core clustering bit-deterministic across
//     thread counts even under injected faults.
//
// Cache behaviour: shard(i) returns a shared_ptr so evicted shards stay
// alive for callers still holding them; eviction is LRU down to
// cacheBudgetBytes (a single shard larger than the budget stays resident
// while referenced — the budget bounds what the *cache* retains).
// Hit/miss/eviction/bytes-resident counters are surfaced through the
// util/metrics registry under "<metricsPrefix>.*". The bytes-resident
// gauge counts open stores only: closing a store releases its cache's
// bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "traj/dataset.h"
#include "traj/shardsummary.h"
#include "traj/som.h"
#include "util/geometry.h"
#include "util/io.h"
#include "util/metrics.h"

namespace svq::traj {

/// SVQS container versions this reader accepts. The writer emits
/// kShardFormatCurrent unless told otherwise; kShardFormatV2 exists for
/// back-compat tests and for generating summary-less stores.
inline constexpr std::uint32_t kShardFormatV2 = 2;
inline constexpr std::uint32_t kShardFormatCurrent = 3;

/// Footer entry: everything known about a shard without loading it.
struct ShardInfo {
  std::uint64_t offset = 0;           ///< payload byte offset in the file
  std::uint64_t byteSize = 0;         ///< payload byte size
  std::uint64_t firstGlobalIndex = 0; ///< global index of its first trajectory
  std::uint64_t pointCount = 0;
  std::uint32_t trajectoryCount = 0;
  std::uint32_t payloadCrc = 0;       ///< CRC32C of the payload bytes
  AABB2 bounds;                       ///< union of member sample bounds
  float maxDuration = 0.0f;           ///< longest member duration (s)
};

/// Streaming writer: add() trajectories in global-index order; a shard is
/// flushed to disk whenever `shardCapacity` trajectories are buffered, so
/// peak memory is one shard regardless of dataset size.
///
/// Crash-safety: all writes go to tempPath() ("<path>.tmp"); finish()
/// flushes the footer and tail, fsyncs, and atomically renames into
/// place. Until finish() returns true there is no file at `path` — a
/// crashed or torn writer can never clobber a previous good store, and
/// its temp file is recoverable with repairShardStore().
class ShardStoreWriter {
 public:
  ShardStoreWriter(const std::string& path, ArenaSpec arena,
                   std::uint32_t shardCapacity,
                   io::FaultInjector* faultInjector = nullptr,
                   std::uint32_t formatVersion = kShardFormatCurrent);
  ~ShardStoreWriter();

  ShardStoreWriter(const ShardStoreWriter&) = delete;
  ShardStoreWriter& operator=(const ShardStoreWriter&) = delete;

  bool ok() const { return ok_; }
  std::uint64_t trajectoriesWritten() const { return totalTrajectories_; }
  /// Where bytes land before finish() publishes them ("<path>.tmp").
  const std::string& tempPath() const;

  void add(Trajectory t);
  /// Flushes the partial shard, footer and tail, fsyncs and atomically
  /// publishes the store; returns false on IO errors (or an injected torn
  /// write, which leaves the truncated temp file in place for repair).
  bool finish();

 private:
  void flushShard();

  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t totalTrajectories_ = 0;
  bool ok_ = false;
  bool finished_ = false;
};

/// Cache counter snapshot (values read from the metrics registry).
struct ShardCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytesResident = 0;
  std::uint64_t peakBytesResident = 0;

  double hitRate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

struct ShardStoreOptions {
  /// LRU budget over decoded shard bytes (estimate: points * sizeof
  /// TrajPoint + trajectories * sizeof Trajectory).
  std::size_t cacheBudgetBytes = 64u << 20;
  /// Metrics names are "<prefix>.hits" etc. Give concurrent stores
  /// distinct prefixes when their counters must not mix.
  std::string metricsPrefix = "shardstore";
  /// Bounded retry-with-backoff for transient read faults (EIO, short
  /// read). Corrupt payloads are never retried — corruption is a property
  /// of the media, and retrying would only delay quarantine.
  io::RetryPolicy retry;
  /// Optional deterministic fault injection under every payload read and
  /// the writer's publish step. Not owned; must outlive the store.
  io::FaultInjector* faultInjector = nullptr;
};

/// Result of a ShardStore::verify() full scan.
struct ShardVerifyReport {
  std::size_t shardsChecked = 0;
  /// (shard index, cause) for every shard that failed verification.
  std::vector<std::pair<std::size_t, io::Status>> badShards;
  /// The worst per-shard status folded into one verdict.
  io::Status worst = io::Status::ok();

  bool ok() const { return badShards.empty(); }
};

/// Result of repairShardStore().
struct RepairReport {
  std::size_t shardsRecovered = 0;
  std::uint64_t trajectoriesRecovered = 0;
  /// Bytes past the last committed shard that were discarded.
  std::uint64_t bytesDiscarded = 0;
  io::Status status = io::Status::ok();
};

/// Read side: lazily loads shards through the LRU cache. Thread-safe —
/// SOM training streams shards from pool workers.
class ShardStore {
 public:
  /// Opens a store file; nullopt on missing/corrupt header, footer or
  /// tail. When `openStatus` is non-null it receives the typed cause
  /// (kIoError: unreadable, kTruncated: too short, kCorrupt: CRC or
  /// structural validation failed).
  static std::optional<ShardStore> open(const std::string& path,
                                        ShardStoreOptions options = {},
                                        io::Status* openStatus = nullptr);
  ~ShardStore();
  ShardStore(ShardStore&&) noexcept;
  ShardStore& operator=(ShardStore&&) noexcept;

  const ArenaSpec& arena() const;
  std::size_t shardCount() const;
  std::uint64_t trajectoryCount() const;
  std::uint64_t totalPoints() const;
  std::uint32_t shardCapacity() const;
  /// The container version this file was written as (kShardFormatV2 or
  /// kShardFormatCurrent).
  std::uint32_t formatVersion() const;
  const ShardInfo& shardInfo(std::size_t shard) const;

  /// Spatial summary of one shard (see traj/shardsummary.h). v3 stores
  /// answer from the footer (no IO); v2 stores — and v3 entries whose
  /// persisted summary fails validateShardSummary — rebuild lazily from
  /// the payload through the shard cache, memoized. nullopt when the
  /// summary is unavailable (quarantined shard with nothing persisted):
  /// callers must treat such shards as *uncertain*, never pruned.
  std::optional<ShardSummary> summary(std::size_t shard) const;

  /// Loads (or returns the cached) shard. Every load is CRC-verified
  /// before it enters the cache; nullptr when the shard is (or becomes)
  /// quarantined — payload CRC/decode failure, or a read fault that
  /// survived the retry policy. Quarantine is sticky: later calls return
  /// nullptr immediately and queries degrade over the survivors.
  std::shared_ptr<const TrajectoryDataset> shard(std::size_t shard) const;

  /// Whether the shard is in the cache now, so shard() would return it
  /// without IO. A snapshot taken under the store's mutex: it counts no
  /// hit and leaves the LRU order alone. The anytime query
  /// (core/progressive.h) reads resident shards first, since a hit never
  /// evicts.
  bool isResident(std::size_t shard) const;

  /// Typed status of one shard: ok, or the quarantine cause.
  io::Status shardStatus(std::size_t shard) const;
  bool isQuarantined(std::size_t shard) const {
    return !shardStatus(shard).isOk();
  }
  std::size_t quarantinedShardCount() const;
  /// Fraction of trajectories still reachable: 1.0 = fully healthy.
  double coverage() const;

  /// Full-scan integrity check: reads every payload (through the fault
  /// injector, bypassing the cache) and verifies its CRC. Shards that
  /// fail are quarantined, so a verify() pass doubles as pre-flight
  /// self-healing before a long session.
  ShardVerifyReport verify() const;

  /// Maps a global trajectory index to (shard, index-within-shard).
  std::pair<std::size_t, std::uint32_t> locate(std::uint64_t globalIndex) const;

  /// Copies one trajectory out of its (cached) shard.
  Trajectory trajectory(std::uint64_t globalIndex) const;

  ShardCacheStats cacheStats() const;
  /// Drops every cached shard (counters keep their values).
  void clearCache() const;

 private:
  ShardStore();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// FeatureBlockSource over a store: block b = shard b's feature vectors,
/// recomputed on every load (the shard cache absorbs the IO; features are
/// never all resident at once).
class ShardFeatureSource final : public FeatureBlockSource {
 public:
  ShardFeatureSource(const ShardStore& store, FeatureParams params)
      : store_(&store), params_(params) {}

  std::size_t blockCount() const override { return store_->shardCount(); }
  std::vector<std::vector<float>> loadBlock(std::size_t b) const override;

 private:
  const ShardStore* store_;
  FeatureParams params_;
};

/// Clustering of a shard store: same shape as ClusteredDataset but indices
/// are *global* store indices and averages are accumulated out-of-core.
struct ShardClustering {
  /// assignment[] value for trajectories in quarantined shards: never
  /// clustered, never a member of any node.
  static constexpr std::uint32_t kUnassigned = 0xFFFFFFFFu;

  SomParams somParams;
  FeatureParams featureParams;
  /// Trained lattice weights, row-major (nodeCount x featureDim).
  std::vector<std::vector<float>> somWeights;
  /// assignment[g] = BMU node of global trajectory g (kUnassigned for
  /// trajectories lost to quarantined shards).
  std::vector<std::uint32_t> assignment;
  /// members[node] = global indices assigned to that node, ascending.
  std::vector<std::vector<std::uint32_t>> members;
  /// Cluster-average trajectory per node (empty for empty nodes).
  std::vector<Trajectory> averages;
  /// Shards that were quarantined during clustering, ascending.
  std::vector<std::uint32_t> quarantinedShards;
  /// Trajectories that streamed through clustering vs the store total.
  std::uint64_t coveredTrajectories = 0;
  std::uint64_t totalTrajectories = 0;

  std::size_t nodeCount() const { return members.size(); }
  std::size_t nonEmptyClusters() const;
  std::size_t maxClusterSize() const;
  /// Fraction of the store's trajectories the clustering covers; 1.0
  /// when nothing was quarantined. Scenes surface < 1.0 as "partial
  /// data" markers.
  double coverage() const {
    return totalTrajectories == 0
               ? 1.0
               : static_cast<double>(coveredTrajectories) /
                     static_cast<double>(totalTrajectories);
  }
};

/// Trains a batch SOM over the store (see Som::trainBatch — bit-identical
/// across thread counts and shard streaming order for a fixed seed) and
/// assigns every trajectory to its BMU, streaming shards twice per epoch
/// plus once for assignment/averages. `pool` nullptr = serial.
///
/// Degrades gracefully over quarantined shards: their trajectories stay
/// kUnassigned, the result's coverage()/quarantinedShards report the
/// loss, and — because quarantine is deterministic for a given file +
/// fault seed — the clustering stays bit-identical across thread counts
/// for the same set of surviving shards.
ShardClustering clusterShardStore(const ShardStore& store,
                                  const SomParams& somParams,
                                  const FeatureParams& featureParams,
                                  ThreadPool* pool = nullptr);

/// Recovers a (possibly torn or corrupt) store file in place: scans the
/// self-delimiting shard block headers from the front, keeps the longest
/// prefix of shards whose headers and payload CRCs verify, recomputes the
/// footer/tail from the surviving payloads, and atomically rewrites the
/// file (always as kShardFormatCurrent — repair decodes every surviving
/// payload anyway, so v2 inputs pick up their spatial summaries for
/// free). Works on both published stores and a killed writer's temp
/// file. Returns false (with report->status carrying the cause) when not
/// even the file header survives — there is nothing to repair to.
bool repairShardStore(const std::string& path, RepairReport* report = nullptr);

/// Convenience: shard an in-memory dataset out to `path`.
bool writeShardStore(const TrajectoryDataset& dataset, const std::string& path,
                     std::uint32_t shardCapacity,
                     std::uint32_t formatVersion = kShardFormatCurrent);

}  // namespace svq::traj
