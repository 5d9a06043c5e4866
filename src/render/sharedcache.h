// sharedcache.h — cross-session cell-framebuffer cache, the library's only
// pixel cache.
//
// A pipeline's per-cell keys (pipeline.h) dedupe *frames within one
// session*: an unchanged cell is skipped, its pixels still in the target.
// A pipeline keeps no copy of its cells' pixels. A session service
// multiplexing hundreds of explorers over one dataset has a second,
// larger source of redundancy: *identical cells across sessions*. Most
// tenants start from the same default layout, brush the same popular
// regions and look at the same trajectories, so the (eye-salted)
// content-hash keys the pipeline already computes collide across
// sessions exactly when the pixels would be identical. SharedCellCache
// exploits that: one process-wide (per SharedContext) map from cell key
// to rasterized pixels, consulted by every pipeline before it
// rasterizes, populated by whichever session rasterized the cell first.
//
// Key discipline (what makes a cross-session hit safe): the key is the
// pipeline's eye-salted cellContentHash, which covers *every* input
// renderCell reads — trajectory index, cell rect (absolute wall pixels),
// background, per-segment highlights, label, and the scene-wide state
// (stereo, window, style, flags). Entries additionally record their
// pixel dimensions and are only returned when they match the requester's
// clip rect, so a (vanishingly unlikely) key collision or a partially
// clipped canvas can never blit another tenant's pixels. All sessions
// sharing a cache MUST render the same dataset on the same wall — the
// cache belongs to the SharedContext that guarantees exactly that.
//
// Concurrency: one mutex around the map + LRU list. Lookups and inserts
// are small (pointer moves; pixels live behind shared_ptr and are never
// copied by the cache), so the lock is held for microseconds. A
// rasterized cell is copied once, into the snapshot the pipeline
// publishes; every pipeline that later hits blits from that allocation,
// including the publisher's own recomposites after target damage.
//
// Metrics (util/metrics, prefix "render.shared."): hits, cross_hits (hit
// on an entry inserted by a *different* client — the multi-tenant win),
// misses, inserts, evictions, bytes (gauge).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "render/framebuffer.h"

namespace svq::render {

/// Thread-safe, LRU-bounded map from cell content key to rasterized cell
/// pixels, shared by many CellRenderPipelines.
class SharedCellCache {
 public:
  /// `budgetBytes` bounds the pixel bytes retained (0 disables caching:
  /// every find misses, inserts are dropped).
  explicit SharedCellCache(std::size_t budgetBytes = 512ull << 20);

  /// A new client (= pipeline) identity for cross-hit accounting.
  std::uint64_t registerClient();

  /// The pixels cached under `key`, or nullptr. Only returns an entry
  /// whose dimensions are exactly (width, height). Bumps the entry's LRU
  /// position; counts a hit (and a cross_hit when the entry was inserted
  /// by a different client than `clientId`).
  std::shared_ptr<const Framebuffer> find(std::uint64_t key, int width,
                                          int height, std::uint64_t clientId);

  /// Publishes `pixels` under `key` (no copy; the cache shares ownership).
  /// First writer wins: re-inserting an existing key only refreshes its
  /// LRU position — by the key discipline both writers hold identical
  /// pixels. Evicts least-recently-used entries to stay within budget;
  /// pixels larger than the whole budget are not cached.
  void insert(std::uint64_t key, std::shared_ptr<const Framebuffer> pixels,
              std::uint64_t clientId);

  std::size_t bytes() const;
  std::size_t entries() const;
  std::size_t budgetBytes() const { return budgetBytes_; }

  /// Drops every entry (tests / epoch changes).
  void clear();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t crossHits = 0;  ///< hits on another client's entry
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;

    /// Fraction of lookups served from another session's work — the
    /// headline multi-tenant dedupe number.
    double crossHitRate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(crossHits) /
                              static_cast<double>(total);
    }
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const Framebuffer> pixels;
    std::uint64_t owner = 0;  ///< clientId that inserted it
    std::list<std::uint64_t>::iterator lruIt;
  };

  void evictToFitLocked(std::size_t incomingBytes);

  const std::size_t budgetBytes_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used
  std::size_t bytes_ = 0;
  std::uint64_t nextClientId_ = 1;
  Stats stats_;
};

}  // namespace svq::render
