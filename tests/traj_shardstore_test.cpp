// Tests for the sharded out-of-core trajectory store: format round-trip,
// lazy loading through the LRU cache, budget enforcement via the metrics
// counters, and out-of-core clustering consistency.
#include "traj/shardstore.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "traj/synth.h"
#include "util/threadpool.h"

namespace svq::traj {
namespace {

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TrajectoryDataset sampleDataset(std::size_t n, std::uint64_t seed = 777) {
  AntSimulator sim({}, seed);
  DatasetSpec spec;
  spec.count = n;
  return sim.generate(spec);
}

class ShardStoreTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : files_) std::remove(p.c_str());
  }
  std::string makeStore(const TrajectoryDataset& ds, std::uint32_t capacity,
                        const std::string& name) {
    const std::string path = tempPath(name);
    files_.push_back(path);
    EXPECT_TRUE(writeShardStore(ds, path, capacity));
    return path;
  }
  std::vector<std::string> files_;
};

TEST_F(ShardStoreTest, RoundTripsEveryTrajectoryBitExact) {
  const TrajectoryDataset ds = sampleDataset(47);
  const std::string path = makeStore(ds, 10, "svq_shard_rt.svqs");

  auto store = ShardStore::open(path);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->trajectoryCount(), ds.size());
  EXPECT_EQ(store->totalPoints(), ds.totalPoints());
  EXPECT_EQ(store->shardCount(), 5u);  // 4 full shards of 10 + one of 7
  EXPECT_FLOAT_EQ(store->arena().radiusCm, ds.arena().radiusCm);

  for (std::size_t g = 0; g < ds.size(); ++g) {
    const Trajectory t = store->trajectory(g);
    EXPECT_EQ(t.meta(), ds[g].meta());
    ASSERT_EQ(t.size(), ds[g].size());
    for (std::size_t p = 0; p < t.size(); ++p) {
      EXPECT_EQ(t[p], ds[g][p]);  // bit-exact floats
    }
  }
}

TEST_F(ShardStoreTest, FooterSummariesMatchShardContents) {
  const TrajectoryDataset ds = sampleDataset(30);
  const std::string path = makeStore(ds, 8, "svq_shard_footer.svqs");
  auto store = ShardStore::open(path);
  ASSERT_TRUE(store.has_value());

  std::uint64_t expectedFirst = 0;
  for (std::size_t i = 0; i < store->shardCount(); ++i) {
    const ShardInfo& info = store->shardInfo(i);
    EXPECT_EQ(info.firstGlobalIndex, expectedFirst);
    const auto shard = store->shard(i);
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(shard->size(), info.trajectoryCount);
    EXPECT_EQ(shard->totalPoints(), info.pointCount);
    float maxDur = 0.0f;
    AABB2 bounds;
    for (const Trajectory& t : shard->all()) {
      maxDur = std::max(maxDur, t.duration());
      bounds.expand(t.bounds());
    }
    EXPECT_FLOAT_EQ(info.maxDuration, maxDur);
    EXPECT_FLOAT_EQ(info.bounds.min.x, bounds.min.x);
    EXPECT_FLOAT_EQ(info.bounds.max.y, bounds.max.y);
    expectedFirst += info.trajectoryCount;
  }
}

TEST_F(ShardStoreTest, LocateMapsGlobalToShardLocal) {
  const TrajectoryDataset ds = sampleDataset(25);
  const std::string path = makeStore(ds, 10, "svq_shard_locate.svqs");
  auto store = ShardStore::open(path);
  ASSERT_TRUE(store.has_value());

  EXPECT_EQ(store->locate(0), (std::pair<std::size_t, std::uint32_t>{0, 0}));
  EXPECT_EQ(store->locate(9), (std::pair<std::size_t, std::uint32_t>{0, 9}));
  EXPECT_EQ(store->locate(10), (std::pair<std::size_t, std::uint32_t>{1, 0}));
  EXPECT_EQ(store->locate(24), (std::pair<std::size_t, std::uint32_t>{2, 4}));
}

TEST_F(ShardStoreTest, CacheCountsHitsAndMisses) {
  const TrajectoryDataset ds = sampleDataset(40);
  ShardStoreOptions options;
  options.metricsPrefix = "shardtest.hitmiss";
  const std::string path = makeStore(ds, 10, "svq_shard_hits.svqs");
  auto store = ShardStore::open(path, options);
  ASSERT_TRUE(store.has_value());

  store->shard(0);
  store->shard(0);
  store->shard(1);
  store->shard(0);
  const ShardCacheStats stats = store->cacheStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.bytesResident, 0u);
  EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST_F(ShardStoreTest, EvictsLeastRecentlyUsedDownToBudget) {
  const TrajectoryDataset ds = sampleDataset(60);
  const std::string path = makeStore(ds, 10, "svq_shard_evict.svqs");

  // First learn one shard's size, then budget for ~2 shards.
  ShardStoreOptions probeOptions;
  probeOptions.metricsPrefix = "shardtest.probe";
  auto probe = ShardStore::open(path, probeOptions);
  ASSERT_TRUE(probe.has_value());
  probe->shard(0);
  const std::uint64_t oneShard = probe->cacheStats().bytesResident;
  ASSERT_GT(oneShard, 0u);

  ShardStoreOptions options;
  options.metricsPrefix = "shardtest.evict";
  options.cacheBudgetBytes = static_cast<std::size_t>(oneShard * 5 / 2);
  auto store = ShardStore::open(path, options);
  ASSERT_TRUE(store.has_value());

  for (std::size_t i = 0; i < store->shardCount(); ++i) store->shard(i);
  ShardCacheStats stats = store->cacheStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytesResident, options.cacheBudgetBytes);
  // Peak may transiently exceed the budget by at most one shard (insert
  // happens before eviction), never more.
  EXPECT_LE(stats.peakBytesResident, options.cacheBudgetBytes + oneShard * 2);

  // The most recently touched shard must still be cached (a hit), the
  // oldest must have been evicted (a miss).
  const std::uint64_t missesBefore = store->cacheStats().misses;
  store->shard(store->shardCount() - 1);
  EXPECT_EQ(store->cacheStats().misses, missesBefore);
  store->shard(0);
  EXPECT_EQ(store->cacheStats().misses, missesBefore + 1);
}

TEST_F(ShardStoreTest, ClearCacheDropsResidencyButKeepsCounters) {
  const TrajectoryDataset ds = sampleDataset(20);
  ShardStoreOptions options;
  options.metricsPrefix = "shardtest.clear";
  const std::string path = makeStore(ds, 5, "svq_shard_clear.svqs");
  auto store = ShardStore::open(path, options);
  ASSERT_TRUE(store.has_value());
  store->shard(0);
  store->shard(1);
  ASSERT_GT(store->cacheStats().bytesResident, 0u);
  store->clearCache();
  EXPECT_EQ(store->cacheStats().bytesResident, 0u);
  EXPECT_EQ(store->cacheStats().misses, 2u);
  EXPECT_GT(store->cacheStats().peakBytesResident, 0u);
}

TEST_F(ShardStoreTest, ClosedStoreReleasesItsResidentBytes) {
  const TrajectoryDataset ds = sampleDataset(30);
  ShardStoreOptions options;
  options.metricsPrefix = "shardtest.close";
  const std::string path = makeStore(ds, 10, "svq_shard_close.svqs");

  // Open, read every shard, close — three times over one file. The
  // process-wide gauge must count only the open store's cache.
  std::uint64_t oneStore = 0;
  for (int round = 0; round < 3; ++round) {
    auto store = ShardStore::open(path, options);
    ASSERT_TRUE(store.has_value());
    EXPECT_EQ(store->cacheStats().bytesResident, 0u) << "round " << round;
    for (std::size_t i = 0; i < store->shardCount(); ++i) store->shard(i);
    const ShardCacheStats stats = store->cacheStats();
    if (round == 0) oneStore = stats.bytesResident;
    ASSERT_GT(oneStore, 0u);
    EXPECT_EQ(stats.bytesResident, oneStore) << "round " << round;
    EXPECT_EQ(stats.peakBytesResident, oneStore) << "round " << round;
  }

  {
    auto a = ShardStore::open(path, options);
    ASSERT_TRUE(a.has_value());
    a->shard(0);
    const std::uint64_t shard0 = a->cacheStats().bytesResident;
    ASSERT_GT(shard0, 0u);
    // The moved-from store holds no bytes: destroying it releases none.
    ShardStore b(std::move(*a));
    a.reset();
    EXPECT_EQ(b.cacheStats().bytesResident, shard0);

    auto c = ShardStore::open(path, options);
    ASSERT_TRUE(c.has_value());
    c->shard(1);
    c->shard(2);
    const std::uint64_t shards12 = c->cacheStats().bytesResident - shard0;
    ASSERT_GT(shards12, 0u);
    // Move-assignment closes b's old store, releasing shard 0's bytes.
    b = std::move(*c);
    EXPECT_EQ(b.cacheStats().bytesResident, shards12);
  }
  auto after = ShardStore::open(path, options);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->cacheStats().bytesResident, 0u);
}

TEST_F(ShardStoreTest, EvictedShardStaysAliveWhileReferenced) {
  const TrajectoryDataset ds = sampleDataset(30);
  ShardStoreOptions options;
  options.metricsPrefix = "shardtest.pin";
  options.cacheBudgetBytes = 1;  // evict everything immediately
  const std::string path = makeStore(ds, 10, "svq_shard_pin.svqs");
  auto store = ShardStore::open(path, options);
  ASSERT_TRUE(store.has_value());

  const auto held = store->shard(0);
  ASSERT_NE(held, nullptr);
  store->shard(1);
  store->shard(2);
  // shard 0 was evicted from the cache, but our shared_ptr keeps it valid.
  EXPECT_EQ(held->size(), 10u);
  EXPECT_EQ((*held)[0].meta().id, ds[0].meta().id);
}

TEST_F(ShardStoreTest, OpenRejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(ShardStore::open("/no/such/file.svqs").has_value());

  const TrajectoryDataset ds = sampleDataset(10);
  const std::string path = makeStore(ds, 4, "svq_shard_corrupt.svqs");
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  // Truncated tail.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 9));
  }
  EXPECT_FALSE(ShardStore::open(path).has_value());
  // Bad header magic.
  {
    std::string bad = bytes;
    bad[0] = 'X';
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  EXPECT_FALSE(ShardStore::open(path).has_value());
}

TEST_F(ShardStoreTest, WriterStreamsWithoutFullDatasetResident) {
  // Feed the writer one trajectory at a time (no full dataset ever built
  // on this side) and verify the store sees them all.
  const std::string path = tempPath("svq_shard_stream.svqs");
  files_.push_back(path);
  AntSimulator sim({}, 4242);
  const ArenaSpec arena;
  ShardStoreWriter writer(path, arena, 16);
  ASSERT_TRUE(writer.ok());
  const std::size_t total = 100;
  for (std::size_t i = 0; i < total; ++i) {
    TrajectoryMeta meta;
    meta.id = static_cast<std::uint32_t>(i);
    writer.add(sim.simulate(meta, arena));
  }
  ASSERT_TRUE(writer.finish());
  EXPECT_EQ(writer.trajectoriesWritten(), total);

  auto store = ShardStore::open(path);
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->trajectoryCount(), total);
  EXPECT_EQ(store->shardCount(), (total + 15) / 16);
  EXPECT_EQ(store->trajectory(42).meta().id, 42u);
}

TEST_F(ShardStoreTest, ClusterShardStoreCoversEveryTrajectoryExactlyOnce) {
  const TrajectoryDataset ds = sampleDataset(80);
  const std::string path = makeStore(ds, 16, "svq_shard_cluster.svqs");
  ShardStoreOptions options;
  options.metricsPrefix = "shardtest.cluster";
  auto store = ShardStore::open(path, options);
  ASSERT_TRUE(store.has_value());

  SomParams somParams;
  somParams.rows = 3;
  somParams.cols = 3;
  somParams.epochs = 3;
  FeatureParams featureParams;
  featureParams.resampleCount = 12;

  const ShardClustering clustering =
      clusterShardStore(*store, somParams, featureParams);
  EXPECT_EQ(clustering.assignment.size(), ds.size());
  EXPECT_EQ(clustering.nodeCount(), 9u);
  EXPECT_GE(clustering.nonEmptyClusters(), 1u);

  std::set<std::uint32_t> seen;
  std::size_t totalMembers = 0;
  for (const auto& members : clustering.members) {
    for (std::uint32_t g : members) {
      EXPECT_TRUE(seen.insert(g).second) << "duplicate member " << g;
    }
    totalMembers += members.size();
  }
  EXPECT_EQ(totalMembers, ds.size());

  // Averages exist exactly for non-empty nodes and have the resample length.
  for (std::size_t node = 0; node < clustering.nodeCount(); ++node) {
    if (clustering.members[node].empty()) {
      EXPECT_TRUE(clustering.averages[node].empty());
    } else {
      EXPECT_EQ(clustering.averages[node].size(),
                featureParams.resampleCount);
    }
  }
}

TEST_F(ShardStoreTest, ClusterShardStoreParallelMatchesSerialBitExact) {
  const TrajectoryDataset ds = sampleDataset(60, 909);
  const std::string path = makeStore(ds, 8, "svq_shard_par.svqs");
  ShardStoreOptions options;
  options.metricsPrefix = "shardtest.par";
  auto store = ShardStore::open(path, options);
  ASSERT_TRUE(store.has_value());

  SomParams somParams;
  somParams.rows = 4;
  somParams.cols = 4;
  somParams.epochs = 2;
  FeatureParams featureParams;
  featureParams.resampleCount = 10;

  const ShardClustering serial =
      clusterShardStore(*store, somParams, featureParams, nullptr);
  ThreadPool pool(4);
  const ShardClustering parallel =
      clusterShardStore(*store, somParams, featureParams, &pool);

  EXPECT_EQ(serial.assignment, parallel.assignment);
  EXPECT_EQ(serial.somWeights, parallel.somWeights);
  ASSERT_EQ(serial.averages.size(), parallel.averages.size());
  for (std::size_t node = 0; node < serial.averages.size(); ++node) {
    ASSERT_EQ(serial.averages[node].size(), parallel.averages[node].size());
    for (std::size_t p = 0; p < serial.averages[node].size(); ++p) {
      EXPECT_EQ(serial.averages[node][p], parallel.averages[node][p]);
    }
  }
}

}  // namespace
}  // namespace svq::traj
