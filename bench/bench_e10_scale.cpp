// E10: out-of-core scalability — 100k to 1M trajectories through the
// sharded store (see EXPERIMENTS.md §E10).
//
// For each size N the driver:
//   1. stream-generates N short trajectories straight into a shard store
//      (peak writer memory = one shard, never the dataset),
//   2. opens the store under a fixed cache budget and trains the batch
//      SOM out-of-core (ShardSomExplorer — shards stream through the
//      thread pool, features are recomputed per pass, never all resident),
//   3. drills into the largest cluster and runs a full-fidelity brush
//      query over its materialized members,
//   4. measures overview brush-query throughput (median batch rate),
// and reports train time, queries/sec, cache hit rate, and peak resident
// trajectory bytes against the budget.
//
// Two acceptance checks gate the run (non-zero exit on failure):
//   - bounded residency: peak resident bytes <= budget + one shard (the
//     cache admits a shard before evicting, so the transient overshoot is
//     at most the largest shard),
//   - determinism (smallest size only): parallel training is bit-identical
//     to serial — same weights, same assignment.
//
// Usage:
//   bench_e10_scale [--sizes=100000,300000,1000000] [--budget-mb=64]
//                   [--shard-capacity=4096] [--threads=4] [--epochs=6]
//                   [--fault-pct=P]
//
// The default is a single 100k sweep (fits a laptop's coffee break); the
// acceptance run for the 1M figure is --sizes=100000,1000000.
//
// With --fault-pct=P a degraded pass follows each healthy one: the same
// store is reopened behind a deterministic fault injector flipping one
// bit in P% of shard payloads (persistent media rot — CRC catches it,
// the shard is quarantined). Three extra acceptance checks gate it:
//   - completion: clustering and drill-down still finish over survivors,
//   - coverage: the metrics registry's quarantine tally lands near 1-P%,
//   - determinism: for the same fault seed, quarantine set, assignment
//     and SOM weights are bit-identical at 1, 4 and 8 threads.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/clusterquery.h"
#include "traj/shardstore.h"
#include "traj/synth.h"
#include "util/io.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/threadpool.h"

using namespace svq;

namespace {

struct Options {
  std::vector<std::uint64_t> sizes{100000};
  std::size_t budgetMb = 64;
  std::uint32_t shardCapacity = 4096;
  unsigned threads = 4;
  std::size_t epochs = 6;
  /// Percent of shard payloads hit by a persistent bit flip (0 = off).
  double faultPct = 0.0;
};

bool parseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sizes=", 0) == 0) {
      opt.sizes.clear();
      std::string list = arg.substr(8);
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        opt.sizes.push_back(std::strtoull(tok.c_str(), nullptr, 10));
        pos = comma == std::string::npos ? list.size() : comma + 1;
      }
    } else if (arg.rfind("--budget-mb=", 0) == 0) {
      opt.budgetMb = std::strtoull(arg.c_str() + 12, nullptr, 10);
    } else if (arg.rfind("--shard-capacity=", 0) == 0) {
      opt.shardCapacity = static_cast<std::uint32_t>(
          std::strtoul(arg.c_str() + 17, nullptr, 10));
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.threads =
          static_cast<unsigned>(std::strtoul(arg.c_str() + 10, nullptr, 10));
    } else if (arg.rfind("--epochs=", 0) == 0) {
      opt.epochs = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--fault-pct=", 0) == 0) {
      opt.faultPct = std::strtod(arg.c_str() + 12, nullptr);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return opt.sizes.size() > 0 && opt.budgetMb > 0 && opt.shardCapacity > 0 &&
         opt.faultPct >= 0.0 && opt.faultPct < 100.0;
}

/// Streams N short trajectories into a shard store at `path`. Short
/// trajectories (24 s cap at 5 Hz) keep the 1M file around half a GB.
bool generateStore(const std::string& path, std::uint64_t n,
                   std::uint32_t shardCapacity, double* seconds) {
  traj::AntBehaviorParams params;
  params.timeStepS = 0.2f;
  params.maxDurationS = 24.0f;
  traj::AntSimulator sim(params, 0xE10ULL + n);
  const traj::ArenaSpec arena{};

  Stopwatch sw;
  traj::ShardStoreWriter writer(path, arena, shardCapacity);
  if (!writer.ok()) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    traj::TrajectoryMeta meta;
    meta.id = static_cast<std::uint32_t>(i);
    meta.side = static_cast<traj::CaptureSide>(i % 5);
    meta.direction = static_cast<traj::JourneyDirection>(i % 2);
    meta.seed = static_cast<traj::SeedState>(i % 3);
    writer.add(sim.simulate(meta, arena));
  }
  const bool ok = writer.finish();
  *seconds = sw.elapsedSeconds();
  return ok;
}

core::BrushGrid westBrush(float arenaRadius) {
  core::BrushCanvas canvas(arenaRadius, 256);
  core::paintArenaHalf(canvas, 0, traj::ArenaSide::kWest, arenaRadius);
  return canvas.grid();
}

std::uint64_t largestShardEstimateBytes(const traj::ShardStore& store) {
  std::uint64_t largest = 0;
  for (std::size_t s = 0; s < store.shardCount(); ++s) {
    const traj::ShardInfo& info = store.shardInfo(s);
    const std::uint64_t est = info.pointCount * sizeof(traj::TrajPoint) +
                              info.trajectoryCount * sizeof(traj::Trajectory);
    largest = est > largest ? est : largest;
  }
  return largest;
}

/// Degraded pass for --fault-pct: reopens `path` behind a deterministic
/// bit-flip injector at 1/4/8 threads and checks (a) clustering and
/// drill-down complete over the survivors, (b) the metrics registry's
/// quarantine tally puts coverage near 1-P%, (c) residency stays within
/// the budget+shard bound, (d) all three thread counts produce the same
/// quarantine set, assignment and SOM weights bit-for-bit.
bool runFaultScenario(const std::string& path, std::uint64_t n,
                      double faultPct, std::size_t budget,
                      const traj::SomParams& somP,
                      const traj::FeatureParams& featP) {
  const double p = faultPct / 100.0;
  bool pass = true;

  traj::ShardClustering reference;
  double refCoverage = -1.0;

  const unsigned threadCounts[] = {1, 4, 8};
  for (std::size_t ti = 0; ti < 3; ++ti) {
    const unsigned t = threadCounts[ti];
    io::FaultInjector::Plan plan;
    plan.bitFlipProbability = p;  // persistent rot: CRC catches, quarantine
    plan.seed = 0xE10FA;          // same seed at every thread count
    io::FaultInjector injector(plan);

    const std::string prefix =
        "e10.fault." + std::to_string(n) + ".t" + std::to_string(t);
    auto& registry = MetricsRegistry::global();
    registry.reset(prefix);

    traj::ShardStoreOptions storeOpt;
    storeOpt.cacheBudgetBytes = budget;
    storeOpt.metricsPrefix = prefix;
    storeOpt.faultInjector = &injector;
    auto store = traj::ShardStore::open(path, storeOpt);
    if (!store) {
      std::printf("  FAIL: degraded open failed (n=%" PRIu64 ")\n", n);
      return false;
    }

    ThreadPool pool(t);
    core::ShardSomExplorer explorer(*store, somP, featP, &pool);
    const traj::ShardClustering& clustering = explorer.clustering();

    // (a) Completion: drill into the largest surviving cluster.
    std::uint32_t largestNode = 0;
    std::size_t largestSize = 0;
    for (std::uint32_t node : explorer.displayableClusters()) {
      const std::size_t sz = clustering.members[node].size();
      if (sz > largestSize) {
        largestSize = sz;
        largestNode = node;
      }
    }
    const core::BrushGrid brush = westBrush(store->arena().radiusCm);
    const core::QueryResult drill =
        explorer.queryClusterMembers(largestNode, brush, core::QueryParams{});
    if (largestSize == 0 || drill.trajectoriesEvaluated != largestSize) {
      std::printf("  FAIL: degraded drill-down evaluated %zu of %zu members "
                  "(threads=%u)\n",
                  drill.trajectoriesEvaluated, largestSize, t);
      pass = false;
    }

    // (b) Coverage from the metrics registry, cross-checked against the
    // store's own accounting and the injected rate.
    const auto counters = registry.snapshot(prefix);
    const std::uint64_t q = counters.at(prefix + ".quarantined_trajectories");
    const double coverage =
        1.0 - static_cast<double>(q) / static_cast<double>(n);
    const double tolerance = std::max(
        0.02, 4.0 * std::sqrt(p * (1.0 - p) /
                              static_cast<double>(store->shardCount())));
    if (std::abs(coverage - store->coverage()) > 1e-9 ||
        std::abs(coverage - clustering.coverage()) > 1e-9) {
      std::printf("  FAIL: metrics coverage %.4f disagrees with store %.4f / "
                  "clustering %.4f\n",
                  coverage, store->coverage(), clustering.coverage());
      pass = false;
    }
    if (std::abs(coverage - (1.0 - p)) > tolerance) {
      std::printf("  FAIL: coverage %.4f not within %.4f of expected %.4f\n",
                  coverage, tolerance, 1.0 - p);
      pass = false;
    }

    // (c) Residency bound holds while degraded too.
    const traj::ShardCacheStats stats = store->cacheStats();
    const std::uint64_t bound = budget + largestShardEstimateBytes(*store);
    if (stats.peakBytesResident > bound) {
      std::printf("  FAIL: degraded peak resident %" PRIu64
                  " B exceeds bound %" PRIu64 " B\n",
                  stats.peakBytesResident, bound);
      pass = false;
    }

    // (d) Bit-determinism across thread counts for the same fault seed.
    if (ti == 0) {
      reference = clustering;
      refCoverage = coverage;
      std::printf("  degraded pass (bit-flip p=%.3f, seed 0x%llX): "
                  "%zu/%zu shards quarantined, coverage %.4f\n",
                  p, static_cast<unsigned long long>(plan.seed),
                  clustering.quarantinedShards.size(), store->shardCount(),
                  coverage);
      std::printf("%s", registry.dump(prefix).c_str());
    } else {
      const bool identical =
          clustering.quarantinedShards == reference.quarantinedShards &&
          clustering.assignment == reference.assignment &&
          clustering.somWeights == reference.somWeights &&
          clustering.coveredTrajectories == reference.coveredTrajectories &&
          coverage == refCoverage;
      if (!identical) {
        std::printf("  FAIL: degraded clustering at %u threads DIVERGES from "
                    "1 thread\n",
                    t);
        pass = false;
      }
    }
    registry.reset(prefix);
  }
  if (pass) {
    std::printf("  PASS: degraded run complete, coverage %.4f ~= %.4f, "
                "bit-identical at 1/4/8 threads\n",
                refCoverage, 1.0 - p);
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s [--sizes=N,N,...] [--budget-mb=M] "
                 "[--shard-capacity=C] [--threads=T] [--epochs=E] "
                 "[--fault-pct=P]\n",
                 argv[0]);
    return 2;
  }

  traj::SomParams somP;
  somP.rows = 8;
  somP.cols = 8;
  somP.epochs = opt.epochs;
  somP.seed = 0x5C2012ULL;
  traj::FeatureParams featP;
  featP.resampleCount = 24;

  ThreadPool pool(opt.threads);
  const std::size_t budget = opt.budgetMb << 20;
  bool allPass = true;

  std::printf("E10 out-of-core scale sweep: budget=%zu MB, shard capacity=%u, "
              "threads=%u, SOM %zux%zu x%zu epochs\n\n",
              opt.budgetMb, opt.shardCapacity, opt.threads, somP.rows,
              somP.cols, somP.epochs);
  std::printf("%10s %9s %9s %9s %8s %9s %11s %11s %9s %9s\n", "trajs",
              "gen_s", "file_MB", "train_s", "hit%", "peak_MB", "overview_qps",
              "drill_qps", "clusters", "largest");

  for (std::size_t si = 0; si < opt.sizes.size(); ++si) {
    const std::uint64_t n = opt.sizes[si];
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("svq_e10_" + std::to_string(n) + ".svqs")).string();

    double genSeconds = 0.0;
    if (!generateStore(path, n, opt.shardCapacity, &genSeconds)) {
      std::fprintf(stderr, "FAIL: could not write store for n=%" PRIu64 "\n",
                   n);
      return 1;
    }
    const auto fileBytes = std::filesystem::file_size(path);

    traj::ShardStoreOptions storeOpt;
    storeOpt.cacheBudgetBytes = budget;
    storeOpt.metricsPrefix = "e10." + std::to_string(n);
    auto store = traj::ShardStore::open(path, storeOpt);
    if (!store) {
      std::fprintf(stderr, "FAIL: could not open store for n=%" PRIu64 "\n",
                   n);
      return 1;
    }

    // 2. Out-of-core SOM training (the expensive offline step).
    Stopwatch trainSw;
    core::ShardSomExplorer explorer(*store, somP, featP, &pool);
    const double trainSeconds = trainSw.elapsedSeconds();

    // 3. Cluster drill-down: materialize the largest cluster and brush it
    // at full fidelity.
    std::uint32_t largestNode = 0;
    std::size_t largestSize = 0;
    for (std::uint32_t node : explorer.displayableClusters()) {
      const std::size_t sz = explorer.clustering().members[node].size();
      if (sz > largestSize) {
        largestSize = sz;
        largestNode = node;
      }
    }
    const core::BrushGrid brush = westBrush(store->arena().radiusCm);
    const core::QueryParams queryParams;

    Stopwatch drillSw;
    const core::QueryResult drill =
        explorer.queryClusterMembers(largestNode, brush, queryParams);
    const double drillSeconds = drillSw.elapsedSeconds();

    // 4. Overview brush-query throughput (the interactive path: one
    // evaluation per displayable cluster, independent of N). A batch of 50
    // calls takes a few ms, so batches repeat until at least 9 have run and
    // 0.25 s has passed; the median batch rate is reported.
    const int overviewReps = 50;
    std::vector<double> batchQps;
    Stopwatch overviewSw;
    std::size_t highlighted = 0;
    while (batchQps.size() < 9 || overviewSw.elapsedSeconds() < 0.25) {
      Stopwatch batchSw;
      for (int r = 0; r < overviewReps; ++r) {
        highlighted +=
            explorer.queryClusters(brush, queryParams).trajectoriesHighlighted;
      }
      batchQps.push_back(overviewReps / batchSw.elapsedSeconds());
    }
    const double overviewQps = bench::median(batchQps);

    const traj::ShardCacheStats stats = store->cacheStats();
    std::printf("%10" PRIu64 " %9.2f %9.1f %9.2f %7.1f%% %9.1f %11.1f %11.2f "
                "%9zu %9zu\n",
                n, genSeconds, fileBytes / double(1u << 20), trainSeconds,
                100.0 * stats.hitRate(),
                stats.peakBytesResident / double(1u << 20), overviewQps,
                1.0 / drillSeconds, explorer.displayableClusters().size(),
                largestSize);

    // Acceptance: residency bounded by budget + one shard (admit-then-
    // evict transient), verified by the metrics counters.
    const std::uint64_t bound = budget + largestShardEstimateBytes(*store);
    if (stats.peakBytesResident > bound) {
      std::printf("  FAIL: peak resident %" PRIu64 " B exceeds budget+shard "
                  "bound %" PRIu64 " B\n",
                  stats.peakBytesResident, bound);
      allPass = false;
    } else {
      std::printf("  PASS: peak resident %.1f MB within budget+shard bound "
                  "%.1f MB (evictions=%" PRIu64 ")\n",
                  stats.peakBytesResident / double(1u << 20),
                  bound / double(1u << 20), stats.evictions);
    }
    if (drill.trajectoriesEvaluated != largestSize) {
      std::printf("  FAIL: drill-down evaluated %zu of %zu members\n",
                  drill.trajectoriesEvaluated, largestSize);
      allPass = false;
    }
    (void)highlighted;

    // Determinism gate at the smallest size: parallel training must be
    // bit-identical to serial (same seed, any thread count or shard
    // order — see Som::trainBatch).
    if (si == 0) {
      const traj::ShardClustering serial =
          traj::clusterShardStore(*store, somP, featP, nullptr);
      const bool identical =
          serial.assignment == explorer.clustering().assignment &&
          serial.somWeights == explorer.clustering().somWeights;
      std::printf("  %s: parallel SOM %s serial (n=%" PRIu64 ")\n",
                  identical ? "PASS" : "FAIL",
                  identical ? "bit-identical to" : "DIVERGES from", n);
      allPass = allPass && identical;
    }

    // Degraded pass: same store, injected media faults.
    if (opt.faultPct > 0.0) {
      allPass =
          runFaultScenario(path, n, opt.faultPct, budget, somP, featP) &&
          allPass;
    }

    store.reset();
    std::filesystem::remove(path);
  }

  std::printf("\n%s\n", allPass ? "E10: ALL CHECKS PASSED"
                                : "E10: CHECK FAILURES (see above)");
  return allPass ? 0 : 1;
}
