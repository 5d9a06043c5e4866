// Anytime-query bench: time-to-first-pixel vs time-to-exact for the
// two-phase progressive evaluation (core/progressive.h) over a shard
// store.
//
// The paper's interaction contract is a first response within one frame
// budget; the engineering contract on top is that letting the answer
// *converge* costs little more than computing it exactly from scratch.
// This driver measures both ends of that trade and emits the
// convergence curve between them:
//
//   full_exact     from-scratch exact evaluation of every cluster's
//                  members (ProgressiveClusterQuery::exactReference) +
//                  scene build + raster — the no-anytime baseline.
//   first_pixel    begin() pre-pass (prototypes + summary classification)
//                  + progressive overview build + raster — what the
//                  analyst sees immediately.
//   time_to_exact  begin() + refineStep() loop to convergence + final
//                  scene + raster. The printed curve samples (ms,
//                  coverage) after every step.
//   drill_sequence one long-lived query through seeded rounds of edits
//                  like perfbench's anytime_drill (three dabs, a window
//                  widen and a narrow, a clear), converging after each,
//                  over the store reopened with a quarter-file cache
//                  budget. As in anytime_drill, every first frame and
//                  every refine frame is built and rendered through one
//                  long-lived pipeline. Reports read_frac — shards read
//                  over unpruned shards, summed over the edits: 1.0 when
//                  every edit re-reads every shard the summaries cannot
//                  prove out, lower as kept verdicts resolve shards
//                  without IO — the shard cache's hit_ratio, and
//                  redraw_frac — pixels rasterized over visible cell
//                  pixels, summed over the frames: about the share of
//                  cells that change when every changed cell is redrawn
//                  whole, lower as a refine frame repaints only the labels
//                  and coverage strips it moves. All three are counts, not
//                  timings.
//   shard_crc32c   io::crc32c, which every shard-cache miss runs over its
//                  payload, against a byte-wise table loop local to this
//                  bench on one seeded 256 KiB buffer. Every value test
//                  passes if the dispatch silently falls back to the table;
//                  the speedup_vs_bytewise gate does not.
//
// Acceptance checks (non-zero exit on failure):
//   - checksum identity: io::crc32c equals the byte-wise loop,
//   - exactness: converged estimates equal exactReference bit-for-bit,
//     for refinement chunk sizes 1 / 3 / unbounded, and after every edit
//     of the drill sequence, whose converged frame must also equal a cold
//     render of its scene,
//   - render bit-identity: the converged progressive scene rasters to
//     the same pixels as the exact-reference scene at 1/4/8 render
//     threads, with the shared cell cache on and off,
//   - (full run only) first_pixel median <= 16 ms and time_to_exact
//     median <= 1.25x full_exact median.
//
// full_exact and time_to_exact run interleaved, one rep of each in
// alternating order, so host drift moves both sides of exact_over_full
// alike; --smoke keeps the full run's 15 reps.
//
// Writes BENCH_progressive.json (BenchReport, bench_common.h; consumed by
// scripts/perf_smoke.py against bench/baselines/
// BENCH_progressive_smoke.json). --smoke shrinks the store for CI;
// --out=PATH overrides the report path.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/clusterscene.h"
#include "core/progressive.h"
#include "render/pipeline.h"
#include "render/sharedcache.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/threadpool.h"

using namespace svq;

namespace {

using Options = bench::BenchCliOptions;

constexpr double kFirstPixelBudgetMs = 16.0;
constexpr double kExactOverFullCeiling = 1.25;

core::BrushGrid makeBrush(float arenaRadiusCm) {
  core::BrushCanvas canvas(arenaRadiusCm, 256);
  core::paintArenaHalf(canvas, 0, traj::ArenaSide::kWest, arenaRadiusCm);
  // A second, localized dab so the paint mask is not a trivial half-plane.
  canvas.addStroke({1, {arenaRadiusCm * 0.4f, arenaRadiusCm * 0.3f},
                    arenaRadiusCm * 0.1f});
  return canvas.grid();
}

/// Renders `overview` through a fresh pipeline and returns the frame hash.
std::uint64_t rasterHash(const core::ClusterOverviewScene& overview,
                         const wall::WallSpec& wall, ThreadPool* pool,
                         render::SharedCellCache* cache) {
  render::PipelineOptions po;
  po.pool = pool;
  po.sharedCache = cache;
  render::CellRenderPipeline pipe(po);
  render::Framebuffer fb(wall.totalPxW(), wall.totalPxH());
  pipe.render(overview.scene, overview.averagesDataset,
              render::Canvas::whole(fb), render::Eye::kLeft);
  return fb.contentHash();
}

/// Byte-wise CRC32C table loop (reflected polynomial 0x82F63B78): the
/// fixed base of the shard_crc32c ratio, whatever io::crc32c dispatches to.
std::uint32_t bytewiseCrc32c(const unsigned char* p, std::size_t n,
                             std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

/// Times io::crc32c and the byte-wise loop over a seeded 256 KiB buffer (a
/// shard payload's size). Each rep chains kPasses checksums through the
/// running value, so no pass can be skipped and both chains must end on
/// the same value. Returns false when the two ever disagree.
bool shardCrcScenario(bench::BenchReport& report) {
  constexpr std::size_t kBytes = std::size_t{256} << 10;
  constexpr int kReps = 9;
  constexpr int kPasses = 8;
  Rng rng(0xC3C32ULL);
  std::vector<unsigned char> buf(kBytes);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next());

  std::vector<double> dispatchedMs, bytewiseMs;
  std::uint32_t dispatched = 0, bytewise = 0;
  for (int r = 0; r < kReps; ++r) {
    Stopwatch w;
    for (int p = 0; p < kPasses; ++p) {
      dispatched = io::crc32c(buf.data(), kBytes, dispatched);
    }
    dispatchedMs.push_back(w.elapsedMillis() / kPasses);
    Stopwatch wb;
    for (int p = 0; p < kPasses; ++p) {
      bytewise = bytewiseCrc32c(buf.data(), kBytes, bytewise);
    }
    bytewiseMs.push_back(wb.elapsedMillis() / kPasses);
  }
  const bool identical =
      dispatched == bytewise &&
      io::crc32c(buf.data(), kBytes) == bytewiseCrc32c(buf.data(), kBytes, 0);
  const double speedup =
      bench::median(dispatchedMs) > 0.0
          ? bench::median(bytewiseMs) / bench::median(dispatchedMs)
          : 0.0;

  auto& s = report.add("shard_crc32c", dispatchedMs);
  s.counters["bytes"] = static_cast<double>(kBytes);
  s.counters["bytewise_median_ms"] = bench::median(bytewiseMs);
  s.counters["speedup_vs_bytewise"] = speedup;
  s.counters["bit_identical"] = identical ? 1.0 : 0.0;
  std::printf("shard crc32c: %.4f ms per 256 KiB (byte-wise %.4f ms) = "
              "%.1fx, values %s\n",
              bench::median(dispatchedMs), bench::median(bytewiseMs), speedup,
              identical ? "identical" : "DIFFER");
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: io::crc32c differs from the byte-wise loop\n");
  }
  return identical;
}

/// The drill_sequence scenario (see the file comment). Returns false
/// unless every converged state equals exactReference and every
/// converged frame equals a cold render of its scene.
bool drillSequenceScenario(const std::string& storePath,
                           const traj::SomParams& sp,
                           const traj::FeatureParams& fp, float radiusCm,
                           float maxDurationS, int rounds,
                           const wall::WallSpec& wall,
                           bench::BenchReport& report) {
  traj::ShardStoreOptions so;
  so.cacheBudgetBytes =
      static_cast<std::size_t>(std::filesystem::file_size(storePath) / 4);
  auto store = traj::ShardStore::open(storePath, so);
  if (!store) {
    std::fprintf(stderr, "FAIL: cannot reopen shard store\n");
    return false;
  }
  const core::ShardSomExplorer explorer(*store, sp, fp);
  const double shards = static_cast<double>(store->shardCount());

  struct Converged {
    core::BrushGrid brush;
    core::QueryParams params;
    std::vector<core::ClusterEstimate> estimates;
  };
  std::vector<Converged> converged;
  std::vector<double> editMs;
  double reads = 0.0;
  double unpruned = 0.0;
  bool framesExact = true;

  // The frames: one long-lived pipeline over the whole wall, as each of
  // anytime_drill's targets keeps one across its frames.
  const core::ClusterSceneOptions sceneOptions;
  render::CellRenderPipeline pipeline;
  render::Framebuffer target(wall.totalPxW(), wall.totalPxH());
  double pixelsRasterized = 0.0;
  double visiblePixels = 0.0;
  auto drawFrame = [&](const core::ProgressiveClusterQuery& q) {
    const core::ClusterOverviewScene overview =
        core::buildProgressiveOverview(q, wall, sceneOptions);
    const render::PipelineStats stats =
        pipeline.render(overview.scene, overview.averagesDataset,
                        render::Canvas::whole(target), render::Eye::kLeft);
    pixelsRasterized += static_cast<double>(stats.pixelsRasterized);
    for (const render::CellView& cell : overview.scene.cells) {
      visiblePixels +=
          static_cast<double>(cell.rect.clipped(target.rect()).areaPx());
    }
    return overview;
  };

  core::BrushCanvas canvas(radiusCm, 256);
  core::QueryParams params;
  params.timeWindow = {0.0f, maxDurationS};
  core::ProgressiveClusterQuery query(explorer);
  Rng rng(0xD2111ULL);
  const traj::ShardCacheStats before = store->cacheStats();
  auto apply = [&] {
    Stopwatch w;
    query.begin(canvas.grid(), params);
    core::ClusterOverviewScene overview = drawFrame(query);
    while (!query.converged()) {
      query.refineStep(2);
      overview = drawFrame(query);
    }
    editMs.push_back(w.elapsedMillis());
    reads += static_cast<double>(query.refinedShardCount());
    unpruned += shards - static_cast<double>(query.prunedShards());
    converged.push_back({canvas.grid(), params, query.estimates()});
    if (target.contentHash() != rasterHash(overview, wall, nullptr, nullptr)) {
      std::fprintf(stderr,
                   "FAIL: drill edit %zu: the long-lived pipeline's converged "
                   "frame differs from a cold render\n",
                   converged.size() - 1);
      framesExact = false;
    }
  };
  for (int round = 0; round < rounds; ++round) {
    const auto brush = static_cast<std::int8_t>(round % 3);
    const float angle = rng.uniform(0.0f, 6.2831853f);
    const float reach = rng.uniform(0.1f, 0.6f) * radiusCm;
    for (int dab = 0; dab < 3; ++dab) {
      const float a = angle + rng.uniform(-0.4f, 0.4f);
      const float r = reach + rng.uniform(-0.08f, 0.08f) * radiusCm;
      canvas.addStroke({brush, {std::cos(a) * r, std::sin(a) * r},
                        rng.uniform(0.1f, 0.24f) * radiusCm});
      apply();
    }
    params.timeWindow = {0.0f, maxDurationS};  // widen
    apply();
    params.timeWindow = {0.0f, rng.uniform(0.15f, 0.7f) * maxDurationS};
    apply();
    canvas.clear(brush);
    apply();
  }
  const traj::ShardCacheStats after = store->cacheStats();

  // Checked after the loop: exactReference reads every member through
  // the store, and that traffic must stay out of the measured cache.
  bool ok = true;
  for (std::size_t e = 0; e < converged.size(); ++e) {
    const Converged& c = converged[e];
    if (c.estimates != core::ProgressiveClusterQuery::exactReference(
                           explorer, c.brush, c.params)) {
      std::fprintf(stderr,
                   "FAIL: drill edit %zu converged to estimates that differ "
                   "from exactReference\n",
                   e);
      ok = false;
    }
  }
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  const double readFrac = unpruned > 0.0 ? reads / unpruned : 0.0;
  const double hitRatio = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  const double redrawFrac =
      visiblePixels > 0.0 ? pixelsRasterized / visiblePixels : 0.0;
  auto& s = report.add("drill_sequence", editMs);
  s.counters["edits"] = static_cast<double>(editMs.size());
  s.counters["read_frac"] = readFrac;
  s.counters["hit_ratio"] = hitRatio;
  s.counters["redraw_frac"] = redrawFrac;
  s.counters["exact"] = ok && framesExact ? 1.0 : 0.0;
  std::printf("drill sequence: %zu edits, read_frac %.3f (%.0f of %.0f "
              "unpruned shards read), hit_ratio %.3f, redraw_frac %.3f "
              "(%.0f of %.0f visible cell pixels), converged states %s, "
              "converged frames %s\n",
              editMs.size(), readFrac, reads, unpruned, hitRatio, redrawFrac,
              pixelsRasterized, visiblePixels, ok ? "exact" : "DIFFER",
              framesExact ? "exact" : "DIFFER");
  return ok && framesExact;
}

int run(const Options& opt) {
  const std::size_t trajCount = opt.smoke ? 300 : 2000;
  const std::uint32_t shardCapacity = opt.smoke ? 32 : 64;
  const std::size_t somDim = opt.smoke ? 4 : 6;
  constexpr int kReps = 15;
  const wall::WallSpec wall =
      opt.smoke ? bench::reducedWall(160, 90) : bench::reducedWall();

  const auto& ds = bench::dataset(trajCount);
  const std::string storePath =
      (std::filesystem::temp_directory_path() / "svq_bench_progressive.svqs")
          .string();
  if (!traj::writeShardStore(ds, storePath, shardCapacity)) {
    std::fprintf(stderr, "FAIL: cannot write shard store\n");
    return 1;
  }
  auto store = traj::ShardStore::open(storePath);
  if (!store) {
    std::fprintf(stderr, "FAIL: cannot open shard store\n");
    return 1;
  }
  traj::SomParams sp;
  sp.rows = somDim;
  sp.cols = somDim;
  traj::FeatureParams fp;
  fp.arenaRadiusCm = ds.arena().radiusCm;
  const core::ShardSomExplorer explorer(*store, sp, fp);

  std::printf("=== anytime query: %zu trajectories, %zu shards, %zux%zu SOM"
              " ===\n",
              ds.size(), store->shardCount(), somDim, somDim);

  const core::BrushGrid brush = makeBrush(ds.arena().radiusCm);
  core::QueryParams params;
  core::ClusterSceneOptions sceneOptions;

  bench::BenchReport report;
  bool ok = true;

  // --- full exact baseline and time to exact, interleaved -------------------
  // full_exact: exactReference + scene + raster. time_to_exact: the refine
  // loop to convergence + scene + raster. One rep of each per round, the
  // first of the pair alternating, so host drift reaches both alike.
  std::vector<double> fullMs;
  std::vector<core::ClusterEstimate> exact;
  core::ClusterOverviewScene exactScene;
  std::vector<double> exactLoopMs;
  std::vector<std::pair<double, double>> curve;  // (ms, coverage)
  const std::size_t chunk = opt.smoke ? 2 : 4;
  auto fullExactRep = [&] {
    store->clearCache();
    Stopwatch w;
    exact = core::ProgressiveClusterQuery::exactReference(explorer, brush,
                                                          params);
    const core::QueryResult prototypes =
        explorer.queryClusters(brush, params);
    exactScene = core::buildProgressiveOverview(explorer, prototypes, exact,
                                                wall, sceneOptions);
    (void)rasterHash(exactScene, wall, nullptr, nullptr);
    fullMs.push_back(w.elapsedMillis());
  };
  auto timeToExactRep = [&](int r) {
    store->clearCache();
    core::ProgressiveClusterQuery query(explorer);
    Stopwatch w;
    query.begin(brush, params);
    if (r == 0) curve.emplace_back(w.elapsedMillis(), query.coverage());
    while (!query.converged()) {
      query.refineStep(chunk);
      if (r == 0) curve.emplace_back(w.elapsedMillis(), query.coverage());
    }
    const auto overview =
        core::buildProgressiveOverview(query, wall, sceneOptions);
    (void)rasterHash(overview, wall, nullptr, nullptr);
    exactLoopMs.push_back(w.elapsedMillis());
    return query.estimates();
  };
  for (int r = 0; r < kReps; ++r) {
    // The first round runs full_exact first: it sets `exact`.
    std::vector<core::ClusterEstimate> converged;
    if (r % 2 == 0) {
      fullExactRep();
      converged = timeToExactRep(r);
    } else {
      converged = timeToExactRep(r);
      fullExactRep();
    }
    if (converged != exact) {
      std::fprintf(stderr,
                   "FAIL: converged estimates differ from exactReference "
                   "(rep %d)\n",
                   r);
      ok = false;
    }
  }
  report.add("full_exact", fullMs);
  const double exactOverFull =
      bench::median(fullMs) > 0.0
          ? bench::median(exactLoopMs) / bench::median(fullMs)
          : 0.0;
  {
    auto& s = report.add("time_to_exact", exactLoopMs);
    s.counters["exact_over_full"] = exactOverFull;
    s.counters["refine_chunk"] = static_cast<double>(chunk);
    s.counters["curve_points"] = static_cast<double>(curve.size());
  }
  std::printf("convergence curve (ms, coverage):");
  for (const auto& [ms, cov] : curve) std::printf(" (%.2f, %.2f)", ms, cov);
  std::printf("\n");

  // --- first pixel: pre-pass + overview + raster -----------------------------
  std::vector<double> firstPixelMs;
  std::size_t pendingAfterPrepass = 0;
  std::size_t prunedShards = 0;
  for (int r = 0; r < kReps; ++r) {
    store->clearCache();
    core::ProgressiveClusterQuery query(explorer);
    Stopwatch w;
    query.begin(brush, params);
    const auto overview =
        core::buildProgressiveOverview(query, wall, sceneOptions);
    (void)rasterHash(overview, wall, nullptr, nullptr);
    firstPixelMs.push_back(w.elapsedMillis());
    pendingAfterPrepass = query.pendingShards();
    prunedShards = query.prunedShards();
  }
  {
    auto& s = report.add("first_pixel", firstPixelMs);
    s.counters["pending_after_prepass"] =
        static_cast<double>(pendingAfterPrepass);
    s.counters["pruned_shards"] = static_cast<double>(prunedShards);
    s.counters["first_pixel_budget_ratio"] =
        bench::median(firstPixelMs) / kFirstPixelBudgetMs;
  }

  // --- exactness across refinement schedules ---------------------------------
  for (const std::size_t schedule : {std::size_t{1}, std::size_t{3},
                                     std::size_t{1} << 20}) {
    core::ProgressiveClusterQuery query(explorer);
    query.begin(brush, params);
    while (!query.converged()) query.refineStep(schedule);
    if (query.estimates() != exact) {
      std::fprintf(stderr,
                   "FAIL: chunk-%zu converged estimates differ from "
                   "exactReference\n",
                   schedule);
      ok = false;
    }
  }

  // --- render bit-identity: threads x shared cache ---------------------------
  {
    core::ProgressiveClusterQuery query(explorer);
    query.begin(brush, params);
    while (!query.converged()) query.refineStep(3);
    const auto overview =
        core::buildProgressiveOverview(query, wall, sceneOptions);
    const std::uint64_t want = rasterHash(exactScene, wall, nullptr, nullptr);
    for (const unsigned threads : {1u, 4u, 8u}) {
      for (const bool cached : {false, true}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
        render::SharedCellCache cache;
        const std::uint64_t got = rasterHash(
            overview, wall, pool.get(), cached ? &cache : nullptr);
        if (got != want) {
          std::fprintf(stderr,
                       "FAIL: converged frame differs from exact at %u "
                       "threads, cache %s\n",
                       threads, cached ? "on" : "off");
          ok = false;
        }
      }
    }
  }

  // --- drill sequence: kept verdicts across edits ----------------------------
  if (!drillSequenceScenario(storePath, sp, fp, ds.arena().radiusCm,
                             std::max(1.0f, ds.maxDuration()),
                             opt.smoke ? 6 : 12, wall, report)) {
    ok = false;
  }

  // --- shard checksum: dispatched vs byte-wise ------------------------------
  if (!shardCrcScenario(report)) ok = false;

  // --- report ----------------------------------------------------------------
  std::printf("%-16s %10s %10s\n", "scenario", "median ms", "p95 ms");
  for (const auto& s : report.scenarios()) {
    std::printf("%-16s %10.3f %10.3f\n", s.name.c_str(), s.medianMs, s.p95Ms);
  }
  std::printf("first pixel:  %.2f ms (budget %.0f ms)\n",
              bench::median(firstPixelMs), kFirstPixelBudgetMs);
  std::printf("time to exact: %.2f ms = %.2fx full exact\n",
              bench::median(exactLoopMs), exactOverFull);

  if (!opt.smoke) {
    if (bench::median(firstPixelMs) > kFirstPixelBudgetMs) {
      std::fprintf(stderr, "FAIL: first pixel %.2f ms over the %.0f ms budget\n",
                   bench::median(firstPixelMs), kFirstPixelBudgetMs);
      ok = false;
    }
    if (exactOverFull > kExactOverFullCeiling) {
      std::fprintf(stderr,
                   "FAIL: time-to-exact %.2fx full, over the %.2fx ceiling\n",
                   exactOverFull, kExactOverFullCeiling);
      ok = false;
    }
  }

  if (!bench::writeReport(report, opt.out)) ok = false;

  std::error_code ec;
  std::filesystem::remove(storePath, ec);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parseBenchCli(argc, argv, "BENCH_progressive.json");
  if (!opt) return 2;
  return run(*opt);
}
