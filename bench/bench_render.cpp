// Render-pipeline bench: dirty-cell frame cost, cell-parallel scaling,
// and delta scene broadcast, on the paper's 432-cell wall layout.
//
// The interactive loop this measures is the paper's: the analyst dabs the
// brush, the wall repaints. The full-redraw reference renderer
// (tests/support/reference_render.h) re-rasterizes all 432 cells every
// frame; the CellRenderPipeline repaints only the cells whose
// content hash changed (a dab touches a handful) and skips the rest, whose
// pixels are still in the target. The cluster master ships only the
// changed cells (delta broadcast) instead of the whole scene.
//
// Scenarios (all over the same pre-built frame sequence):
//   full_serial_redraw    reference renderScene of every frame — the
//                         baseline and the per-frame ground truth
//   pipeline_cold         pipeline first frame (full recomposite)
//   pipeline_dab_serial   pipeline steady-state dab edits, no pool
//   pipeline_dab_threads4 same, 4-thread pool — must be bit-identical
//   pipeline_dab_threads8 same, 8-thread pool — must be bit-identical
//   cache_restore         invalidate() + recomposite through a pipeline
//                         backed by a SharedCellCache (blit_frac = blitted
//                         / visible cells)
//   delta_broadcast       cluster session bytes, delta on vs off
//   render_span_kernel    blend span, active-ISA kernel vs scalar
//   render_thick_line_kernel  every segment of the cold frame's cells,
//                         active-ISA thick-line kernel vs scalar
//
// Acceptance checks (non-zero exit on failure):
//   - determinism: parallel output bit-identical to serial at 1/4/8
//     threads, for the cold frame and every dab frame,
//   - cache correctness: the cache_restore recomposite is bit-identical
//     to a cold render of the same scene (perf-smoke gates blit_frac),
//   - kernels: the active-ISA blend span and thick-line kernels draw
//     exactly what their scalar loops draw,
//   - (full run only) dab-edit median frame time >= 8x faster than the
//     full serial redraw, delta broadcast bytes <= 10% of full-scene
//     bytes per frame, and each SIMD kernel >= 2x faster than scalar.
//
// Writes BENCH_render.json (BenchReport, bench_common.h; consumed by
// scripts/perf_smoke.py). --smoke shrinks the wall/layout/frame count for
// CI; --out=PATH overrides the report path.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/clusterapp.h"
#include "core/session.h"
#include "reference_render.h"
#include "render/kernels.h"
#include "render/pipeline.h"
#include "render/sharedcache.h"
#include "render/spacetime.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stopwatch.h"
#include "util/threadpool.h"

using namespace svq;

namespace {

using Options = bench::BenchCliOptions;

/// Trajectories with at least one point within `r` of `p` — a cheap upper
/// bound on the cells a dab at `p` can damage (one trajectory per cell).
std::size_t trajectoriesNear(const traj::TrajectoryDataset& ds, Vec2 p,
                             float r) {
  const float r2 = r * r;
  std::size_t hits = 0;
  for (std::size_t t = 0; t < ds.size(); ++t) {
    const auto v = ds[t].view();
    for (std::size_t i = 0; i < v.count; ++i) {
      const Vec2 d{v.x[i] - p.x, v.y[i] - p.y};
      if (d.x * d.x + d.y * d.y <= r2) {
        ++hits;
        break;
      }
    }
  }
  return hits;
}

/// The dab-edit frame sequence: layout + base query, then one localized
/// brush dab per frame. The acceptance scenario is *defined* as <= 5%
/// dirty cells per frame, and every trajectory shares the release point —
/// a dab near the arena centre touches everything. So candidate spots are
/// sampled over the whole arena and the sparsest ones (fewest nearby
/// trajectories) are dabbed first: the analyst refining a query over a
/// sparse region, not repainting the trail.
std::vector<render::SceneModel> makeFrames(const traj::TrajectoryDataset& ds,
                                           const wall::WallSpec& wall,
                                           std::uint8_t layoutPreset,
                                           std::size_t frameCount) {
  constexpr float kDabRadiusCm = 1.5f;
  core::Session app(core::SharedContext::create(ds, wall));
  app.apply(ui::LayoutSwitchEvent{layoutPreset});
  app.apply(ui::BrushStrokeEvent{0, {-20.0f, 0.0f}, 15.0f});
  std::vector<render::SceneModel> frames;
  frames.push_back(app.buildScene());

  struct Spot {
    Vec2 pos;
    std::size_t hits;
  };
  std::vector<Spot> spots;
  const float arenaR = ds.arena().radiusCm;
  for (int a = 0; a < 36; ++a) {
    const float ang = 2.0f * 3.14159265f * static_cast<float>(a) / 36.0f;
    for (int r = 2; r <= 9; ++r) {
      const float rr = arenaR * static_cast<float>(r) / 10.0f;
      const Vec2 p{std::cos(ang) * rr, std::sin(ang) * rr};
      const std::size_t hits = trajectoriesNear(ds, p, kDabRadiusCm);
      if (hits >= 1) spots.push_back({p, hits});
    }
  }
  std::stable_sort(spots.begin(), spots.end(),
                   [](const Spot& a, const Spot& b) { return a.hits < b.hits; });

  for (std::size_t i = 0; frames.size() < frameCount && !spots.empty(); ++i) {
    // Past the candidate list (tiny datasets), revisit spots with a wider
    // brush so each frame still paints fresh area.
    const Spot& s = spots[i % spots.size()];
    const float radius = kDabRadiusCm * static_cast<float>(1 + i / spots.size());
    app.apply(ui::BrushStrokeEvent{1, s.pos, radius});
    frames.push_back(app.buildScene());
  }
  return frames;
}

int run(const Options& opt) {
  const std::size_t trajCount = opt.smoke ? 120 : 500;
  const std::size_t frameCount = opt.smoke ? 12 : 40;
  // Preset 2 = the paper's 36x12 = 432-cell layout; smoke uses 24x6.
  const std::uint8_t layoutPreset = opt.smoke ? 1 : 2;
  const wall::WallSpec wall =
      opt.smoke ? bench::reducedWall(160, 90) : bench::reducedWall();

  const auto& ds = bench::dataset(trajCount);
  std::printf("=== render pipeline: dab edits on a %s wall ===\n",
              opt.smoke ? "smoke-sized" : "432-cell");
  const auto frames = makeFrames(ds, wall, layoutPreset, frameCount);
  const std::size_t cells = frames[0].cells.size();
  std::printf("%zu cells, %zu frames (1 cold + %zu dab edits), %dx%d px\n",
              cells, frames.size(), frames.size() - 1, wall.totalPxW(),
              wall.totalPxH());

  bench::BenchReport report;
  MetricsRegistry& reg = MetricsRegistry::global();
  const render::Eye eye = render::Eye::kCenter;  // zero parallax: reference
                                                 // and pipeline pixels
                                                 // are comparable
  bool ok = true;

  // --- baseline: full serial redraw of every frame --------------------------
  std::vector<double> fullMs;
  std::vector<std::uint64_t> frameHashes;  // ground truth per dab frame
  {
    render::Framebuffer fb(wall.totalPxW(), wall.totalPxH());
    renderScene(frames[0], ds, render::Canvas::whole(fb), eye);
    for (std::size_t f = 1; f < frames.size(); ++f) {
      Stopwatch w;
      renderScene(frames[f], ds, render::Canvas::whole(fb), eye);
      fullMs.push_back(w.elapsedMillis());
      frameHashes.push_back(fb.contentHash());
    }
    report.add("full_serial_redraw", fullMs);
  }

  // --- pipeline, serial ------------------------------------------------------
  std::vector<double> serialMs;
  std::uint64_t coldHash = 0;
  double dirtyCells = 0.0;
  {
    reg.reset("render.");
    render::CellRenderPipeline pipe;
    render::Framebuffer fb(wall.totalPxW(), wall.totalPxH());
    Stopwatch cold;
    pipe.render(frames[0], ds, render::Canvas::whole(fb), eye);
    report.add("pipeline_cold", {cold.elapsedMillis()});
    coldHash = fb.contentHash();
    for (std::size_t f = 1; f < frames.size(); ++f) {
      Stopwatch w;
      const auto stats =
          pipe.render(frames[f], ds, render::Canvas::whole(fb), eye);
      serialMs.push_back(w.elapsedMillis());
      dirtyCells += static_cast<double>(stats.cellsRasterized);
      if (fb.contentHash() != frameHashes[f - 1]) {
        std::fprintf(stderr,
                     "FAIL: pipeline frame %zu differs from full redraw\n", f);
        ok = false;
      }
    }
    auto& s = report.add("pipeline_dab_serial", serialMs);
    bench::attachCounters(s, "render.");
    s.counters["dirty_fraction"] =
        dirtyCells / static_cast<double>((frames.size() - 1) * cells);
    s.counters["speedup_vs_full"] =
        bench::median(serialMs) > 0.0
            ? bench::median(fullMs) / bench::median(serialMs)
            : 0.0;
  }

  // --- cache restore through the shared cell cache --------------------------
  {
    // Damage the target, recomposite through the cache, and demand
    // bit-identity with a cold render of the same scene.
    render::SharedCellCache cache;
    render::PipelineOptions popt;
    popt.sharedCache = &cache;
    render::CellRenderPipeline pipe(popt);
    render::Framebuffer fb(wall.totalPxW(), wall.totalPxH());
    pipe.render(frames.back(), ds, render::Canvas::whole(fb), eye);
    pipe.invalidate();
    fb.clear(render::Color{1, 2, 3, 255});
    Stopwatch w;
    const auto stats =
        pipe.render(frames.back(), ds, render::Canvas::whole(fb), eye);
    auto& s = report.add("cache_restore", {w.elapsedMillis()});
    const std::size_t visible = frames.back().cells.size() - stats.cellsCulled;
    s.counters["blit_frac"] =
        visible > 0 ? static_cast<double>(stats.cellsBlitted) /
                          static_cast<double>(visible)
                    : 0.0;
    render::Framebuffer coldFb(wall.totalPxW(), wall.totalPxH());
    render::CellRenderPipeline coldPipe;
    coldPipe.render(frames.back(), ds, render::Canvas::whole(coldFb), eye);
    if (fb.contentHash() != coldFb.contentHash()) {
      std::fprintf(stderr, "FAIL: cache restore differs from cold render\n");
      ok = false;
    }
  }

  // --- pipeline, parallel: must be bit-identical to serial -------------------
  for (const unsigned threads : {4u, 8u}) {
    ThreadPool pool(threads);
    render::PipelineOptions popt;
    popt.pool = &pool;
    render::CellRenderPipeline pipe(popt);
    render::Framebuffer fb(wall.totalPxW(), wall.totalPxH());
    pipe.render(frames[0], ds, render::Canvas::whole(fb), eye);
    if (fb.contentHash() != coldHash) {
      std::fprintf(stderr, "FAIL: %u-thread cold render differs\n", threads);
      ok = false;
    }
    std::vector<double> ms;
    for (std::size_t f = 1; f < frames.size(); ++f) {
      Stopwatch w;
      pipe.render(frames[f], ds, render::Canvas::whole(fb), eye);
      ms.push_back(w.elapsedMillis());
      if (fb.contentHash() != frameHashes[f - 1]) {
        std::fprintf(stderr, "FAIL: %u-thread frame %zu differs\n", threads,
                     f);
        ok = false;
      }
    }
    report.add("pipeline_dab_threads" + std::to_string(threads), ms);
  }

  // --- delta scene broadcast --------------------------------------------------
  double deltaRatio = 0.0;
  {
    reg.reset("cluster.");
    const auto preset =
        cluster::ClusterOptions::preset(cluster::ClusterPreset::kMinimal);
    const auto on = cluster::runClusterSession(
        ds, wall, frames, cluster::ClusterOptions(preset));
    const auto off = cluster::runClusterSession(
        ds, wall, frames,
        cluster::ClusterOptions(preset).withDeltaBroadcast(false));
    auto& s = report.add("delta_broadcast");
    bench::attachCounters(s, "cluster.");
    const double fullPerFrame =
        static_cast<double>(off.broadcastBytesFull) /
        static_cast<double>(frames.size());
    const double deltaPerFrame =
        on.broadcastFramesDelta == 0
            ? 0.0
            : static_cast<double>(on.broadcastBytesDelta) /
                  static_cast<double>(on.broadcastFramesDelta);
    deltaRatio = fullPerFrame > 0.0 ? deltaPerFrame / fullPerFrame : 1.0;
    s.counters["bytes_full_per_frame"] = fullPerFrame;
    s.counters["bytes_delta_per_frame"] = deltaPerFrame;
    s.counters["delta_ratio"] = deltaRatio;
    s.counters["delta_frames"] =
        static_cast<double>(on.broadcastFramesDelta);
  }

  // --- span kernel: SIMD vs scalar source-over blend -------------------------
  {
    const util::Isa isa = util::activeIsa();
    const std::size_t n = opt.smoke ? (1u << 14) : (1u << 17);
    Rng rng(0xb1e9dULL);
    std::vector<render::Color> base(n);
    for (auto& px : base) {
      px = {static_cast<std::uint8_t>(rng.below(256)),
            static_cast<std::uint8_t>(rng.below(256)),
            static_cast<std::uint8_t>(rng.below(256)), 255};
    }
    const render::Color src{200, 80, 40, 96};  // translucent: blend path
    const int kReps = opt.smoke ? 15 : 40;
    std::vector<double> scalarMs, simdMs;
    std::vector<render::Color> scalarOut, simdOut;
    for (int r = 0; r < kReps; ++r) {
      scalarOut = base;
      Stopwatch w;
      render::blendSpanScalar(scalarOut.data(), n, src);
      scalarMs.push_back(w.elapsedMillis());
    }
    for (int r = 0; r < kReps; ++r) {
      simdOut = base;
      Stopwatch w;
      render::blendSpanVariant(isa, simdOut.data(), n, src);
      simdMs.push_back(w.elapsedMillis());
    }
    if (std::memcmp(scalarOut.data(), simdOut.data(),
                    n * sizeof(render::Color)) != 0) {
      std::fprintf(stderr, "FAIL: %s blend span differs from scalar\n",
                   util::toString(isa));
      ok = false;
    }
    const double ratio =
        bench::median(simdMs) > 0.0
            ? bench::median(scalarMs) / bench::median(simdMs)
            : 0.0;
    auto& s = report.add("render_span_kernel", simdMs);
    s.counters["scalar_median_ms"] = bench::median(scalarMs);
    s.counters["simd_speedup"] = ratio;
    s.counters["pixels"] = static_cast<double>(n);
    std::printf("blend span kernel:     %s %.2fx vs scalar (%zu px)\n",
                util::toString(isa), ratio, n);
    if (!opt.smoke && isa != util::Isa::kScalar && ratio < 2.0) {
      std::fprintf(stderr,
                   "FAIL: %s blend ratio %.2fx below the 2x target\n",
                   util::toString(isa), ratio);
      ok = false;
    }
  }

  // --- thick-line kernel: SIMD vs scalar on real cells' segments -------------
  {
    // Every trajectory segment of the cold frame, tessellated and boxed as
    // renderCell and drawThickLine do, clipped to its cell.
    struct Segment {
      RectI box;
      Vec2 a, b;
      render::Color c;
    };
    const util::Isa isa = util::activeIsa();
    const render::SceneModel& scene = frames[0];
    const render::OrthoStereoCamera camera(scene.stereo);
    const float halfWidth = std::max(0.5f, scene.style.halfWidthPx);
    const float feather = 1.0f;
    const float reach = halfWidth + feather;
    render::Framebuffer scalarFb(wall.totalPxW(), wall.totalPxH());
    render::Framebuffer simdFb(wall.totalPxW(), wall.totalPxH());
    std::vector<Segment> segments;
    std::size_t boxPixels = 0;
    for (const render::CellView& cell : scene.cells) {
      if (cell.trajectoryIndex >= ds.size()) continue;
      const render::StyledPolyline line = render::tessellate(
          ds[cell.trajectoryIndex],
          render::CellTransform{cell.rect, scene.arenaRadiusCm, 3.0f}, camera,
          eye, cell.segmentHighlights, scene.timeWindow, scene.style);
      const RectI clip = cell.rect.clipped(scalarFb.rect());
      for (std::size_t i = 1; i < line.points.size(); ++i) {
        if (line.colors[i - 1].a == 0 || line.colors[i].a == 0) continue;
        const Vec2 a = line.points[i - 1];
        const Vec2 b = line.points[i];
        const int x0 = static_cast<int>(std::floor(std::min(a.x, b.x) - reach));
        const int x1 = static_cast<int>(std::ceil(std::max(a.x, b.x) + reach));
        const int y0 = static_cast<int>(std::floor(std::min(a.y, b.y) - reach));
        const int y1 = static_cast<int>(std::ceil(std::max(a.y, b.y) + reach));
        const RectI box = RectI{x0, y0, x1 - x0 + 1, y1 - y0 + 1}.clipped(clip);
        if (box.empty()) continue;
        segments.push_back(
            {box, a, b,
             render::Color::lerp(line.colors[i - 1], line.colors[i], 0.5f)});
        boxPixels += static_cast<std::size_t>(box.areaPx());
      }
    }
    const auto drawAll = [&](util::Isa variant, render::Framebuffer& fb,
                             std::vector<double>& ms) {
      fb.clear(render::colors::kDarkBg);
      Stopwatch w;
      for (const Segment& seg : segments) {
        render::thickLineBoxVariant(
            variant, &fb.at(seg.box.x, seg.box.y),
            static_cast<std::size_t>(fb.width()), seg.box, seg.a, seg.b,
            halfWidth, feather, seg.c);
      }
      ms.push_back(w.elapsedMillis());
    };
    const int kReps = opt.smoke ? 15 : 40;
    std::vector<double> scalarMs, simdMs;
    for (int r = 0; r < kReps; ++r) {
      drawAll(util::Isa::kScalar, scalarFb, scalarMs);
    }
    for (int r = 0; r < kReps; ++r) drawAll(isa, simdFb, simdMs);
    if (scalarFb.pixels() != simdFb.pixels()) {
      std::fprintf(stderr, "FAIL: %s thick-line kernel differs from scalar\n",
                   util::toString(isa));
      ok = false;
    }
    const double ratio =
        bench::median(simdMs) > 0.0
            ? bench::median(scalarMs) / bench::median(simdMs)
            : 0.0;
    auto& s = report.add("render_thick_line_kernel", simdMs);
    s.counters["scalar_median_ms"] = bench::median(scalarMs);
    s.counters["simd_speedup"] = ratio;
    s.counters["segments"] = static_cast<double>(segments.size());
    s.counters["box_pixels"] = static_cast<double>(boxPixels);
    std::printf("thick-line kernel:     %s %.2fx vs scalar (%zu segments, "
                "%zu box px)\n",
                util::toString(isa), ratio, segments.size(), boxPixels);
    if (!opt.smoke && isa != util::Isa::kScalar && ratio < 2.0) {
      std::fprintf(stderr,
                   "FAIL: %s thick-line ratio %.2fx below the 2x target\n",
                   util::toString(isa), ratio);
      ok = false;
    }
  }

  // --- report ----------------------------------------------------------------
  const double speedup = bench::median(serialMs) > 0.0
                             ? bench::median(fullMs) / bench::median(serialMs)
                             : 0.0;
  std::printf("%-24s %10s %10s\n", "scenario", "median ms", "p95 ms");
  for (const auto& s : report.scenarios()) {
    std::printf("%-24s %10.3f %10.3f\n", s.name.c_str(), s.medianMs, s.p95Ms);
  }
  std::printf("dab dirty fraction:    %.1f%% of %zu cells\n",
              100.0 * dirtyCells /
                  static_cast<double>((frames.size() - 1) * cells),
              cells);
  std::printf("dab speedup vs full:   %.1fx\n", speedup);
  std::printf("delta bytes per frame: %.1f%% of full\n", 100.0 * deltaRatio);

  if (!bench::writeReport(report, opt.out)) ok = false;

  if (!opt.smoke) {
    if (speedup < 8.0) {
      std::fprintf(stderr, "FAIL: dab speedup %.1fx below the 8x target\n",
                   speedup);
      ok = false;
    }
    if (deltaRatio > 0.10) {
      std::fprintf(stderr,
                   "FAIL: delta bytes %.1f%% of full, above the 10%% target\n",
                   100.0 * deltaRatio);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parseBenchCli(argc, argv, "BENCH_render.json");
  if (!opt) return 2;
  return run(*opt);
}
