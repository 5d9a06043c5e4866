// E4 (Sec. V.B / VI.B text): coverage and interaction latency.
//
// Regenerates: the "432 trajectories simultaneously = 85% of the data"
// coverage table across layout presets; the end-to-end latency of one
// interaction step (brush event -> coordinated query -> scene build ->
// wall frame render, through one CellRenderPipeline kept across dabs as
// the app keeps it); and the cadence of a hypothesis battery ("several
// hypotheses ... within a span of few minutes" — computationally,
// milliseconds each).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/hypothesis.h"
#include "core/session.h"
#include "render/pipeline.h"

using namespace svq;

namespace {

void BM_EndToEndInteraction(benchmark::State& state) {
  const auto& ds = bench::dataset(500);
  const wall::WallSpec wallSpec = bench::reducedWall();
  core::Session app(core::SharedContext::create(ds, wallSpec));
  app.apply(ui::LayoutSwitchEvent{2});
  render::Framebuffer fb(wallSpec.totalPxW(), wallSpec.totalPxH());
  render::CellRenderPipeline pipeline;
  float x = -30.0f;
  for (auto _ : state) {
    // One interaction step: a brush dab lands, the query re-evaluates
    // across all displayed trajectories, and the frame re-renders the
    // cells whose content changed.
    app.apply(ui::BrushStrokeEvent{0, {x, 0.0f}, 8.0f});
    const render::SceneModel scene = app.buildScene();
    auto stats = pipeline.render(scene, ds, render::Canvas::whole(fb),
                                 render::Eye::kLeft);
    benchmark::DoNotOptimize(stats);
    x = x >= 30.0f ? -30.0f : x + 2.0f;
    if (app.brush().strokes().size() > 64) {
      state.PauseTiming();
      app.apply(ui::BrushClearEvent{255});
      state.ResumeTiming();
    }
  }
  state.counters["displayed"] =
      static_cast<double>(app.lastQueryResult().trajectoriesEvaluated);
}
BENCHMARK(BM_EndToEndInteraction)->Unit(benchmark::kMillisecond);

void BM_QueryAndSceneOnly(benchmark::State& state) {
  const auto& ds = bench::dataset(500);
  core::Session app(core::SharedContext::create(ds, bench::reducedWall()));
  app.apply(ui::LayoutSwitchEvent{2});
  app.apply(ui::BrushStrokeEvent{0, {-25.0f, 0.0f}, 25.0f});
  for (auto _ : state) {
    auto scene = app.buildScene();
    benchmark::DoNotOptimize(scene);
  }
  state.counters["displayed"] =
      static_cast<double>(app.lastQueryResult().trajectoriesEvaluated);
}
BENCHMARK(BM_QueryAndSceneOnly)->Unit(benchmark::kMillisecond);

void BM_HypothesisBattery(benchmark::State& state) {
  const auto& ds = bench::dataset(500);
  std::vector<core::Hypothesis> battery;
  battery.push_back(core::makeHomingHypothesis(traj::CaptureSide::kEast,
                                               traj::ArenaSide::kWest,
                                               ds.arena().radiusCm));
  battery.push_back(core::makeHomingHypothesis(traj::CaptureSide::kWest,
                                               traj::ArenaSide::kEast,
                                               ds.arena().radiusCm));
  battery.push_back(core::makeHomingHypothesis(traj::CaptureSide::kNorth,
                                               traj::ArenaSide::kSouth,
                                               ds.arena().radiusCm));
  battery.push_back(core::makeHomingHypothesis(traj::CaptureSide::kSouth,
                                               traj::ArenaSide::kNorth,
                                               ds.arena().radiusCm));
  battery.push_back(core::makeSeedSearchHypothesis(ds.arena().radiusCm));
  std::size_t supported = 0;
  for (auto _ : state) {
    const auto results = core::evaluateBattery(battery, ds);
    supported = 0;
    for (const auto& r : results) {
      if (r.supported) ++supported;
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["hypotheses"] = static_cast<double>(battery.size());
  state.counters["supported"] = static_cast<double>(supported);
}
BENCHMARK(BM_HypothesisBattery)->Unit(benchmark::kMillisecond);

void BM_LayoutSwitchLatency(benchmark::State& state) {
  const auto& ds = bench::dataset(500);
  core::Session app(core::SharedContext::create(ds, bench::reducedWall()));
  std::uint8_t preset = 0;
  for (auto _ : state) {
    app.apply(ui::LayoutSwitchEvent{preset});
    benchmark::DoNotOptimize(app.layout());
    preset = static_cast<std::uint8_t>((preset + 1) % 3);
  }
}
BENCHMARK(BM_LayoutSwitchLatency)->Unit(benchmark::kMicrosecond);

void printContext() {
  std::printf("\n=== E4: coverage and interaction latency ===\n");
  const auto& ds = bench::dataset(500);
  const wall::WallSpec wallSpec = bench::paperWall();
  std::printf("dataset: %zu trajectories (paper: ~500)\n\n", ds.size());
  std::printf("%-8s %-8s %-18s\n", "preset", "cells", "dataset coverage");
  core::Session app(core::SharedContext::create(ds, wallSpec));
  for (std::uint8_t p = 0; p < 3; ++p) {
    app.apply(ui::LayoutSwitchEvent{p});
    app.buildScene();
    const auto& cfg = app.layout().config();
    std::printf("%2dx%-5d %-8zu %.0f%%\n", cfg.cellsX, cfg.cellsY,
                app.layout().cellCount(),
                static_cast<double>(app.datasetCoverage()) * 100.0);
  }
  std::printf("paper headline: 36x12 -> 432 cells -> ~85%% of the data "
              "queried at once\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  printContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
