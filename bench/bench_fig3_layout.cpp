// E1 (Fig. 3): the bezel-aware small-multiple layout and the cost of
// rendering a full wall frame of juxtaposed trajectories.
//
// Regenerates: the Fig. 3 configuration table (the three keypad presets
// 15x4 / 24x6 / 36x12 with their cell counts and bezel-safety), layout
// computation cost, and per-frame wall render cost — at the paper's
// 8196x1536 resolution for the headline numbers and at reduced
// resolution for the per-preset sweep. A frame is a cold, serial
// CellRenderPipeline render (a fresh pipeline per iteration): every
// visible cell rasterized, as in the app's first frame after a layout
// switch.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/groups.h"
#include "core/layout.h"
#include "core/session.h"
#include "render/pipeline.h"

using namespace svq;

namespace {

// --- layout computation ----------------------------------------------------

void BM_LayoutCompute(benchmark::State& state) {
  const auto presets = core::paperLayoutPresets();
  const core::LayoutConfig config =
      presets[static_cast<std::size_t>(state.range(0))];
  const wall::WallSpec wallSpec = bench::paperWall();
  for (auto _ : state) {
    auto layout = core::SmallMultipleLayout::compute(wallSpec, config);
    benchmark::DoNotOptimize(layout);
  }
  const auto layout = core::SmallMultipleLayout::compute(wallSpec, config);
  state.counters["cells"] = static_cast<double>(layout.cellCount());
  state.counters["min_cell_px"] = layout.minCellSize();
  state.counters["bezel_safe"] =
      layout.allCellsAvoidBezels(wallSpec) ? 1 : 0;
  state.SetLabel(std::to_string(config.cellsX) + "x" +
                 std::to_string(config.cellsY));
}
BENCHMARK(BM_LayoutCompute)->Arg(0)->Arg(1)->Arg(2);

// --- full-frame scene render, per preset, reduced resolution ----------------

void BM_WallFrameRender(benchmark::State& state) {
  const auto& ds = bench::dataset(500);
  const wall::WallSpec wallSpec = bench::reducedWall();
  core::Session app(core::SharedContext::create(ds, wallSpec));
  app.apply(ui::LayoutSwitchEvent{static_cast<std::uint8_t>(state.range(0))});
  core::defineFigure3Groups(app.groups(), app.layout().config().cellsX,
                            app.layout().config().cellsY);
  app.refreshAssignment();
  const render::SceneModel scene = app.buildScene();
  render::Framebuffer fb(wallSpec.totalPxW(), wallSpec.totalPxH());
  render::PipelineStats stats;
  for (auto _ : state) {
    render::CellRenderPipeline pipeline;
    stats = pipeline.render(scene, ds, render::Canvas::whole(fb),
                            render::Eye::kLeft);
    benchmark::DoNotOptimize(fb.pixels().data());
    benchmark::ClobberMemory();
  }
  state.counters["cells_drawn"] = static_cast<double>(stats.cellsDrawn());
  state.counters["segments"] = static_cast<double>(stats.segmentsDrawn);
  state.counters["Mpx"] =
      static_cast<double>(wallSpec.totalPixels()) / 1e6;
  const auto presets = core::paperLayoutPresets();
  const auto& cfg = presets[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(std::to_string(cfg.cellsX) + "x" +
                 std::to_string(cfg.cellsY));
}
BENCHMARK(BM_WallFrameRender)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// --- the paper-resolution headline: 432 cells at 8196x1536 ------------------

void BM_WallFrameRenderPaperRes(benchmark::State& state) {
  const auto& ds = bench::dataset(500);
  const wall::WallSpec wallSpec = bench::paperWall();
  core::Session app(core::SharedContext::create(ds, wallSpec));
  app.apply(ui::LayoutSwitchEvent{2});  // 36x12
  core::defineFigure3Groups(app.groups(), 36, 12);
  app.refreshAssignment();
  const render::SceneModel scene = app.buildScene();
  render::Framebuffer fb(wallSpec.totalPxW(), wallSpec.totalPxH());
  for (auto _ : state) {
    render::CellRenderPipeline pipeline;
    auto stats = pipeline.render(scene, ds, render::Canvas::whole(fb),
                                 render::Eye::kLeft);
    benchmark::DoNotOptimize(stats);
    benchmark::DoNotOptimize(fb.pixels().data());
    benchmark::ClobberMemory();
  }
  state.counters["Mpx"] =
      static_cast<double>(wallSpec.totalPixels()) / 1e6;
  state.counters["cells"] = 432;
  state.SetLabel("36x12@8196x1536");
}
BENCHMARK(BM_WallFrameRenderPaperRes)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

// --- grouping/assignment cost ------------------------------------------------

void BM_GroupAssignment(benchmark::State& state) {
  const auto& ds = bench::dataset(static_cast<std::size_t>(state.range(0)));
  core::GroupManager mgr;
  core::defineFigure3Groups(mgr, 36, 12);
  for (auto _ : state) {
    auto assignment = mgr.assign(ds, 36, 12);
    benchmark::DoNotOptimize(assignment);
  }
  state.counters["trajectories"] = static_cast<double>(ds.size());
}
BENCHMARK(BM_GroupAssignment)->Arg(100)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);

void printContext() {
  std::printf("\n=== E1 / Fig. 3: small-multiple layout on the tiled wall "
              "===\n");
  const wall::WallSpec wallSpec = bench::paperWall();
  std::printf("wall: %dx%d tiles, %dx%d px (%.1f Mpx), bezel mullion "
              "%.0f mm\n",
              wallSpec.cols(), wallSpec.rows(), wallSpec.totalPxW(),
              wallSpec.totalPxH(),
              static_cast<double>(wallSpec.totalPixels()) / 1e6,
              static_cast<double>(2.0f * wallSpec.tile().bezelMm));
  std::printf("%-8s %-8s %-14s %-12s\n", "preset", "cells", "min cell px",
              "bezel-safe");
  for (const core::LayoutConfig& cfg : core::paperLayoutPresets()) {
    const auto layout = core::SmallMultipleLayout::compute(wallSpec, cfg);
    std::printf("%2dx%-5d %-8zu %-14d %-12s\n", cfg.cellsX, cfg.cellsY,
                layout.cellCount(), layout.minCellSize(),
                layout.allCellsAvoidBezels(wallSpec) ? "yes" : "NO");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  printContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
