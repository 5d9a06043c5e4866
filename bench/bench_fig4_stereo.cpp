// E2 (Fig. 4): the stereoscopic space-time-cube encoding.
//
// Regenerates: the per-trajectory tessellation and rasterization cost
// (mono vs stereo — the paper's wall renders two views per frame, so the
// expected shape is ~2x), stereo composition cost, and the parallax
// figures behind the ergonomic-slider comfort envelope. A cell render is
// a cold CellRenderPipeline render, a fresh pipeline per eye.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "render/pipeline.h"
#include "render/rasterizer.h"
#include "render/stereo.h"

using namespace svq;

namespace {

const traj::Trajectory& sampleTrajectory() {
  return bench::dataset(50)[7];
}

void BM_Tessellate(benchmark::State& state) {
  const traj::Trajectory& t = sampleTrajectory();
  const render::CellTransform transform{{0, 0, 400, 400}, 50.0f};
  const render::OrthoStereoCamera camera;
  for (auto _ : state) {
    auto line = tessellate(t, transform, camera, render::Eye::kLeft, {},
                           {0.0f, 1e9f});
    benchmark::DoNotOptimize(line);
  }
  state.counters["samples"] = static_cast<double>(t.size());
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(t.size()));
}
BENCHMARK(BM_Tessellate)->Unit(benchmark::kMicrosecond);

void renderCellNTimes(benchmark::State& state, bool stereo) {
  const auto& ds = bench::dataset(50);
  render::SceneModel scene;
  scene.arenaRadiusCm = ds.arena().radiusCm;
  render::CellView cell;
  cell.trajectoryIndex = 7;
  cell.rect = {0, 0, 400, 400};
  scene.cells.push_back(cell);
  render::Framebuffer fb(400, 400);
  for (auto _ : state) {
    render::CellRenderPipeline left;
    auto stats = left.render(scene, ds, render::Canvas::whole(fb),
                             render::Eye::kLeft);
    if (stereo) {
      render::CellRenderPipeline right;
      stats = right.render(scene, ds, render::Canvas::whole(fb),
                           render::Eye::kRight);
    }
    benchmark::DoNotOptimize(stats);
    benchmark::DoNotOptimize(fb.pixels().data());
    benchmark::ClobberMemory();
  }
}

void BM_CellRenderMono(benchmark::State& state) {
  renderCellNTimes(state, false);
}
BENCHMARK(BM_CellRenderMono)->Unit(benchmark::kMicrosecond);

void BM_CellRenderStereo(benchmark::State& state) {
  renderCellNTimes(state, true);
}
BENCHMARK(BM_CellRenderStereo)->Unit(benchmark::kMicrosecond);

void BM_AnaglyphCompose(benchmark::State& state) {
  render::Framebuffer left(800, 800, render::colors::kRed);
  render::Framebuffer right(800, 800, render::colors::kBlue);
  for (auto _ : state) {
    auto ana = composeAnaglyph(left, right);
    benchmark::DoNotOptimize(ana);
  }
  state.counters["Mpx"] = 0.64;
}
BENCHMARK(BM_AnaglyphCompose)->Unit(benchmark::kMillisecond);

void BM_RowInterleave(benchmark::State& state) {
  render::Framebuffer left(800, 800, render::colors::kRed);
  render::Framebuffer right(800, 800, render::colors::kBlue);
  for (auto _ : state) {
    auto ri = composeRowInterleaved(left, right);
    benchmark::DoNotOptimize(ri);
  }
}
BENCHMARK(BM_RowInterleave)->Unit(benchmark::kMillisecond);

void BM_ComfortClamp(benchmark::State& state) {
  for (auto _ : state) {
    render::OrthoStereoCamera camera;
    camera.settings().timeScaleCmPerS = 2.0f;
    camera.clampToComfort(180.0f);
    benchmark::DoNotOptimize(camera);
  }
}
BENCHMARK(BM_ComfortClamp);

void printContext() {
  std::printf("\n=== E2 / Fig. 4: stereoscopic space-time cube ===\n");
  std::printf("parallax envelope (viewer at 3 m, %.1f px disparity per cm "
              "of depth, comfort bound %.0f px):\n",
              static_cast<double>(render::StereoSettings{}.parallaxPxPerCm),
              static_cast<double>(
                  render::StereoSettings{}.maxComfortParallaxPx));
  std::printf("%-18s %-18s %-12s\n", "time scale cm/s", "parallax @180s px",
              "comfortable");
  for (float scale : {0.05f, 0.15f, 0.25f, 0.5f, 1.0f}) {
    render::StereoSettings s;
    s.timeScaleCmPerS = scale;
    const render::OrthoStereoCamera cam(s);
    std::printf("%-18.2f %-18.1f %-12s\n", static_cast<double>(scale),
                static_cast<double>(cam.maxAbsParallaxPx(180.0f)),
                cam.comfortable(180.0f) ? "yes" : "no");
  }
  std::printf("expected shape: stereo cell render ~2x mono (two views per "
              "frame)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  printContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
