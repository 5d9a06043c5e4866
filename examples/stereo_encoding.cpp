// stereo_encoding — Figure 4: the space-time-cube visual encoding of a
// single trajectory with stereoscopic depth cues for time.
//
// Renders one ant trajectory as left/right eye images, a red-cyan
// anaglyph (viewable with paper glasses), a side-by-side pair (cross-eye
// viewable), and a row-interleaved frame (the wall's micro-polarizer
// format). Also demonstrates the two ergonomic sliders of Sec. IV.C.2:
// time-scale exaggeration and depth-plane offset, reporting the binocular
// parallax each setting produces and clamping to the comfort budget.
//
// Usage: stereo_encoding [seed=7]
#include <cstdio>
#include <cstdlib>

#include "render/pipeline.h"
#include "render/rasterizer.h"
#include "render/stereo.h"
#include "traj/synth.h"

using namespace svq;

namespace {

render::Framebuffer renderEye(const traj::TrajectoryDataset& dataset,
                              const render::SceneModel& scene,
                              render::Eye eye, int w, int h) {
  render::Framebuffer fb(w, h);
  render::CellRenderPipeline pipeline;
  pipeline.render(scene, dataset, render::Canvas::whole(fb), eye);
  return fb;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  // One seed-dropper ant: its initial centre search gives the cube a
  // striking "helix then run" shape.
  traj::AntSimulator simulator({}, seed);
  traj::TrajectoryMeta meta;
  meta.id = 0;
  meta.side = traj::CaptureSide::kEast;
  meta.seed = traj::SeedState::kDroppedAtCapture;
  traj::TrajectoryDataset dataset(traj::ArenaSpec{50.0f});
  dataset.add(simulator.simulate(meta, dataset.arena()));
  const traj::Trajectory& t = dataset[0];
  std::printf("trajectory: %zu samples over %.1f s, path %.1f cm\n",
              t.size(), static_cast<double>(t.duration()),
              static_cast<double>(t.pathLength()));

  const int W = 800;
  const int H = 800;
  render::SceneModel scene;
  scene.arenaRadiusCm = dataset.arena().radiusCm;
  scene.style.halfWidthPx = 2.5f;
  scene.style.startMarkerPx = 5.0f;
  render::CellView cell;
  cell.trajectoryIndex = 0;
  cell.rect = {0, 0, W, H};
  cell.background = render::colors::kDarkBg;
  scene.cells.push_back(cell);

  // Ergonomic slider sweep: report parallax for several time scales.
  std::printf("\n== time-scale slider vs binocular parallax ==\n");
  for (float scale : {0.05f, 0.15f, 0.25f, 0.5f, 1.0f}) {
    render::StereoSettings s;
    s.timeScaleCmPerS = scale;
    const render::OrthoStereoCamera cam(s);
    std::printf("  %.2f cm/s -> max parallax %6.1f px (%s)\n",
                static_cast<double>(scale),
                static_cast<double>(cam.maxAbsParallaxPx(t.duration())),
                cam.comfortable(t.duration()) ? "comfortable" : "TOO DEEP");
  }

  // Pick a deliberately excessive setting and clamp to comfort — what a
  // viewer does with the slider when the cube pops out too far.
  render::OrthoStereoCamera camera;
  camera.settings().timeScaleCmPerS = 1.0f;
  camera.clampToComfort(t.duration());
  scene.stereo = camera.settings();
  std::printf("\nclamped time scale: %.3f cm/s (max parallax %.1f px)\n",
              static_cast<double>(scene.stereo.timeScaleCmPerS),
              static_cast<double>(camera.maxAbsParallaxPx(t.duration())));

  const render::Framebuffer left =
      renderEye(dataset, scene, render::Eye::kLeft, W, H);
  const render::Framebuffer right =
      renderEye(dataset, scene, render::Eye::kRight, W, H);

  composeAnaglyph(left, right).savePpm("fig4_anaglyph.ppm");
  composeSideBySide(left, right).savePpm("fig4_side_by_side.ppm");
  composeRowInterleaved(left, right).savePpm("fig4_interleaved.ppm");
  left.savePpm("fig4_left.ppm");
  right.savePpm("fig4_right.ppm");
  std::printf("\nwrote fig4_left.ppm fig4_right.ppm fig4_anaglyph.ppm "
              "fig4_side_by_side.ppm fig4_interleaved.ppm\n");

  // Depth-offset slider: push the cube behind the display surface.
  scene.stereo.depthOffsetCm = -0.5f * t.duration() *
                               scene.stereo.timeScaleCmPerS;
  renderEye(dataset, scene, render::Eye::kLeft, W, H)
      .savePpm("fig4_left_pushed_back.ppm");
  std::printf("wrote fig4_left_pushed_back.ppm (depth offset %.1f cm)\n",
              static_cast<double>(scene.stereo.depthOffsetCm));
  return 0;
}
