// E8 (Fig. 2 / Sec. V): the pilot-study session instrument.
//
// Regenerates: the session-coding summary (tag counts, tool usage,
// sensemaking-stage mapping, hypothesis cadence) for the scripted analyst
// session, plus the costs of script replay and auto-coding.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/session.h"
#include "study/coding.h"

using namespace svq;

namespace {

ui::InputScript analystSession() {
  ui::InputScript script;
  script.record(0.0, ui::LayoutSwitchEvent{2}, "orient");
  for (std::uint8_t g = 0; g < 5; ++g) {
    ui::GroupDefineEvent e;
    e.groupId = g;
    e.cellRect = {g * 7, 0, 7, 12};
    e.filter.side = static_cast<traj::CaptureSide>(g);
    e.colorIndex = g;
    script.record(10.0 + g * 4.0, e);
  }
  script.record(60.0, ui::PageEvent{+1}, "C: comparing bins");
  script.record(75.0, ui::PageEvent{-1}, "O: on-trail windier");
  script.record(120.0, ui::BrushStrokeEvent{0, {-25.0f, 0.0f}, 28.0f},
                "H: east ants exit west");
  script.record(125.0, ui::TimeWindowEvent{0.0f, 60.0f});
  script.record(150.0, ui::PageEvent{+1}, "V: supported");
  script.record(200.0, ui::BrushClearEvent{255});
  script.record(210.0, ui::BrushStrokeEvent{1, {0.0f, 0.0f}, 10.0f},
                "H: droppers search centre");
  script.record(215.0, ui::TimeWindowEvent{0.0f, 25.0f});
  script.record(240.0, ui::PageEvent{+1}, "V: supported");
  script.record(280.0, ui::TimeScaleEvent{0.4f});
  script.record(300.0, ui::DepthOffsetEvent{-10.0f});
  script.record(330.0, ui::TimeScaleEvent{0.2f}, "O: helical search loops");
  return script;
}

void BM_ScriptReplayThroughApp(benchmark::State& state) {
  const auto& ds = bench::dataset(500);
  const ui::InputScript script = analystSession();
  for (auto _ : state) {
    core::Session app(core::SharedContext::create(ds, bench::reducedWall()));
    const std::size_t applied = app.applyScript(script);
    benchmark::DoNotOptimize(applied);
  }
  state.counters["events"] = static_cast<double>(script.size());
}
BENCHMARK(BM_ScriptReplayThroughApp)->Unit(benchmark::kMillisecond);

void BM_AutoCode(benchmark::State& state) {
  const ui::InputScript script = analystSession();
  for (auto _ : state) {
    const auto log = study::autoCode(script);
    benchmark::DoNotOptimize(log);
  }
}
BENCHMARK(BM_AutoCode)->Unit(benchmark::kMicrosecond);

void BM_SessionStats(benchmark::State& state) {
  const study::SessionLog log = study::autoCode(analystSession());
  for (auto _ : state) {
    auto counts = log.tagCounts();
    auto tools = log.toolUsage();
    auto stages = log.stageCounts();
    auto delays = log.hypothesisToTestDelays();
    benchmark::DoNotOptimize(counts);
    benchmark::DoNotOptimize(tools);
    benchmark::DoNotOptimize(stages);
    benchmark::DoNotOptimize(delays);
  }
}
BENCHMARK(BM_SessionStats)->Unit(benchmark::kMicrosecond);

void printContext() {
  std::printf("\n=== E8 / Sec. V: coded pilot session ===\n");
  const study::SessionLog log = study::autoCode(analystSession());
  std::printf("%s\n", log.summaryReport().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  printContext();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
