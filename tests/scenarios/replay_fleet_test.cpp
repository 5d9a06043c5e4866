// The replay determinism fleet (ctest label: replay).
//
// Every shipped scenario replays under a sweep of configurations that
// must not be observable in the output: render thread count (serial, 4,
// 8), delta scene broadcast on/off, and injected wire faults on the
// delta path. The per-step frame-hash sequence is the contract — any
// divergence anywhere in SessionService / query / raster / broadcast
// breaks exactly one assertion here, with the scenario and configuration
// named in the failure message. DESIGN.md §13 documents the contract;
// CI runs this suite twice (default and SVQ_FORCE_SCALAR=1) plus once
// under TSan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "replay/runner.h"
#include "replay/scenarios.h"

namespace svq::replay {
namespace {

struct Config {
  std::string label;
  RunnerOptions options;
};

std::vector<Config> fleetConfigs() {
  std::vector<Config> configs;
  for (const int threads : {0, 4, 8}) {
    for (const bool delta : {false, true}) {
      Config c;
      c.label = "threads=" + std::to_string(threads) +
                (delta ? " delta=on" : " delta=off");
      c.options.renderThreads = threads;
      c.options.deltaBroadcast = delta;
      configs.push_back(std::move(c));
    }
  }
  // The adversarial wire: delta broadcast with the recording's seeded
  // drop plan. Resyncs must converge to the exact same pixels.
  Config faulty;
  faulty.label = "threads=4 delta=on wire-faults=on";
  faulty.options.renderThreads = 4;
  faulty.options.deltaBroadcast = true;
  faulty.options.injectWireFaults = true;
  configs.push_back(std::move(faulty));
  // Shared cell cache off: no pixel cache at all. Caching must be
  // invisible to content.
  Config uncached;
  uncached.label = "threads=4 delta=off shared-cache=off";
  uncached.options.renderThreads = 4;
  uncached.options.useSharedCache = false;
  configs.push_back(std::move(uncached));
  return configs;
}

class ReplayFleetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplayFleetTest, HashSequenceIsIdenticalAcrossAllConfigs) {
  const std::string scenario = GetParam();
  const Recording recording = scenarios::byName(scenario);
  ASSERT_FALSE(recording.empty());

  std::vector<std::uint64_t> reference;
  std::string referenceLabel;
  for (const Config& config : fleetConfigs()) {
    Runner runner(recording, config.options);
    const RunReport report = runner.run();
    ASSERT_EQ(report.steps.size(), recording.size())
        << scenario << " [" << config.label << "]";
    const std::vector<std::uint64_t> hashes = report.frameHashes();
    if (reference.empty()) {
      reference = hashes;
      referenceLabel = config.label;
      // The reference run must actually do work: at least one applied
      // event and at least one non-trivial frame.
      EXPECT_GT(report.eventsApplied, 0u) << scenario;
      bool anyFrame = false;
      for (const std::uint64_t h : hashes) anyFrame |= (h != 0);
      EXPECT_TRUE(anyFrame) << scenario;
      continue;
    }
    ASSERT_EQ(hashes.size(), reference.size());
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      ASSERT_EQ(hashes[i], reference[i])
          << scenario << ": step " << i << " ("
          << report.steps[i].type << ", tenant "
          << report.steps[i].tenant << ") diverges between ["
          << referenceLabel << "] and [" << config.label << "]";
    }
  }
}

TEST_P(ReplayFleetTest, RerunOfSameConfigIsBitIdentical) {
  const Recording recording = scenarios::byName(GetParam());
  RunnerOptions options;
  options.renderThreads = 8;
  options.deltaBroadcast = true;
  options.injectWireFaults = true;
  Runner first(recording, options);
  Runner second(recording, options);
  const RunReport a = first.run();
  const RunReport b = second.run();
  EXPECT_EQ(a.fleetHash(), b.fleetHash());
  // The seeded fault plan is part of the recording: even the *fault
  // pattern* reproduces, not just the pixels.
  EXPECT_EQ(a.packetsDropped, b.packetsDropped);
  EXPECT_EQ(a.resyncs, b.resyncs);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ReplayFleetTest,
                         ::testing::ValuesIn(scenarios::names()),
                         [](const auto& paramInfo) { return paramInfo.param; });

TEST(ReplayFleetMetaTest, FaultInjectionActuallyDropsPackets) {
  // Guard against the fleet silently passing because no fault fired: the
  // fuzz scenario's plan must produce drops (and matching resyncs).
  RunnerOptions options;
  options.deltaBroadcast = true;
  options.injectWireFaults = true;
  Runner runner(scenarios::fuzz(), options);
  const RunReport report = runner.run();
  EXPECT_GT(report.packetsDropped, 0u);
  EXPECT_GE(report.resyncs, report.packetsDropped);
}

TEST(ReplayFleetMetaTest, RejectedEventsReplayDeterministically) {
  // The fuzz scenario deliberately includes events sessions must reject
  // (preset indices > 2, degenerate rects). Rejection counts are part of
  // the replayed contract.
  Runner a(scenarios::fuzz());
  Runner b(scenarios::fuzz());
  const RunReport ra = a.run();
  const RunReport rb = b.run();
  EXPECT_GT(ra.eventsRejected, 0u);
  EXPECT_EQ(ra.eventsApplied, rb.eventsApplied);
  EXPECT_EQ(ra.eventsRejected, rb.eventsRejected);
}

}  // namespace
}  // namespace svq::replay
