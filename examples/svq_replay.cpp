// svq_replay — CLI front end for the headless replay engine.
//
// Subcommands:
//   list                      print the shipped scenario names
//   run <scenario|file.svqr>  replay headless, print per-run summary
//       [--threads N] [--delta] [--faults] [--no-shared-cache]
//       [--timing-log PATH]   write a BenchReport-shaped timing report
//       [--hashes]            print every step's frame hash
//   export <scenario> <file.svqr>   save a shipped scenario as a binary
//                                   recording (replayable with `run`)
//   golden                    print tests/goldens/replay_canonical.h for
//                             the canonical scenario (used by
//                             scripts/update_goldens.py)
//
// Exit code: 0 on success, 1 on bad usage / unknown scenario / io error.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay/runner.h"
#include "replay/scenarios.h"

using namespace svq;

namespace {

int cmdList() {
  for (const std::string& name : replay::scenarios::names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

replay::Recording resolveRecording(const std::string& source) {
  if (source.size() > 5 &&
      source.compare(source.size() - 5, 5, ".svqr") == 0) {
    auto loaded = replay::Recording::loadBinary(source);
    if (!loaded) {
      throw std::runtime_error("cannot load recording: " + source);
    }
    return std::move(*loaded);
  }
  return replay::scenarios::byName(source);
}

int cmdRun(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "usage: svq_replay run <scenario|file.svqr> ...\n");
    return 1;
  }
  replay::RunnerOptions options;
  std::string timingLog;
  bool printHashes = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--threads" && i + 1 < args.size()) {
      options.renderThreads = std::atoi(args[++i].c_str());
    } else if (a == "--delta") {
      options.deltaBroadcast = true;
    } else if (a == "--faults") {
      options.deltaBroadcast = true;
      options.injectWireFaults = true;
    } else if (a == "--no-shared-cache") {
      options.useSharedCache = false;
    } else if (a == "--timing-log" && i + 1 < args.size()) {
      timingLog = args[++i];
    } else if (a == "--hashes") {
      printHashes = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return 1;
    }
  }

  const replay::Recording recording = resolveRecording(args[0]);
  replay::Runner runner(recording, options);
  const replay::RunReport report = runner.run();

  std::printf("scenario:        %s\n", args[0].c_str());
  std::printf("steps:           %zu (%u tenants)\n", report.steps.size(),
              recording.tenantCount());
  std::printf("events:          %zu applied, %zu rejected\n",
              report.eventsApplied, report.eventsRejected);
  if (report.eventsShed != 0 || report.eventsSubmitted != 0) {
    std::printf("overload:        %zu submitted, %zu shed (re-seen refusals)\n",
                report.eventsSubmitted, report.eventsShed);
  }
  if (options.deltaBroadcast) {
    std::printf("wire:            %llu packets dropped, %llu resyncs\n",
                static_cast<unsigned long long>(report.packetsDropped),
                static_cast<unsigned long long>(report.resyncs));
  }
  std::printf("total:           %.1f ms\n", report.totalMs);
  std::printf("fleet hash:      %016llx\n",
              static_cast<unsigned long long>(report.fleetHash()));
  if (printHashes) {
    for (const replay::StepTrace& s : report.steps) {
      std::printf("  step %4u t%u %-14s %016llx\n", s.index, s.tenant,
                  s.type.c_str(),
                  static_cast<unsigned long long>(s.frameHash));
    }
  }
  if (!timingLog.empty()) {
    if (!report.writeTimingLog(timingLog, args[0])) return 1;
    std::printf("timing log:      %s\n", timingLog.c_str());
  }
  return 0;
}

int cmdExport(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    std::fprintf(stderr, "usage: svq_replay export <scenario> <file.svqr>\n");
    return 1;
  }
  const replay::Recording recording = replay::scenarios::byName(args[0]);
  if (!recording.saveBinary(args[1])) return 1;
  std::printf("wrote %s (%zu steps)\n", args[1].c_str(), recording.size());
  return 0;
}

int cmdGolden() {
  replay::Runner runner(replay::scenarios::canonical());
  const replay::RunReport report = runner.run();
  const std::vector<std::uint64_t> hashes = report.frameHashes();

  std::printf(
      "// Golden per-step frame hashes for the \"canonical\" replay "
      "scenario.\n//\n"
      "// Generated by scripts/update_goldens.py — do not edit by hand.\n"
      "// Regenerate (one command, after an intentional rendering "
      "change):\n//\n"
      "//   python3 scripts/update_goldens.py\n//\n"
      "// These hashes pin the canonical scenario's output across "
      "*processes*\n"
      "// and *builds* — which is what proves SVQ_FORCE_SCALAR (pinned "
      "once per\n"
      "// process, so untestable in-process) renders bit-identically to "
      "the SIMD\n"
      "// paths: CI replays this scenario in both modes against the same\n"
      "// constants (DESIGN.md §13).\n"
      "#pragma once\n\n"
      "#include <cstddef>\n#include <cstdint>\n\n"
      "namespace svq::replay::goldens {\n\n");
  std::printf("inline constexpr std::uint64_t kCanonicalFleetHash = "
              "0x%llxULL;\n\n",
              static_cast<unsigned long long>(report.fleetHash()));
  std::printf("inline constexpr std::uint64_t kCanonicalStepHashes[] = {\n");
  for (const std::uint64_t h : hashes) {
    std::printf("    0x%llxULL,\n", static_cast<unsigned long long>(h));
  }
  std::printf(
      "};\n\n"
      "inline constexpr std::size_t kCanonicalStepCount =\n"
      "    sizeof(kCanonicalStepHashes) / sizeof(kCanonicalStepHashes[0]);\n"
      "\n}  // namespace svq::replay::goldens\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::fprintf(stderr,
                   "usage: svq_replay <list|run|export|golden> ...\n");
      return 1;
    }
    const std::string cmd = argv[1];
    std::vector<std::string> rest(argv + 2, argv + argc);
    if (cmd == "list") return cmdList();
    if (cmd == "run") return cmdRun(rest);
    if (cmd == "export") return cmdExport(rest);
    if (cmd == "golden") return cmdGolden();
    std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svq_replay: %s\n", e.what());
    return 1;
  }
}
