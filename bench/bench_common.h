// bench_common.h — shared fixtures and the report writer for the
// experiment benchmarks.
//
// Every bench binary regenerates one paper artifact (see DESIGN.md's
// experiment index). Datasets are built once per binary and cached;
// all randomness is seeded so runs are reproducible.
//
// Machine-readable reports: benches print human-readable tables to
// stdout; CI wants numbers it can diff against a checked-in baseline
// without parsing those tables. Each bench appends scenarios (name +
// median/p95 ms + counters) to a BenchReport and writes one flat JSON file
// (BENCH_render.json, BENCH_query.json...) that scripts/perf_smoke.py
// consumes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "traj/synth.h"
#include "util/metrics.h"
#include "wall/wall.h"

namespace svq::bench {

/// Median of a sample set (copies; bench sample counts are tiny).
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

/// p95 by nearest-rank (matches what a human reads off a sorted column).
inline double p95(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank =
      (samples.size() * 95 + 99) / 100;  // ceil(n * 0.95)
  return samples[rank == 0 ? 0 : rank - 1];
}

struct BenchScenario {
  std::string name;
  double medianMs = 0.0;
  double p95Ms = 0.0;
  /// Free-form numeric facts: metrics counters, byte totals, ratios.
  std::map<std::string, double> counters;
};

class BenchReport {
 public:
  /// Scenario from raw per-iteration timings.
  BenchScenario& add(const std::string& name,
                     const std::vector<double>& samplesMs) {
    BenchScenario s;
    s.name = name;
    s.medianMs = median(samplesMs);
    s.p95Ms = p95(samplesMs);
    scenarios_.push_back(std::move(s));
    return scenarios_.back();
  }

  /// Counter-only scenario (byte totals, ratios — no timing).
  BenchScenario& add(const std::string& name) {
    BenchScenario s;
    s.name = name;
    scenarios_.push_back(std::move(s));
    return scenarios_.back();
  }

  /// Writes the report as JSON. Returns false (and says so on stderr)
  /// when the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"scenarios\": [\n");
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      const BenchScenario& s = scenarios_[i];
      std::fprintf(f,
                   "    {\n      \"name\": \"%s\",\n"
                   "      \"median_ms\": %.6f,\n"
                   "      \"p95_ms\": %.6f,\n"
                   "      \"counters\": {",
                   s.name.c_str(), s.medianMs, s.p95Ms);
      std::size_t k = 0;
      for (const auto& [key, value] : s.counters) {
        std::fprintf(f, "%s\n        \"%s\": %.6f", k++ ? "," : "",
                     key.c_str(), value);
      }
      std::fprintf(f, "%s}\n    }%s\n", s.counters.empty() ? "" : "\n      ",
                   i + 1 < scenarios_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

  const std::vector<BenchScenario>& scenarios() const { return scenarios_; }

 private:
  std::vector<BenchScenario> scenarios_;
};

/// The plain drivers' shared CLI surface: --smoke and --out=PATH.
/// Drivers with a downstream parser (bench_fig5_query hands leftover
/// args to benchmark::Initialize) collect them in `passthrough`.
struct BenchCliOptions {
  bool smoke = false;
  std::string out;
  std::vector<char*> passthrough;  ///< argv[0] + unrecognized args
};

/// Parses the shared flags; `defaultOut` seeds `out`. Without
/// `allowPassthrough`, an unknown argument prints usage and returns
/// nullopt (drivers exit 2).
inline std::optional<BenchCliOptions> parseBenchCli(
    int argc, char** argv, const std::string& defaultOut,
    bool allowPassthrough = false) {
  BenchCliOptions opt;
  opt.out = defaultOut;
  opt.passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      opt.out = argv[i] + 6;
    } else if (allowPassthrough) {
      opt.passthrough.push_back(argv[i]);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return std::nullopt;
    }
  }
  return opt;
}

/// Writes the JSON report and prints its path; returns false on write
/// failure (drivers fold it into their exit status).
inline bool writeReport(const BenchReport& report, const std::string& path) {
  const bool ok = report.write(path);
  std::printf("report: %s\n", path.c_str());
  return ok;
}

/// Copies every global metric under `prefix` into a scenario's counters
/// (the perf_smoke.py-visible channel).
inline void attachCounters(BenchScenario& s, const std::string& prefix) {
  for (const auto& [name, value] :
       MetricsRegistry::global().snapshot(prefix)) {
    s.counters[name] = static_cast<double>(value);
  }
}

/// Cached synthetic dataset (one per (count, maxDuration) per binary).
inline const traj::TrajectoryDataset& dataset(std::size_t count,
                                              float maxDurationS = 180.0f) {
  static std::map<std::pair<std::size_t, int>, traj::TrajectoryDataset>
      cache;
  const auto key = std::make_pair(count, static_cast<int>(maxDurationS));
  auto it = cache.find(key);
  if (it == cache.end()) {
    traj::AntBehaviorParams params;
    params.maxDurationS = maxDurationS;
    traj::AntSimulator sim(params, 0x5C2012ULL + count);
    traj::DatasetSpec spec;
    spec.count = count;
    it = cache.emplace(key, sim.generate(spec)).first;
  }
  return it->second;
}

/// The paper's 6x2 wall region at full resolution (8196x1536).
inline wall::WallSpec paperWall() { return wall::cyberCommonsUsedRegion(); }

/// Same tile structure at reduced resolution, for per-iteration benches
/// where full-resolution rasterization would dominate the run time.
inline wall::WallSpec reducedWall(int tilePxW = 320, int tilePxH = 180) {
  wall::TileSpec tile;
  tile.pxW = tilePxW;
  tile.pxH = tilePxH;
  tile.activeWmm = 1150.0f;
  tile.activeHmm = 647.0f;
  return wall::WallSpec(tile, 6, 2);
}

}  // namespace svq::bench
