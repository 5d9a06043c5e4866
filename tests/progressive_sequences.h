// progressive_sequences.h — seeded edit sequences over one long-lived
// anytime query (core/progressive.h), for the kept-verdict property
// tests: core_progressive_test runs a short sweep in tier1 and
// core_progressive_sweep_test a longer one in tier2.
//
// A sequence mixes dabs of counted, uncounted and erasing brush indices,
// clears of one brush and of all, absolute windows that widen, narrow
// and shift, a relative window switched on and off, brushCount changes
// and no-op edits. After each edit the query either refines to
// convergence in random chunk sizes, and must then equal
// exactReference, or refines a few steps and is interrupted by the next
// begin(). Optionally the store's file rots mid-sequence, so one shard
// is quarantined while the query is live.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "core/progressive.h"
#include "traj/synth.h"
#include "util/rng.h"

namespace svq::core::sequences {

/// A store of `dataset` on disk, opened with a cache budget of a quarter
/// of the file, and its explorer. Removes the file on destruction.
class SequenceWorld {
 public:
  SequenceWorld(traj::TrajectoryDataset dataset, const std::string& name,
                std::uint32_t shardCapacity = 16)
      : dataset_(std::move(dataset)) {
    path_ = (std::filesystem::temp_directory_path() /
             ("svq_sequences_" + name + ".svqs"))
                .string();
    if (!traj::writeShardStore(dataset_, path_, shardCapacity)) {
      ADD_FAILURE() << "cannot write " << path_;
      return;
    }
    traj::ShardStoreOptions options;
    options.cacheBudgetBytes =
        static_cast<std::size_t>(std::filesystem::file_size(path_) / 4);
    auto opened = traj::ShardStore::open(path_, options);
    if (!opened) {
      ADD_FAILURE() << "cannot open " << path_;
      return;
    }
    store_ = std::make_unique<traj::ShardStore>(std::move(*opened));
    traj::SomParams sp;
    sp.rows = 3;
    sp.cols = 3;
    sp.epochs = 3;
    traj::FeatureParams fp;
    fp.resampleCount = 16;
    fp.arenaRadiusCm = dataset_.arena().radiusCm;
    explorer_ = std::make_unique<ShardSomExplorer>(*store_, sp, fp);
  }
  ~SequenceWorld() {
    explorer_.reset();
    store_.reset();
    std::remove(path_.c_str());
  }
  SequenceWorld(const SequenceWorld&) = delete;
  SequenceWorld& operator=(const SequenceWorld&) = delete;

  bool ok() const { return explorer_ != nullptr; }
  const traj::TrajectoryDataset& dataset() const { return dataset_; }
  const traj::ShardStore& store() const { return *store_; }
  const ShardSomExplorer& explorer() const { return *explorer_; }

  /// Flips one byte in the middle of a shard's payload on disk and drops
  /// the cache, so the next read of that shard fails its CRC.
  void rotShard(std::size_t shard) {
    const traj::ShardInfo& info = store_->shardInfo(shard);
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    const auto at = static_cast<std::streamoff>(info.offset + info.byteSize / 2);
    char byte = 0;
    file.seekg(at);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    file.seekp(at);
    file.write(&byte, 1);
    file.close();
    store_->clearCache();
  }

 private:
  traj::TrajectoryDataset dataset_;
  std::string path_;
  std::unique_ptr<traj::ShardStore> store_;
  std::unique_ptr<ShardSomExplorer> explorer_;
};

inline traj::TrajectoryDataset sequenceDataset(std::size_t n,
                                               std::uint64_t seed) {
  traj::AntSimulator sim({}, seed);
  traj::DatasetSpec spec;
  spec.count = n;
  return sim.generate(spec);
}

/// Refines to convergence in random chunk sizes and compares with
/// exactReference. Returns false (with a failure recorded) on a mismatch.
inline bool convergeAndCheck(ProgressiveClusterQuery& query,
                             const SequenceWorld& world,
                             const BrushGrid& brush, const QueryParams& params,
                             Rng& rng, const std::string& where) {
  while (!query.converged()) {
    if (query.refineStep(1 + rng.below(4)) == 0) {
      ADD_FAILURE() << where << ": refinement wedged";
      return false;
    }
  }
  const auto exact = ProgressiveClusterQuery::exactReference(
      world.explorer(), brush, params);
  if (query.estimates() != exact) {
    ADD_FAILURE() << where << ": converged estimates differ from "
                  << "exactReference";
    return false;
  }
  return true;
}

struct SequenceStats {
  int checks = 0;       ///< converged states compared with exactReference
  int interrupted = 0;  ///< begin() calls that cut refinement short
  int failures = 0;
};

/// Runs one seeded sequence of `edits` edits. With `rotAt` >= 0, the
/// store's file rots before that edit: one shard is corrupted on disk and
/// the edit switches the brushCount, which dirties every member, so the
/// shard is read — and quarantined — during refinement.
inline SequenceStats runEditSequence(SequenceWorld& world, std::uint64_t seed,
                                     int edits, int rotAt = -1) {
  SequenceStats stats;
  Rng rng(seed);
  const float radius = world.dataset().arena().radiusCm;
  const float span = std::max(1.0f, world.dataset().maxDuration());
  BrushCanvas canvas(radius, 128);
  QueryParams params;
  params.timeWindow = {0.0f, span};
  ProgressiveClusterQuery query(world.explorer());

  auto brushIndex = [&]() -> std::int8_t {
    const double p = rng.uniform();
    if (p < 0.6) {  // counted
      return static_cast<std::int8_t>(
          rng.below(std::min<std::size_t>(params.brushCount, 6)));
    }
    if (p < 0.8) {  // uncounted: past brushCount, or past 127
      const int index = rng.chance(0.5) ? rng.rangeInt(6, 127)
                                        : rng.rangeInt(128, 254);
      return static_cast<std::int8_t>(static_cast<std::uint8_t>(index));
    }
    return static_cast<std::int8_t>(static_cast<std::uint8_t>(255));  // erase
  };

  for (int e = 0; e < edits; ++e) {
    const std::string where =
        "seed " + std::to_string(seed) + " edit " + std::to_string(e);
    if (e == rotAt) {
      world.rotShard(rng.below(world.store().shardCount()));
      params.brushCount = params.brushCount == 6 ? 3 : 6;
    } else {
      switch (rng.below(12)) {
        case 0:
        case 1:
        case 2:
        case 3:
          canvas.addStroke({brushIndex(),
                            {rng.uniform(-radius, radius),
                             rng.uniform(-radius, radius)},
                            rng.uniform(3.0f, 15.0f)});
          break;
        case 4:
          if (!canvas.strokes().empty()) {
            const auto& strokes = canvas.strokes();
            canvas.clear(strokes[rng.below(strokes.size())].brushIndex);
          }
          break;
        case 5:
          canvas.clear();
          break;
        case 6: {  // widen
          const float d = rng.uniform(0.0f, 0.3f * span);
          params.timeWindow.x -= d * rng.uniformF();
          params.timeWindow.y += d * rng.uniformF();
          break;
        }
        case 7: {  // narrow, possibly past empty
          const float d = rng.uniform(0.0f, 0.3f * span);
          params.timeWindow.x += d * rng.uniformF();
          params.timeWindow.y -= d * rng.uniformF();
          break;
        }
        case 8: {  // shift
          const float d = rng.uniform(-0.3f * span, 0.3f * span);
          params.timeWindow.x += d;
          params.timeWindow.y += d;
          break;
        }
        case 9:
          if (params.relativeWindow) {
            params.relativeWindow.reset();
          } else {
            const float a = rng.uniformF();
            params.relativeWindow = Vec2{a, std::min(1.0f, a + rng.uniformF())};
          }
          break;
        case 10:
          params.brushCount = params.brushCount == 6 ? 3 : 6;
          break;
        default:  // no-op
          break;
      }
    }

    if (query.active() && !query.converged()) ++stats.interrupted;
    query.begin(canvas.grid(), params);
    if (rng.chance(0.6)) {
      if (!convergeAndCheck(query, world, canvas.grid(), params, rng, where)) {
        ++stats.failures;
      }
      ++stats.checks;
    } else {
      const std::size_t steps = rng.below(4);
      for (std::size_t s = 0; s < steps; ++s) query.refineStep(1 + rng.below(3));
    }
  }
  query.begin(canvas.grid(), params);
  if (!convergeAndCheck(query, world, canvas.grid(), params, rng,
                        "seed " + std::to_string(seed) + " final")) {
    ++stats.failures;
  }
  ++stats.checks;
  return stats;
}

}  // namespace svq::core::sequences
