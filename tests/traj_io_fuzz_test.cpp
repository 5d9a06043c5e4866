// Property/fuzz tests for the SVQT binary parser (tier2).
//
// Two properties, ~1k seed-driven iterations each (run under ASan in CI):
//   1. Round-trip: any valid dataset encodes and decodes bit-identically.
//   2. Robustness: truncations, bit-flips and hostile count fields must
//      yield nullopt — never a crash, never an allocation driven by a
//      corrupt length field rather than the actual payload size.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "traj/io_binary.h"
#include "traj/synth.h"
#include "util/rng.h"

namespace svq::traj {
namespace {

constexpr std::uint64_t kFuzzSeed = 0xF022aa11ULL;
constexpr int kIterations = 1000;

/// A structurally valid dataset with randomized shape, including the edge
/// cases a simulator never produces (empty datasets, empty trajectories,
/// single-point trajectories).
TrajectoryDataset randomDataset(Rng& rng) {
  TrajectoryDataset ds(ArenaSpec{rng.uniform(1.0f, 200.0f)});
  const std::size_t count = rng.below(8);
  for (std::size_t i = 0; i < count; ++i) {
    TrajectoryMeta meta;
    meta.id = static_cast<std::uint32_t>(rng.next());
    meta.side = static_cast<CaptureSide>(rng.below(5));
    meta.direction = static_cast<JourneyDirection>(rng.below(2));
    meta.seed = static_cast<SeedState>(rng.below(3));
    const std::size_t points = rng.below(20);  // 0 and 1 included
    std::vector<TrajPoint> pts(points);
    for (auto& p : pts) {
      p.pos = {rng.uniform(-100.0f, 100.0f), rng.uniform(-100.0f, 100.0f)};
      p.t = rng.uniform(0.0f, 300.0f);
    }
    ds.add(Trajectory(meta, std::move(pts)));
  }
  return ds;
}

TEST(BinaryIoFuzzTest, RandomDatasetsRoundTripBitIdentically) {
  Rng rng(kFuzzSeed);
  for (int iter = 0; iter < kIterations; ++iter) {
    const TrajectoryDataset ds = randomDataset(rng);
    const util::MessageBuffer bytes = toBinary(ds);
    const auto restored = fromBinary(bytes);
    ASSERT_TRUE(restored.has_value()) << "iteration " << iter;
    ASSERT_EQ(restored->size(), ds.size()) << "iteration " << iter;
    EXPECT_EQ(std::memcmp(bytes.bytes().data(),
                          toBinary(*restored).bytes().data(), bytes.size()),
              0)
        << "re-encode differs at iteration " << iter;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      ASSERT_EQ((*restored)[i].meta(), ds[i].meta());
      ASSERT_EQ((*restored)[i].size(), ds[i].size());
      for (std::size_t p = 0; p < ds[i].size(); ++p) {
        ASSERT_EQ((*restored)[i][p], ds[i][p]);
      }
    }
  }
}

TEST(BinaryIoFuzzTest, RandomTruncationsNeverCrash) {
  Rng rng(kFuzzSeed ^ 0x1);
  for (int iter = 0; iter < kIterations; ++iter) {
    const std::vector<std::uint8_t> bytes =
        toBinary(randomDataset(rng)).bytes();
    if (bytes.size() <= 1) continue;
    const std::size_t cut = rng.below(bytes.size());
    // A strict prefix is either rejected or (when the cut lands exactly on
    // a dataset whose trailing trajectories are all empty) still parses;
    // it must never crash. Rejection is the common case; the parser's
    // trailing-garbage check makes acceptance of a *proper* prefix
    // impossible unless the suffix was empty records, which cannot happen
    // — every record is at least 11 bytes — so assert rejection.
    EXPECT_FALSE(
        fromBinary(util::MessageBuffer({bytes.begin(), bytes.begin() + cut}))
            .has_value())
        << "iteration " << iter << " cut " << cut;
  }
}

TEST(BinaryIoFuzzTest, RandomBitFlipsNeverCrashOrOverAllocate) {
  Rng rng(kFuzzSeed ^ 0x2);
  for (int iter = 0; iter < kIterations; ++iter) {
    const TrajectoryDataset ds = randomDataset(rng);
    std::vector<std::uint8_t> bytes = toBinary(ds).bytes();
    if (bytes.empty()) continue;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t byte = rng.below(bytes.size());
      bytes[byte] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    }
    // May still parse (the flip can hit float payload bits); must not
    // crash, hang, or allocate per a corrupted count. ASan + the
    // parser's payload-bounded count checks enforce the latter.
    const auto result = fromBinary(util::MessageBuffer(bytes));
    if (result.has_value()) {
      EXPECT_LE(result->size(), bytes.size() / 11);
    }
  }
}

TEST(BinaryIoFuzzTest, OversizedCountFieldsAreRejectedWithoutAllocating) {
  Rng rng(kFuzzSeed ^ 0x3);
  for (int iter = 0; iter < kIterations; ++iter) {
    TrajectoryDataset ds = randomDataset(rng);
    const std::vector<std::uint8_t> bytes = toBinary(ds).bytes();

    // trajectoryCount lives at offset 12. Overwrite with a huge value:
    // must be rejected before any reserve() proportional to it.
    {
      std::vector<std::uint8_t> corrupt = bytes;
      const std::uint32_t huge =
          0x40000000u | static_cast<std::uint32_t>(rng.next());
      std::memcpy(corrupt.data() + 12, &huge, sizeof huge);
      EXPECT_FALSE(
          fromBinary(util::MessageBuffer(std::move(corrupt))).has_value())
          << "iteration " << iter;
    }

    // pointCount of the first record lives at offset 16 + 7 (when there
    // is at least one trajectory).
    if (!ds.empty()) {
      std::vector<std::uint8_t> corrupt = bytes;
      const std::uint32_t huge =
          0x40000000u | static_cast<std::uint32_t>(rng.next());
      std::memcpy(corrupt.data() + 16 + 7, &huge, sizeof huge);
      EXPECT_FALSE(
          fromBinary(util::MessageBuffer(std::move(corrupt))).has_value())
          << "iteration " << iter;
    }
  }
}

}  // namespace
}  // namespace svq::traj
