// The longer tier2 sweep of the anytime query's kept verdicts
// (core/progressive.h): many more seeded edit sequences than
// core_progressive_test's tier1 slice, over a larger store, with the
// store's file rotting mid-sequence in a share of them. Every converged
// state must equal exactReference.
#include <gtest/gtest.h>

#include <string>

#include "progressive_sequences.h"

namespace svq::core {
namespace {

TEST(ProgressiveSweepTest, ConvergedStatesMatchExactReference) {
  sequences::SequenceWorld world(sequences::sequenceDataset(400, 0x5EEDULL),
                                 "sweep");
  ASSERT_TRUE(world.ok());
  int checks = 0;
  int failures = 0;
  for (std::uint64_t seed = 1000; seed < 1060; ++seed) {
    const sequences::SequenceStats stats =
        sequences::runEditSequence(world, seed, 100);
    checks += stats.checks;
    failures += stats.failures;
  }
  EXPECT_EQ(failures, 0) << failures << " of " << checks
                         << " converged states differ";
  EXPECT_GE(checks, 3000);
}

TEST(ProgressiveSweepTest, ShardsQuarantinedMidSequenceCountLost) {
  for (std::uint64_t seed = 2000; seed < 2012; ++seed) {
    sequences::SequenceWorld world(sequences::sequenceDataset(300, seed),
                                   "sweep_rot" + std::to_string(seed));
    ASSERT_TRUE(world.ok());
    const sequences::SequenceStats stats = sequences::runEditSequence(
        world, seed, 80, static_cast<int>(10 + seed % 50));
    EXPECT_EQ(stats.failures, 0) << "seed " << seed;
    EXPECT_EQ(world.store().quarantinedShardCount(), 1u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace svq::core
