// Tests for the compact binary dataset format.
#include "traj/io_binary.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "traj/synth.h"

namespace svq::traj {
namespace {

TrajectoryDataset sampleDataset(std::size_t n = 40) {
  AntSimulator sim({}, 555);
  DatasetSpec spec;
  spec.count = n;
  return sim.generate(spec);
}

/// Float bit patterns a simulator never produces: ±0, denormals, ±inf and
/// NaNs with payloads (quiet, signalling, negative), plus ordinary values.
constexpr std::uint32_t kSpecialBits[] = {
    0x00000000u, 0x80000000u, 0x00000001u, 0x007FFFFFu, 0x80000123u,
    0x7F800000u, 0xFF800000u, 0x7FC00ABCu, 0xFFC01234u, 0x7F800001u,
    0x3FC00000u, 0xC0500000u,
};

/// Appends trajectories of 0, 1, 63, 64, 65, 128 and 129 points (either
/// side of the 64-point SoA block) whose channels cycle through
/// kSpecialBits.
void addSpecialTrajectories(TrajectoryDataset& ds) {
  constexpr std::size_t kSpecials = std::size(kSpecialBits);
  std::uint32_t id = 90000;
  for (const std::size_t n : {0, 1, 63, 64, 65, 128, 129}) {
    std::vector<TrajPoint> pts(n);
    for (std::size_t p = 0; p < n; ++p) {
      const auto bits = [&](std::size_t channel) {
        return std::bit_cast<float>(kSpecialBits[(3 * p + n + channel) %
                                                 kSpecials]);
      };
      pts[p].pos.x = bits(0);
      pts[p].pos.y = bits(1);
      pts[p].t = bits(2);
    }
    TrajectoryMeta meta;
    meta.id = id++;
    meta.side = static_cast<CaptureSide>(n % 5);
    meta.direction = static_cast<JourneyDirection>(n % 2);
    meta.seed = static_cast<SeedState>(n % 3);
    ds.add(Trajectory(meta, pts));
  }
}

/// Compares every live sample's bits channel by channel: a NaN equals
/// itself, and -0.0 differs from +0.0.
void expectSameBits(const Trajectory& got, const Trajectory& want) {
  ASSERT_EQ(got.size(), want.size());
  const PointsView g = got.view();
  const PointsView w = want.view();
  for (std::size_t p = 0; p < w.count; ++p) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(g.x[p]),
              std::bit_cast<std::uint32_t>(w.x[p]))
        << "x of point " << p;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(g.y[p]),
              std::bit_cast<std::uint32_t>(w.y[p]))
        << "y of point " << p;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(g.t[p]),
              std::bit_cast<std::uint32_t>(w.t[p]))
        << "t of point " << p;
  }
}

TEST(BinaryIoTest, RoundTripBitExact) {
  TrajectoryDataset ds = sampleDataset();
  addSpecialTrajectories(ds);
  const auto restored = fromBinary(toBinary(ds));
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), ds.size());
  EXPECT_EQ(std::bit_cast<std::uint32_t>(restored->arena().radiusCm),
            std::bit_cast<std::uint32_t>(ds.arena().radiusCm));
  for (std::size_t i = 0; i < ds.size(); ++i) {
    SCOPED_TRACE("trajectory " + std::to_string(i));
    EXPECT_EQ((*restored)[i].meta(), ds[i].meta());
    expectSameBits((*restored)[i], ds[i]);
  }
}

TEST(BinaryIoTest, EmptyDatasetRoundTrip) {
  TrajectoryDataset ds(ArenaSpec{25.0f});
  const auto restored = fromBinary(toBinary(ds));
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->empty());
  EXPECT_FLOAT_EQ(restored->arena().radiusCm, 25.0f);
}

TEST(BinaryIoTest, RejectsWrongMagic) {
  std::vector<std::uint8_t> bytes = toBinary(sampleDataset(2)).bytes();
  bytes[0] = 'X';
  EXPECT_FALSE(fromBinary(util::MessageBuffer(bytes)).has_value());
}

TEST(BinaryIoTest, RejectsTruncation) {
  const std::vector<std::uint8_t> bytes = toBinary(sampleDataset(3)).bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ASSERT_FALSE(fromBinary(util::MessageBuffer({bytes.begin(),
                                                 bytes.begin() + cut}))
                     .has_value())
        << "cut at " << cut << " of " << bytes.size();
  }
}

TEST(BinaryIoTest, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> bytes = toBinary(sampleDataset(2)).bytes();
  bytes.insert(bytes.end(), {'e', 'x', 't', 'r', 'a'});
  EXPECT_FALSE(fromBinary(util::MessageBuffer(bytes)).has_value());
}

TEST(BinaryIoTest, RejectsBadEnumValue) {
  TrajectoryDataset ds(ArenaSpec{50.0f});
  ds.add(Trajectory({}, {{{0, 0}, 0}, {{1, 0}, 1}}));
  std::vector<std::uint8_t> bytes = toBinary(ds).bytes();
  // Corrupt the side byte (offset: 16 header + 4 id).
  bytes[20] = 9;
  EXPECT_FALSE(fromBinary(util::MessageBuffer(bytes)).has_value());
}

TEST(BinaryIoTest, SmallerThanCsv) {
  const TrajectoryDataset ds = sampleDataset(50);
  EXPECT_LT(toBinary(ds).size(), ds.toCsv().size() / 2);
}

TEST(BinaryIoTest, FileRoundTrip) {
  const TrajectoryDataset ds = sampleDataset(10);
  const std::string path =
      (std::filesystem::temp_directory_path() / "svq_bin_test.svqt").string();
  ASSERT_TRUE(saveBinary(ds, path));
  const auto loaded = loadBinary(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), ds.size());
  EXPECT_EQ(loaded->totalPoints(), ds.totalPoints());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, LoadMissingFileFails) {
  EXPECT_FALSE(loadBinary("/no/such/file.svqt").has_value());
}

}  // namespace
}  // namespace svq::traj
