// Tests for the io layer: CRC32C check vectors, typed status folding,
// crash-safe atomic writes, retry backoff, and the determinism contract
// of the file-layer fault injector (labelled "fault" — CI's
// fault-injection job runs exactly these suites).
#include "util/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.h"

namespace svq::io {
namespace {

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::uint8_t> bytesOf(std::string_view s) {
  return {s.begin(), s.end()};
}

// --- crc32c ----------------------------------------------------------------

TEST(Crc32cTest, MatchesTheCastagnoliCheckValue) {
  // The canonical CRC32C check vector.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32cTest, EmptyInputIsZero) { EXPECT_EQ(crc32c("", 0), 0u); }

TEST(Crc32cTest, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t partial = crc32c(data.data(), split);
    EXPECT_EQ(crc32c(data.data() + split, data.size() - split, partial),
              crc32c(data))
        << "split " << split;
  }
}

/// Bit-at-a-time CRC32C (reflected polynomial 0x82F63B78, no table): an
/// independent reference that shares no code with either crc32c() path.
std::uint32_t referenceCrc32c(const unsigned char* p, std::size_t n,
                              std::uint32_t crc = 0) {
  std::uint32_t c = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? (c >> 1) ^ 0x82F63B78u : c >> 1;
    }
  }
  return ~c;
}

/// `n` seeded random bytes.
std::vector<unsigned char> randomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.next());
  return bytes;
}

// Runs whichever path this process dispatched to: the SSE4.2 instruction
// natively, the byte-wise table under SVQ_FORCE_SCALAR=1.
TEST(Crc32cTest, MatchesBitwiseReferenceOnSeededBuffers) {
  const std::vector<unsigned char> pool = randomBytes((1u << 20) + 64, 0xC5C32);
  Rng rng(0x5EED32C);
  // Every length 0-4096 at a random start offset 0-63, alternating a fresh
  // checksum with a random running value.
  for (std::size_t len = 0; len <= 4096; ++len) {
    const std::size_t offset = rng.below(64);
    const unsigned char* p = pool.data() + offset;
    const std::uint32_t running =
        len % 2 == 0 ? 0u : static_cast<std::uint32_t>(rng.next());
    ASSERT_EQ(crc32c(p, len, running), referenceCrc32c(p, len, running))
        << "length " << len << " offset " << offset << " running "
        << running;
  }
  // A few shard-sized buffers, 256 KiB to 1 MiB.
  constexpr std::size_t k256Ki = std::size_t{256} << 10;
  for (const std::size_t len :
       {k256Ki, k256Ki + 13, std::size_t{777777}, std::size_t{1} << 20}) {
    const std::size_t offset = rng.below(64);
    const unsigned char* p = pool.data() + offset;
    const auto running = static_cast<std::uint32_t>(rng.next());
    EXPECT_EQ(crc32c(p, len, 0), referenceCrc32c(p, len, 0))
        << "length " << len << " offset " << offset;
    EXPECT_EQ(crc32c(p, len, running), referenceCrc32c(p, len, running))
        << "length " << len << " offset " << offset << " running " << running;
  }
}

TEST(Crc32cTest, EverySplitJoinsThroughTheRunningValue) {
  const std::vector<unsigned char> pool = randomBytes(256, 0x5B1173);
  Rng rng(0xA11);
  for (std::size_t len = 0; len <= 72; ++len) {
    const unsigned char* p = pool.data() + rng.below(64);
    const std::uint32_t start =
        len % 2 == 0 ? 0u : static_cast<std::uint32_t>(rng.next());
    const std::uint32_t whole = referenceCrc32c(p, len, start);
    for (std::size_t split = 0; split <= len; ++split) {
      const std::uint32_t head = crc32c(p, split, start);
      EXPECT_EQ(crc32c(p + split, len - split, head), whole)
          << "length " << len << " split " << split;
    }
  }
}

TEST(Crc32cTest, DetectsEverySingleBitFlip) {
  const std::string data = "storage fault model payload";
  const std::uint32_t good = crc32c(data);
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    std::string flipped = data;
    flipped[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(flipped[bit / 8]) ^ (1u << (bit % 8)));
    EXPECT_NE(crc32c(flipped), good) << "bit " << bit;
  }
}

// --- status ----------------------------------------------------------------

TEST(IoStatusTest, FactoriesAndPredicates) {
  EXPECT_TRUE(Status::ok().isOk());
  EXPECT_TRUE(static_cast<bool>(Status::ok()));
  EXPECT_FALSE(static_cast<bool>(Status::corrupt(3)));
  EXPECT_EQ(Status::corrupt(3).shard, 3);
  EXPECT_TRUE(Status::ioError().isTransient());
  EXPECT_TRUE(Status::truncated().isTransient());
  EXPECT_FALSE(Status::corrupt().isTransient());
  EXPECT_FALSE(Status::quarantined().isTransient());
  EXPECT_STREQ(Status::corrupt().name(), "Corrupt");
}

TEST(IoStatusTest, WorseFoldsBySeverity) {
  EXPECT_EQ(worse(Status::ok(), Status::truncated(1)).code,
            StatusCode::kTruncated);
  EXPECT_EQ(worse(Status::corrupt(), Status::truncated()).code,
            StatusCode::kCorrupt);
  EXPECT_EQ(worse(Status::corrupt(), Status::ioError()).code,
            StatusCode::kIoError);
  EXPECT_EQ(worse(Status::quarantined(), Status::ioError()).code,
            StatusCode::kQuarantined);
  // worse() keeps the first argument on ties (stable fold).
  EXPECT_EQ(worse(Status::corrupt(7), Status::corrupt(9)).shard, 7);
}

// --- retry policy ----------------------------------------------------------

TEST(RetryPolicyTest, BackoffGrowsGeometrically) {
  RetryPolicy policy;
  policy.backoffBaseMs = 1.0;
  policy.backoffMultiplier = 3.0;
  EXPECT_DOUBLE_EQ(policy.backoffMsForRetry(0), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoffMsForRetry(1), 3.0);
  EXPECT_DOUBLE_EQ(policy.backoffMsForRetry(2), 9.0);
}

// --- atomic writes ---------------------------------------------------------

TEST(AtomicWriteTest, WritesBytesAndLeavesNoTempBehind) {
  const std::string path = tempPath("svq_io_atomic.bin");
  const std::string payload = "crash-safe payload \x01\x02\x03";
  ASSERT_TRUE(atomicWriteFile(path, payload).isOk());
  EXPECT_EQ(slurp(path), payload);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, ReplacesExistingFileAtomically) {
  const std::string path = tempPath("svq_io_atomic_replace.bin");
  ASSERT_TRUE(atomicWriteFile(path, "old contents").isOk());
  ASSERT_TRUE(atomicWriteFile(path, "new").isOk());
  EXPECT_EQ(slurp(path), "new");
  std::remove(path.c_str());
}

TEST(ReadFileTest, ReadsWholeFileAndRejectsMissingOrNonRegular) {
  const std::string path = tempPath("svq_io_read.bin");
  const std::vector<std::uint8_t> payload = {0, 1, 2, 0xFF, 0, 7};
  ASSERT_TRUE(atomicWriteFile(path, payload).isOk());
  EXPECT_EQ(readFile(path), payload);
  ASSERT_TRUE(atomicWriteFile(path, std::string_view()).isOk());
  EXPECT_EQ(readFile(path), std::vector<std::uint8_t>());
  std::remove(path.c_str());
  EXPECT_FALSE(readFile(path).has_value());
  EXPECT_FALSE(readFile(std::filesystem::temp_directory_path().string())
                   .has_value());
}

TEST(AtomicWriteTest, UnwritableTargetReportsIoError) {
  EXPECT_TRUE(
      atomicWriteFile("/no/such/dir/svq_io.bin", "payload").isIoError());
}

TEST(AtomicPublishTest, PublishesTempAtFinalPath) {
  const std::string tmp = tempPath("svq_io_pub.tmp");
  const std::string dst = tempPath("svq_io_pub.bin");
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "published";
  }
  ASSERT_TRUE(atomicPublish(tmp, dst));
  EXPECT_EQ(slurp(dst), "published");
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::remove(dst.c_str());
}

// --- fault injector --------------------------------------------------------

/// The full fault map over a range of shards, for golden comparison.
std::vector<FaultInjector::ReadFault> faultMap(const FaultInjector& inj,
                                               std::uint64_t shards) {
  std::vector<FaultInjector::ReadFault> map(shards);
  for (std::uint64_t s = 0; s < shards; ++s) map[s] = inj.faultFor(s);
  return map;
}

TEST(FaultInjectorTest, FaultsArePureFunctionOfSeedAndShard) {
  FaultInjector::Plan plan;
  plan.bitFlipProbability = 0.1;
  plan.eioProbability = 0.05;
  plan.shortReadProbability = 0.05;
  plan.seed = 0xABCDEF;

  FaultInjector a(plan);
  FaultInjector b(plan);
  const auto mapA = faultMap(a, 1000);
  // Same plan, independent instance, queried twice: identical maps — the
  // determinism keystone (no hidden per-call stream state).
  EXPECT_EQ(mapA, faultMap(b, 1000));
  EXPECT_EQ(mapA, faultMap(a, 1000));

  plan.seed = 0xABCDF0;
  FaultInjector c(plan);
  EXPECT_NE(mapA, faultMap(c, 1000)) << "seed must matter";
}

TEST(FaultInjectorTest, FaultRatesTrackTheConfiguredProbabilities) {
  FaultInjector::Plan plan;
  plan.bitFlipProbability = 0.2;
  plan.seed = 42;
  FaultInjector inj(plan);
  std::uint64_t flips = 0;
  const std::uint64_t n = 10000;
  for (std::uint64_t s = 0; s < n; ++s) {
    if (inj.faultFor(s) == FaultInjector::ReadFault::kBitFlip) ++flips;
  }
  EXPECT_NEAR(static_cast<double>(flips) / static_cast<double>(n), 0.2, 0.02);
}

TEST(FaultInjectorTest, CleanPlanInjectsNothing) {
  FaultInjector inj;
  std::vector<std::uint8_t> payload = bytesOf("untouched");
  EXPECT_TRUE(inj.onRead(0, 0, payload).isOk());
  EXPECT_EQ(payload, bytesOf("untouched"));
  EXPECT_EQ(inj.faultFor(7), FaultInjector::ReadFault::kNone);
}

TEST(FaultInjectorTest, BitFlipFlipsExactlyOneBitAndReportsOk) {
  FaultInjector::Plan plan;
  plan.bitFlipProbability = 1.0;
  FaultInjector inj(plan);
  const std::vector<std::uint8_t> original =
      bytesOf("payload bytes under test");
  std::vector<std::uint8_t> payload = original;
  // Bit flips report Ok: corruption is discovered by the caller's CRC
  // check, exactly like real silent media corruption.
  EXPECT_TRUE(inj.onRead(0, 0, payload).isOk());
  ASSERT_EQ(payload.size(), original.size());
  int bitsChanged = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    unsigned diff = payload[i] ^ original[i];
    while (diff != 0) {
      bitsChanged += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bitsChanged, 1);
  EXPECT_EQ(inj.bitFlips(), 1u);

  // Persistent: the same shard gets the same flip on every attempt.
  std::vector<std::uint8_t> again = original;
  EXPECT_TRUE(inj.onRead(0, 5, again).isOk());
  EXPECT_EQ(again, payload);
}

TEST(FaultInjectorTest, TransientEioClearsAfterConfiguredAttempts) {
  FaultInjector::Plan plan;
  plan.eioProbability = 1.0;
  plan.transientFailCount = 2;
  FaultInjector inj(plan);
  std::vector<std::uint8_t> payload = bytesOf("data");
  EXPECT_TRUE(inj.onRead(3, 0, payload).isIoError());
  EXPECT_TRUE(inj.onRead(3, 1, payload).isIoError());
  EXPECT_TRUE(inj.onRead(3, 2, payload).isOk());
  EXPECT_EQ(payload, bytesOf("data"));
  EXPECT_EQ(inj.ioErrors(), 2u);
}

TEST(FaultInjectorTest, PersistentEioNeverClears) {
  FaultInjector::Plan plan;
  plan.eioProbability = 1.0;
  plan.transientFailCount = -1;
  FaultInjector inj(plan);
  std::vector<std::uint8_t> payload = bytesOf("data");
  for (int attempt = 0; attempt < 32; ++attempt) {
    EXPECT_TRUE(inj.onRead(0, attempt, payload).isIoError());
  }
}

TEST(FaultInjectorTest, ShortReadTruncatesThenClears) {
  FaultInjector::Plan plan;
  plan.shortReadProbability = 1.0;
  plan.transientFailCount = 1;
  FaultInjector inj(plan);
  const std::vector<std::uint8_t> original(256, 'x');
  std::vector<std::uint8_t> payload = original;
  EXPECT_TRUE(inj.onRead(0, 0, payload).isTruncated());
  EXPECT_LT(payload.size(), original.size());
  payload = original;
  EXPECT_TRUE(inj.onRead(0, 1, payload).isOk());
  EXPECT_EQ(payload.size(), original.size());
  EXPECT_EQ(inj.shortReads(), 1u);
}

}  // namespace
}  // namespace svq::io
