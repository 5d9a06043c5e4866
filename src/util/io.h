// io.h — typed file-IO status, CRC32C, crash-safe publication, and
// deterministic file-layer fault injection.
//
// The storage layer's counterpart to net/status.h + net/fault.h: every
// shard read/write reports a typed io::Status instead of a bare bool, so
// callers can distinguish "this shard is corrupt on media" (quarantine it
// and degrade) from "the read hit a transient error" (retry with backoff)
// from "the file is truncated" (repair to the last committed shard).
//
// Three building blocks live here because every persistent format in the
// repo (shard stores, snapshots) needs all three:
//   * crc32c() — Castagnoli CRC over payloads and footers; a single bit
//     flip anywhere in a checksummed region is always detected. It runs
//     SSE4.2's crc32 instruction eight bytes at a time when util/simd's
//     active ISA is not scalar and the CPU has SSE4.2, else a byte-wise
//     table; both return the same value for every input, so stored
//     checksums do not depend on the machine or on SVQ_FORCE_SCALAR.
//   * atomicWriteFile()/atomicPublish() — write-temp → fsync → rename
//     discipline, so a crash mid-write can never clobber the previous
//     good file or publish a half-written one. readFile() is its reading
//     counterpart for whole-file formats (SVQT, SVQR, snapshots).
//   * FaultInjector — a seeded, deterministic hook under the shard
//     reader/writer that rehearses media corruption (bit-flip), torn
//     writes, truncation, EIO and short reads. Faults are a pure function
//     of (seed, shard), never of thread interleaving or read order, so a
//     given seed reproduces the same quarantine set at any thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace svq::io {

enum class StatusCode : std::uint8_t {
  kOk = 0,           ///< operation completed with verified data
  kTruncated = 1,    ///< fewer bytes than expected (short read / torn file)
  kCorrupt = 2,      ///< checksum or structural validation failed
  kIoError = 3,      ///< the underlying read/write failed (EIO-class)
  kQuarantined = 4,  ///< the target was previously quarantined
};

struct [[nodiscard]] Status {
  StatusCode code = StatusCode::kOk;
  /// The offending shard for shard-granular operations (-1 when not
  /// applicable: whole-file operations, kOk).
  std::int64_t shard = -1;

  static Status ok() { return {StatusCode::kOk, -1}; }
  static Status truncated(std::int64_t shard = -1) {
    return {StatusCode::kTruncated, shard};
  }
  static Status corrupt(std::int64_t shard = -1) {
    return {StatusCode::kCorrupt, shard};
  }
  static Status ioError(std::int64_t shard = -1) {
    return {StatusCode::kIoError, shard};
  }
  static Status quarantined(std::int64_t shard = -1) {
    return {StatusCode::kQuarantined, shard};
  }

  bool isOk() const { return code == StatusCode::kOk; }
  bool isTruncated() const { return code == StatusCode::kTruncated; }
  bool isCorrupt() const { return code == StatusCode::kCorrupt; }
  bool isIoError() const { return code == StatusCode::kIoError; }
  bool isQuarantined() const { return code == StatusCode::kQuarantined; }
  /// True for faults that may clear on retry (EIO, short read). Corruption
  /// is a property of the media, not the attempt — retrying cannot help.
  bool isTransient() const { return isIoError() || isTruncated(); }

  explicit operator bool() const { return isOk(); }
  bool operator==(const Status&) const = default;

  const char* name() const {
    switch (code) {
      case StatusCode::kOk: return "Ok";
      case StatusCode::kTruncated: return "Truncated";
      case StatusCode::kCorrupt: return "Corrupt";
      case StatusCode::kIoError: return "IoError";
      case StatusCode::kQuarantined: return "Quarantined";
    }
    return "?";
  }

  // --- common surface (util::StatusLike) ----------------------------------
  std::int64_t detail() const { return shard; }
  const char* detailLabel() const { return "shard"; }
  /// "Ok", "Corrupt(shard=17)", ... — shared formatting (util/status.h).
  std::string message() const { return util::statusMessage(*this); }
};

static_assert(util::StatusLike<Status>);

/// The more severe of two statuses (Quarantined > IoError > Corrupt >
/// Truncated > Ok) — folds multi-shard scans into one verdict, mirroring
/// net::worse(). For io, enum order *is* severity order.
inline Status worse(Status a, Status b) {
  return util::worseOf(
      a, b, [](const Status& s) { return static_cast<int>(s.code); });
}

/// CRC32C (Castagnoli, reflected polynomial 0x82F63B78). `crc` is the
/// running value for incremental use; 0 starts a fresh checksum. The check
/// value crc32c("123456789") == 0xE3069283.
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t crc = 0);
inline std::uint32_t crc32c(std::string_view bytes, std::uint32_t crc = 0) {
  return crc32c(bytes.data(), bytes.size(), crc);
}

/// fsync the file at `path`; false on failure. No-op success on platforms
/// without fsync.
bool fsyncFile(const std::string& path);

/// fsync the directory containing `path`, making a prior rename durable.
bool fsyncParentDir(const std::string& path);

/// Durably publishes tmpPath at finalPath: fsync(tmp) → rename → fsync
/// parent directory. After this returns true, a crash leaves finalPath
/// either absent or complete — never half-written.
bool atomicPublish(const std::string& tmpPath, const std::string& finalPath);

/// Writes `bytes` to `path` with the write-temp → fsync → atomic-rename
/// protocol (temp file is `path` + ".tmp"). A crash mid-save cannot
/// clobber an existing file at `path`.
Status atomicWriteFile(const std::string& path, std::string_view bytes);
inline Status atomicWriteFile(const std::string& path,
                              std::span<const std::uint8_t> bytes) {
  return atomicWriteFile(
      path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size()));
}

/// The whole file at `path`; nullopt when it is missing, is not a regular
/// file, or cannot be read.
std::optional<std::vector<std::uint8_t>> readFile(const std::string& path);

/// Bounded retry-with-backoff for transient read faults.
struct RetryPolicy {
  int maxAttempts = 3;            ///< total attempts (1 = no retry)
  double backoffBaseMs = 0.5;     ///< sleep before the first retry
  double backoffMultiplier = 2.0; ///< growth per subsequent retry

  double backoffMsForRetry(int retry) const {
    double ms = backoffBaseMs;
    for (int i = 0; i < retry; ++i) ms *= backoffMultiplier;
    return ms;
  }
};

/// Deterministic file-layer fault injection, consulted by the shard
/// reader/writer. Read faults are a pure function of (seed, shard): a
/// faulty shard fails the same way on every read, like real corruption on
/// media — which is what makes quarantine sets reproducible across cache
/// evictions and thread counts. Transient faults (EIO, short read) clear
/// after `transientFailCount` attempts, exercising the retry path.
class FaultInjector {
 public:
  static constexpr std::uint64_t kNoTornWrite = ~0ULL;

  struct Plan {
    double bitFlipProbability = 0.0;    ///< P(shard payload has a flipped bit)
    double shortReadProbability = 0.0;  ///< P(reads of a shard come up short)
    double eioProbability = 0.0;        ///< P(reads of a shard fail with EIO)
    /// Attempts that fail before a transient fault clears; < 0 means the
    /// fault never clears (persistent EIO / short read).
    int transientFailCount = 1;
    /// One-shot writer fault: the written byte stream is cut at this
    /// offset and never published (simulates a crash mid-write).
    std::uint64_t tornWriteAtByte = kNoTornWrite;
    std::uint64_t seed = 0x10FAULL;
  };

  enum class ReadFault : std::uint8_t {
    kNone = 0,
    kEio = 1,
    kBitFlip = 2,
    kShortRead = 3,
  };

  FaultInjector() = default;
  explicit FaultInjector(Plan plan) : plan_(plan) {}

  const Plan& plan() const { return plan_; }

  /// The fault planned for `shard`'s reads — pure function of (seed,
  /// shard), same answer on every call (the determinism golden tests
  /// assert exactly this).
  ReadFault faultFor(std::uint64_t shard) const;

  /// Reader hook, called once per read attempt with the freshly read
  /// payload. May corrupt `payload` in place (bit flip — surfaces through
  /// the caller's CRC check), shorten it (short read), or fail outright
  /// (EIO). `attempt` is 0-based; transient faults succeed once `attempt`
  /// reaches transientFailCount.
  Status onRead(std::uint64_t shard, int attempt,
                std::vector<std::uint8_t>& payload);

  /// Writer hook: byte offset at which to tear the written stream, or
  /// kNoTornWrite.
  std::uint64_t tornWriteAtByte() const { return plan_.tornWriteAtByte; }
  void noteTornWrite() { tornWrites_.fetch_add(1, std::memory_order_relaxed); }

  // --- accounting ----------------------------------------------------------
  std::uint64_t bitFlips() const {
    return bitFlips_.load(std::memory_order_relaxed);
  }
  std::uint64_t shortReads() const {
    return shortReads_.load(std::memory_order_relaxed);
  }
  std::uint64_t ioErrors() const {
    return ioErrors_.load(std::memory_order_relaxed);
  }
  std::uint64_t tornWrites() const {
    return tornWrites_.load(std::memory_order_relaxed);
  }

 private:
  struct Draw {
    ReadFault kind = ReadFault::kNone;
    std::uint64_t bitIndex = 0;     ///< for kBitFlip, modulo payload bits
    double prefixFraction = 1.0;    ///< for kShortRead, kept prefix in [0,1)
  };
  Draw drawFor(std::uint64_t shard) const;

  Plan plan_;
  std::atomic<std::uint64_t> bitFlips_{0};
  std::atomic<std::uint64_t> shortReads_{0};
  std::atomic<std::uint64_t> ioErrors_{0};
  std::atomic<std::uint64_t> tornWrites_{0};
};

}  // namespace svq::io
