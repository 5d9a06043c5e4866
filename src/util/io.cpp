#include "util/io.h"

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/logging.h"
#include "util/rng.h"
#include "util/simd.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#define SVQ_HAVE_CRC32_INSN 1
#endif

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define SVQ_HAVE_FSYNC 1
#endif

namespace svq::io {

namespace {

/// Byte-at-a-time CRC32C table for the reflected polynomial 0x82F63B78.
std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Table path on the inverted running value `c`.
std::uint32_t crc32cTable(const unsigned char* p, std::size_t n,
                          std::uint32_t c) {
  static const std::array<std::uint32_t, 256> table = makeCrcTable();
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef SVQ_HAVE_CRC32_INSN
/// SSE4.2 path on the inverted running value `c`: the `crc32` instruction
/// computes the same reflected 0x82F63B78 remainder as the table, eight
/// bytes per step, then byte by byte over the tail.
__attribute__((target("sse4.2")))
std::uint32_t crc32cSse42(const unsigned char* p, std::size_t n,
                          std::uint32_t c) {
  std::uint64_t wide = c;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    wide = _mm_crc32_u64(wide, word);
  }
  c = static_cast<std::uint32_t>(wide);
  for (; n > 0; --n, ++p) c = _mm_crc32_u8(c, *p);
  return c;
}

/// The instruction runs unless SVQ_FORCE_SCALAR pins scalar kernels or the
/// CPU lacks SSE4.2. Decided once per process.
bool useCrc32Insn() {
  static const bool use = util::activeIsa() != util::Isa::kScalar &&
                          __builtin_cpu_supports("sse4.2");
  return use;
}
#endif

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
#ifdef SVQ_HAVE_CRC32_INSN
  if (useCrc32Insn()) return ~crc32cSse42(p, n, ~crc);
#endif
  return ~crc32cTable(p, n, ~crc);
}

bool fsyncFile(const std::string& path) {
#ifdef SVQ_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

bool fsyncParentDir(const std::string& path) {
#ifdef SVQ_HAVE_FSYNC
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

bool atomicPublish(const std::string& tmpPath, const std::string& finalPath) {
  if (!fsyncFile(tmpPath)) {
    SVQ_ERROR << "io: fsync failed for " << tmpPath;
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmpPath, finalPath, ec);
  if (ec) {
    SVQ_ERROR << "io: rename " << tmpPath << " -> " << finalPath
              << " failed: " << ec.message();
    return false;
  }
  // Directory fsync makes the rename itself durable; failure here is
  // logged but not fatal (the data is already intact at finalPath).
  if (!fsyncParentDir(finalPath)) {
    SVQ_WARN << "io: directory fsync failed for " << finalPath;
  }
  return true;
}

Status atomicWriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::ioError();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return Status::ioError();
    }
  }
  if (!atomicPublish(tmp, path)) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return Status::ioError();
  }
  return Status::ok();
}

std::optional<std::vector<std::uint8_t>> readFile(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;  // missing, or not a regular file
  std::vector<std::uint8_t> bytes(size);
  std::ifstream in(path, std::ios::binary);
  if (!in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(size))) {
    return std::nullopt;
  }
  return bytes;
}

FaultInjector::Draw FaultInjector::drawFor(std::uint64_t shard) const {
  // Per-shard stream derived from (seed, shard) only: recomputed from
  // scratch on every call, so the answer cannot depend on call order.
  std::uint64_t state = plan_.seed ^ (shard * 0x9E3779B97F4A7C15ULL);
  Rng rng(splitmix64(state));
  const double uEio = rng.uniform();
  const double uFlip = rng.uniform();
  const double uShort = rng.uniform();
  Draw d;
  d.bitIndex = rng.next();
  d.prefixFraction = rng.uniform();
  if (uEio < plan_.eioProbability) {
    d.kind = ReadFault::kEio;
  } else if (uFlip < plan_.bitFlipProbability) {
    d.kind = ReadFault::kBitFlip;
  } else if (uShort < plan_.shortReadProbability) {
    d.kind = ReadFault::kShortRead;
  }
  return d;
}

FaultInjector::ReadFault FaultInjector::faultFor(std::uint64_t shard) const {
  return drawFor(shard).kind;
}

Status FaultInjector::onRead(std::uint64_t shard, int attempt,
                             std::vector<std::uint8_t>& payload) {
  const Draw d = drawFor(shard);
  const bool transientActive =
      plan_.transientFailCount < 0 || attempt < plan_.transientFailCount;
  switch (d.kind) {
    case ReadFault::kNone:
      return Status::ok();
    case ReadFault::kEio:
      if (!transientActive) return Status::ok();
      ioErrors_.fetch_add(1, std::memory_order_relaxed);
      return Status::ioError(static_cast<std::int64_t>(shard));
    case ReadFault::kBitFlip: {
      // Persistent media corruption: the same bit is flipped on every
      // attempt. Surfaces through the caller's CRC check, never here.
      if (payload.empty()) return Status::ok();
      const std::uint64_t bit = d.bitIndex % (payload.size() * 8u);
      payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      bitFlips_.fetch_add(1, std::memory_order_relaxed);
      return Status::ok();
    }
    case ReadFault::kShortRead: {
      if (!transientActive) return Status::ok();
      const auto keep = static_cast<std::size_t>(
          d.prefixFraction * static_cast<double>(payload.size()));
      payload.resize(keep < payload.size() ? keep : payload.size() / 2);
      shortReads_.fetch_add(1, std::memory_order_relaxed);
      return Status::truncated(static_cast<std::int64_t>(shard));
    }
  }
  return Status::ok();
}

}  // namespace svq::io
