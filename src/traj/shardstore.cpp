#include "traj/shardstore.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "traj/io_binary.h"
#include "traj/resample.h"
#include "util/logging.h"
#include "util/message.h"
#include "util/threadpool.h"

namespace svq::traj {

namespace {

constexpr std::uint32_t kShardMagic = 0x53515653u;   // "SVQS"
constexpr std::uint32_t kBlockMagic = 0x42515653u;   // "SVQB"
constexpr std::uint32_t kFooterMagic = 0x46515653u;  // "SVQF"
// magic, version, arenaRadius, shardCapacity + headerCrc over them.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4 + 4;
// Per-shard block header: magic, byteSize, payloadCrc + headerCrc over them.
constexpr std::size_t kBlockHeaderBytes = 4 + 8 + 4 + 4;
// offset + byteSize + firstGlobalIndex + pointCount, trajCount, payloadCrc,
// bounds (4 floats), maxDuration.
constexpr std::size_t kFooterEntryBytesV2 = 8 * 4 + 4 + 4 + 4 * 4 + 4;

bool supportedVersion(std::uint32_t version) {
  return version == kShardFormatV2 || version == kShardFormatCurrent;
}

/// Footer entry size is version-dependent: v3 appends the fixed-size
/// spatial summary to every entry.
std::size_t footerEntryBytes(std::uint32_t version) {
  return version >= kShardFormatCurrent
             ? kFooterEntryBytesV2 + ShardSummary::kSerializedBytes
             : kFooterEntryBytesV2;
}
// shardCount, trajectoryCount, pointCount, footerBytes, footerCrc,
// tailCrc (over the preceding 32 bytes), magic.
constexpr std::size_t kTailBytes = 4 + 8 + 8 + 8 + 4 + 4 + 4;

/// Reads `n` bytes at `offset` into `out`; false when they are not all
/// there (the stream's eof bit then tells a short file from an IO error).
bool readAt(std::ifstream& in, std::uint64_t offset, std::size_t n,
            std::vector<std::uint8_t>& out) {
  out.assign(n, 0);
  in.clear();
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(n));
  return static_cast<bool>(in);
}

io::Status readFailure(const std::ifstream& in, std::int64_t shard) {
  return in.eof() ? io::Status::truncated(shard) : io::Status::ioError(shard);
}

void writeAll(std::ofstream& out, const util::MessageBuffer& buf) {
  out.write(reinterpret_cast<const char*>(buf.bytes().data()),
            static_cast<std::streamsize>(buf.size()));
}

/// Seals everything written so far with its CRC32C.
void putCrc(util::MessageBuffer& buf) {
  buf.putU32(io::crc32c(buf.bytes().data(), buf.size()));
}

/// True when the CRC32C that follows `bytes` leading bytes of `buf` (just
/// read by the caller) matches them.
bool crcMatches(const util::MessageBuffer& buf, std::size_t bytes,
                std::uint32_t crc) {
  return crc == io::crc32c(buf.bytes().data(), bytes);
}

/// An invalid box is stored as (0, 0, emptyMax, emptyMax).
void putBox(util::MessageBuffer& buf, const AABB2& box, float emptyMax) {
  const bool valid = box.valid();
  buf.putVec2(valid ? box.min : Vec2{0.0f, 0.0f});
  buf.putVec2(valid ? box.max : Vec2{emptyMax, emptyMax});
}

AABB2 getBox(util::MessageBuffer& buf) {
  const Vec2 min = buf.getVec2();
  return AABB2::of(min, buf.getVec2());
}

/// Decoded-shard memory estimate used for the cache budget.
std::uint64_t residentBytesEstimate(const ShardInfo& info) {
  return info.pointCount * sizeof(TrajPoint) +
         static_cast<std::uint64_t>(info.trajectoryCount) * sizeof(Trajectory);
}

util::MessageBuffer encodeFileHeader(float radiusCm,
                                     std::uint32_t shardCapacity,
                                     std::uint32_t version) {
  util::MessageBuffer header;
  header.putU32(kShardMagic);
  header.putU32(version);
  header.putF32(radiusCm);
  header.putU32(shardCapacity);
  putCrc(header);
  return header;
}

struct FileHeader {
  std::uint32_t version = 0;
  float radiusCm = 0.0f;
  std::uint32_t shardCapacity = 0;
};

/// The file header read from its kHeaderBytes bytes; nullopt when its
/// magic, version, fields or CRC are bad. (CRC-sealed: a bit flip in e.g.
/// the arena radius must not yield a store that opens with silently wrong
/// geometry.)
std::optional<FileHeader> decodeFileHeader(util::MessageBuffer bytes) {
  FileHeader h;
  const std::uint32_t magic = bytes.getU32();
  h.version = bytes.getU32();
  h.radiusCm = bytes.getF32();
  h.shardCapacity = bytes.getU32();
  if (magic != kShardMagic || !supportedVersion(h.version) ||
      h.radiusCm <= 0.0f || h.shardCapacity == 0 ||
      !crcMatches(bytes, kHeaderBytes - 4, bytes.getU32())) {
    return std::nullopt;
  }
  return h;
}

util::MessageBuffer encodeBlockHeader(std::uint64_t byteSize,
                                      std::uint32_t payloadCrc) {
  util::MessageBuffer block;
  block.putU32(kBlockMagic);
  block.putU64(byteSize);
  block.putU32(payloadCrc);
  putCrc(block);
  return block;
}

/// Validated block-header fields from its kBlockHeaderBytes bytes; false
/// on bad magic or CRC.
bool decodeBlockHeader(util::MessageBuffer bytes, std::uint64_t& byteSize,
                       std::uint32_t& payloadCrc) {
  const std::uint32_t magic = bytes.getU32();
  byteSize = bytes.getU64();
  payloadCrc = bytes.getU32();
  return magic == kBlockMagic &&
         crcMatches(bytes, kBlockHeaderBytes - 4, bytes.getU32());
}

/// Footer + tail for a finished sequence of shards. For v3, `summaries`
/// must parallel `infos`; for v2 it is ignored. Appended to `out`.
void encodeFooterAndTail(util::MessageBuffer& out,
                         const std::vector<ShardInfo>& infos,
                         const std::vector<ShardSummary>& summaries,
                         std::uint32_t version, std::uint64_t trajectoryCount,
                         std::uint64_t totalPoints) {
  util::MessageBuffer footer;
  for (std::size_t i = 0; i < infos.size(); ++i) {
    const ShardInfo& info = infos[i];
    footer.putU64(info.offset);
    footer.putU64(info.byteSize);
    footer.putU64(info.firstGlobalIndex);
    footer.putU64(info.pointCount);
    footer.putU32(info.trajectoryCount);
    footer.putU32(info.payloadCrc);
    putBox(footer, info.bounds, 0.0f);
    footer.putF32(info.maxDuration);
    if (version >= kShardFormatCurrent) {
      const ShardSummary& summary = summaries[i];
      for (const std::uint64_t word : summary.occupancy) footer.putU64(word);
      putBox(footer, summary.envelope, -1.0f);
      footer.putF32(summary.tMin);
      footer.putF32(summary.tMax);
    }
  }

  util::MessageBuffer tail;
  tail.putU32(static_cast<std::uint32_t>(infos.size()));
  tail.putU64(trajectoryCount);
  tail.putU64(totalPoints);
  tail.putU64(footer.size());
  tail.putU32(io::crc32c(footer.bytes().data(), footer.size()));
  putCrc(tail);
  tail.putU32(kFooterMagic);
  out.putRaw(footer.bytes());
  out.putRaw(tail.bytes());
}

/// Summarizes a decoded shard payload into its ShardInfo (offset,
/// byteSize, payloadCrc and firstGlobalIndex are the caller's).
void summarizePayload(const TrajectoryDataset& shard, ShardInfo& info) {
  info.trajectoryCount = static_cast<std::uint32_t>(shard.size());
  info.pointCount = 0;
  info.bounds = AABB2{};
  info.maxDuration = 0.0f;
  for (const Trajectory& t : shard.all()) {
    info.pointCount += t.size();
    info.bounds.expand(t.bounds());
    info.maxDuration = std::max(info.maxDuration, t.duration());
  }
}

}  // namespace

// --- writer ----------------------------------------------------------------

struct ShardStoreWriter::Impl {
  std::ofstream out;
  std::string finalPath;
  std::string tempPath;
  ArenaSpec arena;
  std::uint32_t shardCapacity = 0;
  std::uint32_t formatVersion = kShardFormatCurrent;
  io::FaultInjector* faultInjector = nullptr;
  TrajectoryDataset buffer;
  std::vector<ShardInfo> infos;
  std::vector<ShardSummary> summaries;
  std::uint64_t cursor = 0;
  std::uint64_t totalPoints = 0;
};

ShardStoreWriter::ShardStoreWriter(const std::string& path, ArenaSpec arena,
                                   std::uint32_t shardCapacity,
                                   io::FaultInjector* faultInjector,
                                   std::uint32_t formatVersion)
    : impl_(std::make_unique<Impl>()) {
  impl_->arena = arena;
  impl_->shardCapacity = std::max(1u, shardCapacity);
  impl_->formatVersion =
      supportedVersion(formatVersion) ? formatVersion : kShardFormatCurrent;
  impl_->faultInjector = faultInjector;
  impl_->buffer = TrajectoryDataset(arena);
  impl_->finalPath = path;
  impl_->tempPath = path + ".tmp";
  impl_->out.open(impl_->tempPath, std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    SVQ_ERROR << "shardstore: cannot open " << impl_->tempPath
              << " for writing";
    return;
  }
  writeAll(impl_->out, encodeFileHeader(arena.radiusCm,
                                        impl_->shardCapacity,
                                        impl_->formatVersion));
  impl_->cursor = kHeaderBytes;
  ok_ = static_cast<bool>(impl_->out);
}

ShardStoreWriter::~ShardStoreWriter() = default;

const std::string& ShardStoreWriter::tempPath() const {
  return impl_->tempPath;
}

void ShardStoreWriter::add(Trajectory t) {
  if (!ok_ || finished_) return;
  impl_->buffer.add(std::move(t));
  ++totalTrajectories_;
  if (impl_->buffer.size() >= impl_->shardCapacity) flushShard();
}

void ShardStoreWriter::flushShard() {
  if (impl_->buffer.empty()) return;
  ShardInfo info;
  info.firstGlobalIndex =
      totalTrajectories_ - static_cast<std::uint64_t>(impl_->buffer.size());
  summarizePayload(impl_->buffer, info);
  impl_->summaries.push_back(computeShardSummary(impl_->buffer));
  const util::MessageBuffer blob = toBinary(impl_->buffer);
  info.byteSize = blob.size();
  info.payloadCrc = io::crc32c(blob.bytes().data(), blob.size());
  info.offset = impl_->cursor + kBlockHeaderBytes;
  writeAll(impl_->out, encodeBlockHeader(info.byteSize, info.payloadCrc));
  writeAll(impl_->out, blob);
  impl_->cursor += kBlockHeaderBytes + blob.size();
  impl_->totalPoints += info.pointCount;
  impl_->infos.push_back(info);
  impl_->buffer = TrajectoryDataset(impl_->arena);
  ok_ = static_cast<bool>(impl_->out);
}

bool ShardStoreWriter::finish() {
  if (!ok_ || finished_) return ok_ && finished_;
  flushShard();
  util::MessageBuffer footerAndTail;
  encodeFooterAndTail(footerAndTail, impl_->infos, impl_->summaries,
                      impl_->formatVersion, totalTrajectories_,
                      impl_->totalPoints);
  writeAll(impl_->out, footerAndTail);
  impl_->cursor += footerAndTail.size();
  impl_->out.flush();
  ok_ = static_cast<bool>(impl_->out);
  finished_ = true;
  impl_->out.close();
  if (!ok_) return false;

  // Injected torn write: cut the byte stream mid-file and "crash" before
  // publication — the truncated temp file stays behind for repair, the
  // target path is untouched.
  if (impl_->faultInjector != nullptr &&
      impl_->faultInjector->tornWriteAtByte() != io::FaultInjector::kNoTornWrite &&
      impl_->faultInjector->tornWriteAtByte() < impl_->cursor) {
    std::error_code ec;
    std::filesystem::resize_file(impl_->tempPath,
                                 impl_->faultInjector->tornWriteAtByte(), ec);
    impl_->faultInjector->noteTornWrite();
    SVQ_WARN << "shardstore: injected torn write at byte "
             << impl_->faultInjector->tornWriteAtByte() << " in "
             << impl_->tempPath;
    ok_ = false;
    return false;
  }

  // Footer-last commit protocol: only a file whose tail made it to disk
  // is published, via fsync + atomic rename.
  ok_ = io::atomicPublish(impl_->tempPath, impl_->finalPath);
  return ok_;
}

// --- reader ----------------------------------------------------------------

struct ShardStore::Impl {
  std::string path;
  ShardStoreOptions options;
  ArenaSpec arena;
  std::uint32_t shardCapacity = 0;
  std::uint32_t formatVersion = kShardFormatCurrent;
  std::vector<ShardInfo> infos;
  std::uint64_t trajectoryCount = 0;
  std::uint64_t totalPoints = 0;
  /// Per-shard spatial summary: parsed from a v3 footer at open (entries
  /// that fail validateShardSummary stay nullopt), rebuilt lazily for v2
  /// stores. Lazy fills are guarded by `mutex`.
  mutable std::vector<std::optional<ShardSummary>> summaries;

  // Cache + quarantine state: all guarded by mutex (including the
  // ifstream).
  mutable std::mutex mutex;
  mutable std::ifstream in;
  struct Entry {
    std::shared_ptr<const TrajectoryDataset> dataset;
    std::uint64_t bytes = 0;
    std::list<std::size_t>::iterator lruIt;
  };
  mutable std::unordered_map<std::size_t, Entry> cache;
  mutable std::list<std::size_t> lru;  // front = most recently used
  mutable std::uint64_t bytesResident = 0;
  /// Per-shard status; non-ok entries are quarantined (sticky).
  mutable std::vector<io::Status> shardStatus;
  mutable std::uint64_t quarantinedTrajectories = 0;

  Counter* hits = nullptr;
  Counter* misses = nullptr;
  Counter* evictions = nullptr;
  Counter* quarantinedShardsCounter = nullptr;
  Counter* quarantinedTrajectoriesCounter = nullptr;
  Counter* crcFailures = nullptr;
  Counter* readRetries = nullptr;
  Counter* ioErrors = nullptr;
  Gauge* residentGauge = nullptr;

  /// A closed store's cache leaves the process-wide gauge with it.
  ~Impl() {
    if (residentGauge != nullptr) residentGauge->sub(bytesResident);
  }

  void evictDownToBudget() {
    while (bytesResident > options.cacheBudgetBytes && lru.size() > 1) {
      const std::size_t victim = lru.back();
      lru.pop_back();
      auto it = cache.find(victim);
      bytesResident -= it->second.bytes;
      residentGauge->sub(it->second.bytes);
      cache.erase(it);
      evictions->add();
    }
  }

  /// Reads + CRC-verifies one shard payload with bounded retry for
  /// transient faults. Mutex must be held (the ifstream is shared).
  io::Status readPayloadLocked(std::size_t shard,
                               std::vector<std::uint8_t>& blob) const {
    const ShardInfo& info = infos[shard];
    const auto id = static_cast<std::int64_t>(shard);
    for (int attempt = 0;; ++attempt) {
      io::Status status = io::Status::ok();
      // Cross-check the on-disk block header against the footer entry:
      // a store stitched from mismatched pieces must not parse as valid.
      std::vector<std::uint8_t> block;
      std::uint64_t blockByteSize = 0;
      std::uint32_t blockCrc = 0;
      if (!readAt(in, info.offset - kBlockHeaderBytes, kBlockHeaderBytes,
                  block)) {
        status = readFailure(in, id);
      } else if (!decodeBlockHeader(util::MessageBuffer(std::move(block)),
                                    blockByteSize, blockCrc) ||
                 blockByteSize != info.byteSize ||
                 blockCrc != info.payloadCrc) {
        status = io::Status::corrupt(id);
      } else if (!readAt(in, info.offset, info.byteSize, blob)) {
        status = readFailure(in, id);
      }
      if (status.isOk() && options.faultInjector != nullptr) {
        status = options.faultInjector->onRead(shard, attempt, blob);
      }
      if (status.isOk() && blob.size() != info.byteSize) {
        status = io::Status::truncated(id);
      }
      if (status.isOk() &&
          io::crc32c(blob.data(), blob.size()) != info.payloadCrc) {
        crcFailures->add();
        status = io::Status::corrupt(id);
      }
      if (status.isOk()) return status;
      if (status.isIoError()) ioErrors->add();
      if (!status.isTransient() ||
          attempt + 1 >= options.retry.maxAttempts) {
        return status;
      }
      readRetries->add();
      const double ms = options.retry.backoffMsForRetry(attempt);
      if (ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
      }
    }
  }

  /// Records a shard's terminal failure. Mutex must be held.
  void quarantineLocked(std::size_t shard, io::Status cause) const {
    if (!shardStatus[shard].isOk()) return;  // already quarantined
    shardStatus[shard] = cause;
    quarantinedTrajectories += infos[shard].trajectoryCount;
    quarantinedShardsCounter->add();
    quarantinedTrajectoriesCounter->add(infos[shard].trajectoryCount);
    SVQ_WARN << "shardstore: quarantined shard " << shard << " ("
             << cause.name() << ", " << infos[shard].trajectoryCount
             << " trajectories) in " << path;
  }
};

ShardStore::ShardStore() : impl_(std::make_unique<Impl>()) {}
ShardStore::~ShardStore() = default;
ShardStore::ShardStore(ShardStore&&) noexcept = default;
ShardStore& ShardStore::operator=(ShardStore&&) noexcept = default;

std::optional<ShardStore> ShardStore::open(const std::string& path,
                                           ShardStoreOptions options,
                                           io::Status* openStatus) {
  io::Status localStatus = io::Status::ok();
  io::Status& status = openStatus != nullptr ? *openStatus : localStatus;
  status = io::Status::corrupt();

  ShardStore store;
  Impl& s = *store.impl_;
  s.path = path;
  s.options = options;
  s.in.open(path, std::ios::binary);
  if (!s.in) {
    status = io::Status::ioError();
    return std::nullopt;
  }

  s.in.seekg(0, std::ios::end);
  const std::uint64_t fileSize = static_cast<std::uint64_t>(s.in.tellg());
  if (fileSize < kHeaderBytes + kTailBytes) {
    status = io::Status::truncated();
    return std::nullopt;
  }

  // Header, then tail (CRC-sealed), then footer (CRC checked against the
  // tail). Each buffer is read at its exact size, so the codec never runs
  // past one; a bad field or CRC rejects the store.
  std::vector<std::uint8_t> bytes;
  readAt(s.in, 0, kHeaderBytes, bytes);
  const std::optional<FileHeader> header =
      decodeFileHeader(util::MessageBuffer(std::move(bytes)));
  if (!header) return std::nullopt;
  s.arena = ArenaSpec{header->radiusCm};
  s.shardCapacity = header->shardCapacity;
  s.formatVersion = header->version;

  readAt(s.in, fileSize - kTailBytes, kTailBytes, bytes);
  util::MessageBuffer tail(std::move(bytes));
  const std::uint32_t shardCount = tail.getU32();
  s.trajectoryCount = tail.getU64();
  s.totalPoints = tail.getU64();
  const std::uint64_t footerBytes = tail.getU64();
  const std::uint32_t footerCrc = tail.getU32();
  if (!crcMatches(tail, kTailBytes - 8, tail.getU32()) ||
      tail.getU32() != kFooterMagic) {
    return std::nullopt;
  }
  if (footerBytes != static_cast<std::uint64_t>(shardCount) *
                         footerEntryBytes(s.formatVersion) ||
      kHeaderBytes + footerBytes + kTailBytes > fileSize) {
    return std::nullopt;
  }

  if (!readAt(s.in, fileSize - kTailBytes - footerBytes, footerBytes, bytes)) {
    status = io::Status::ioError();
    return std::nullopt;
  }
  util::MessageBuffer footer(std::move(bytes));
  if (!crcMatches(footer, footer.size(), footerCrc)) return std::nullopt;
  s.infos.resize(shardCount);
  s.summaries.assign(shardCount, std::nullopt);
  std::uint64_t expectedFirst = 0;
  for (std::size_t shardIdx = 0; shardIdx < shardCount; ++shardIdx) {
    ShardInfo& info = s.infos[shardIdx];
    info.offset = footer.getU64();
    info.byteSize = footer.getU64();
    info.firstGlobalIndex = footer.getU64();
    info.pointCount = footer.getU64();
    info.trajectoryCount = footer.getU32();
    info.payloadCrc = footer.getU32();
    info.bounds = getBox(footer);
    info.maxDuration = footer.getF32();
    if (s.formatVersion >= kShardFormatCurrent) {
      ShardSummary summary;
      for (std::uint64_t& word : summary.occupancy) word = footer.getU64();
      summary.envelope = getBox(footer);
      summary.tMin = footer.getF32();
      summary.tMax = footer.getF32();
      // An implausible summary (CRC-valid but semantically impossible,
      // e.g. from a stitched file) is dropped, not trusted: the shard
      // stays summary-less and the query path must treat it as
      // uncertain — falling back to exact evaluation, never to a wrong
      // definitely-out prune.
      if (validateShardSummary(summary, info.pointCount)) {
        s.summaries[shardIdx] = summary;
      }
    }
    // Payloads must lie between header and footer (leaving room for their
    // block headers) and tile the global index space in order. Compared
    // without adding the two fields, which could wrap.
    const std::uint64_t payloadsEnd = fileSize - kTailBytes - footerBytes;
    if (info.offset < kHeaderBytes + kBlockHeaderBytes ||
        info.offset > payloadsEnd ||
        info.byteSize > payloadsEnd - info.offset ||
        info.firstGlobalIndex != expectedFirst || info.trajectoryCount == 0) {
      return std::nullopt;
    }
    expectedFirst += info.trajectoryCount;
  }
  if (expectedFirst != s.trajectoryCount) return std::nullopt;

  s.shardStatus.assign(shardCount, io::Status::ok());

  const std::string prefix = options.metricsPrefix;
  auto& registry = MetricsRegistry::global();
  s.hits = &registry.counter(prefix + ".hits");
  s.misses = &registry.counter(prefix + ".misses");
  s.evictions = &registry.counter(prefix + ".evictions");
  s.quarantinedShardsCounter = &registry.counter(prefix + ".quarantined_shards");
  s.quarantinedTrajectoriesCounter =
      &registry.counter(prefix + ".quarantined_trajectories");
  s.crcFailures = &registry.counter(prefix + ".crc_failures");
  s.readRetries = &registry.counter(prefix + ".read_retries");
  s.ioErrors = &registry.counter(prefix + ".io_errors");
  s.residentGauge = &registry.gauge(prefix + ".bytes_resident");
  status = io::Status::ok();
  return store;
}

const ArenaSpec& ShardStore::arena() const { return impl_->arena; }
std::size_t ShardStore::shardCount() const { return impl_->infos.size(); }
std::uint64_t ShardStore::trajectoryCount() const {
  return impl_->trajectoryCount;
}
std::uint64_t ShardStore::totalPoints() const { return impl_->totalPoints; }
std::uint32_t ShardStore::shardCapacity() const { return impl_->shardCapacity; }
std::uint32_t ShardStore::formatVersion() const { return impl_->formatVersion; }

const ShardInfo& ShardStore::shardInfo(std::size_t shard) const {
  return impl_->infos[shard];
}

std::optional<ShardSummary> ShardStore::summary(std::size_t shardIdx) const {
  Impl& s = *impl_;
  assert(shardIdx < s.infos.size());
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.summaries[shardIdx].has_value()) return s.summaries[shardIdx];
    if (!s.shardStatus[shardIdx].isOk()) return std::nullopt;
  }
  // Lazy rebuild (v2 store, or a v3 entry whose persisted summary failed
  // validation): decode the shard through the cache and memoize. shard()
  // takes the mutex itself; a racing rebuild computes the same value.
  const auto dataset = shard(shardIdx);
  if (dataset == nullptr) return std::nullopt;
  const ShardSummary summary = computeShardSummary(*dataset);
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.summaries[shardIdx].has_value()) s.summaries[shardIdx] = summary;
  return s.summaries[shardIdx];
}

std::shared_ptr<const TrajectoryDataset> ShardStore::shard(
    std::size_t shard) const {
  Impl& s = *impl_;
  assert(shard < s.infos.size());
  std::lock_guard<std::mutex> lock(s.mutex);
  if (auto it = s.cache.find(shard); it != s.cache.end()) {
    s.hits->add();
    s.lru.splice(s.lru.begin(), s.lru, it->second.lruIt);
    return it->second.dataset;
  }
  if (!s.shardStatus[shard].isOk()) return nullptr;  // quarantined
  s.misses->add();
  const ShardInfo& info = s.infos[shard];
  std::vector<std::uint8_t> blob;
  const io::Status readStatus = s.readPayloadLocked(shard, blob);
  if (!readStatus.isOk()) {
    SVQ_ERROR << "shardstore: " << readStatus.message() << " reading shard "
              << shard;
    s.quarantineLocked(shard, readStatus);
    return nullptr;
  }
  auto decoded = fromBinary(util::MessageBuffer(std::move(blob)));
  if (!decoded) {
    SVQ_ERROR << "shardstore: corrupt payload for shard " << shard;
    s.quarantineLocked(
        shard, io::Status::corrupt(static_cast<std::int64_t>(shard)));
    return nullptr;
  }
  auto dataset =
      std::make_shared<const TrajectoryDataset>(std::move(*decoded));
  Impl::Entry entry;
  entry.dataset = dataset;
  entry.bytes = residentBytesEstimate(info);
  s.lru.push_front(shard);
  entry.lruIt = s.lru.begin();
  s.bytesResident += entry.bytes;
  s.residentGauge->add(entry.bytes);
  s.cache.emplace(shard, std::move(entry));
  s.evictDownToBudget();
  return dataset;
}

bool ShardStore::isResident(std::size_t shard) const {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.cache.find(shard) != s.cache.end();
}

io::Status ShardStore::shardStatus(std::size_t shard) const {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.shardStatus[shard];
}

std::size_t ShardStore::quarantinedShardCount() const {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.mutex);
  std::size_t n = 0;
  for (const io::Status& st : s.shardStatus) {
    if (!st.isOk()) ++n;
  }
  return n;
}

double ShardStore::coverage() const {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.trajectoryCount == 0) return 1.0;
  return static_cast<double>(s.trajectoryCount - s.quarantinedTrajectories) /
         static_cast<double>(s.trajectoryCount);
}

ShardVerifyReport ShardStore::verify() const {
  Impl& s = *impl_;
  ShardVerifyReport report;
  std::lock_guard<std::mutex> lock(s.mutex);
  for (std::size_t shard = 0; shard < s.infos.size(); ++shard) {
    ++report.shardsChecked;
    io::Status status = s.shardStatus[shard];
    if (status.isOk()) {
      std::vector<std::uint8_t> blob;
      status = s.readPayloadLocked(shard, blob);
      if (!status.isOk()) s.quarantineLocked(shard, status);
    }
    if (!status.isOk()) {
      report.badShards.emplace_back(shard, status);
      report.worst = io::worse(report.worst, status);
    }
  }
  return report;
}

std::pair<std::size_t, std::uint32_t> ShardStore::locate(
    std::uint64_t globalIndex) const {
  const auto& infos = impl_->infos;
  assert(globalIndex < impl_->trajectoryCount);
  auto it = std::upper_bound(
      infos.begin(), infos.end(), globalIndex,
      [](std::uint64_t g, const ShardInfo& info) {
        return g < info.firstGlobalIndex;
      });
  const std::size_t shard = static_cast<std::size_t>(it - infos.begin()) - 1;
  return {shard, static_cast<std::uint32_t>(
                     globalIndex - infos[shard].firstGlobalIndex)};
}

Trajectory ShardStore::trajectory(std::uint64_t globalIndex) const {
  const auto [shardIdx, local] = locate(globalIndex);
  const auto dataset = shard(shardIdx);
  if (!dataset) return {};
  return (*dataset)[local];
}

ShardCacheStats ShardStore::cacheStats() const {
  const Impl& s = *impl_;
  ShardCacheStats stats;
  stats.hits = s.hits->value();
  stats.misses = s.misses->value();
  stats.evictions = s.evictions->value();
  stats.bytesResident = s.residentGauge->value();
  stats.peakBytesResident = s.residentGauge->peak();
  return stats;
}

void ShardStore::clearCache() const {
  Impl& s = *impl_;
  std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& [shard, entry] : s.cache) s.residentGauge->sub(entry.bytes);
  s.cache.clear();
  s.lru.clear();
  s.bytesResident = 0;
}

// --- repair ----------------------------------------------------------------

bool repairShardStore(const std::string& path, RepairReport* report) {
  RepairReport local;
  RepairReport& out = report != nullptr ? *report : local;
  out = RepairReport{};

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.status = io::Status::ioError();
    return false;
  }
  in.seekg(0, std::ios::end);
  const std::uint64_t fileSize = static_cast<std::uint64_t>(in.tellg());

  // The file header must survive — without it even the arena radius is
  // unknowable and there is nothing to repair *to*.
  if (fileSize < kHeaderBytes) {
    out.status = io::Status::truncated();
    return false;
  }
  std::vector<std::uint8_t> bytes;
  const std::optional<FileHeader> header =
      readAt(in, 0, kHeaderBytes, bytes)
          ? decodeFileHeader(util::MessageBuffer(std::move(bytes)))
          : std::nullopt;
  if (!header) {
    out.status = io::Status::corrupt();
    return false;
  }

  // Scan the self-delimiting shard blocks from the front; the longest
  // prefix of shards whose headers, CRCs and payload decodes all verify
  // is the committed prefix. Everything after it (a torn shard, a stale
  // footer) is discarded. The committed blocks are copied into the
  // rewritten store as they verify. It is always written as the current
  // format: repair decodes every surviving payload anyway, so a v2 input
  // picks up its spatial summaries here.
  util::MessageBuffer repaired = encodeFileHeader(
      header->radiusCm, header->shardCapacity, kShardFormatCurrent);
  std::vector<ShardInfo> infos;
  std::vector<ShardSummary> summaries;
  std::uint64_t cursor = kHeaderBytes;
  std::uint64_t expectedFirst = 0;
  std::uint64_t totalPoints = 0;
  while (cursor + kBlockHeaderBytes <= fileSize) {
    std::uint64_t byteSize = 0;
    std::uint32_t payloadCrc = 0;
    if (!readAt(in, cursor, kBlockHeaderBytes, bytes) ||
        !decodeBlockHeader(util::MessageBuffer(std::move(bytes)), byteSize,
                           payloadCrc) ||
        byteSize > fileSize - cursor - kBlockHeaderBytes ||  // torn
        !readAt(in, cursor + kBlockHeaderBytes, byteSize, bytes) ||
        io::crc32c(bytes.data(), bytes.size()) != payloadCrc) {
      break;
    }
    const auto decoded = fromBinary(util::MessageBuffer(bytes));
    if (!decoded || decoded->empty()) break;
    ShardInfo info;
    info.firstGlobalIndex = expectedFirst;
    info.byteSize = byteSize;
    info.payloadCrc = payloadCrc;
    info.offset = repaired.size() + kBlockHeaderBytes;
    summarizePayload(*decoded, info);
    summaries.push_back(computeShardSummary(*decoded));
    expectedFirst += info.trajectoryCount;
    totalPoints += info.pointCount;
    infos.push_back(info);
    repaired.putRaw(encodeBlockHeader(byteSize, payloadCrc).bytes());
    repaired.putRaw(bytes);
    cursor += kBlockHeaderBytes + byteSize;
  }
  in.close();
  out.shardsRecovered = infos.size();
  out.trajectoriesRecovered = expectedFirst;
  out.bytesDiscarded = fileSize - cursor;

  // Rewrite the store from the committed prefix (recomputed footer/tail)
  // with the same write-temp + atomic-rename discipline as the writer,
  // so a crash mid-repair cannot make things worse.
  encodeFooterAndTail(repaired, infos, summaries, kShardFormatCurrent,
                      expectedFirst, totalPoints);
  out.status = io::atomicWriteFile(path, repaired.bytes());
  if (!out.status.isOk()) return false;
  SVQ_INFO << "shardstore: repaired " << path << " to " << infos.size()
           << " shards / " << expectedFirst << " trajectories ("
           << out.bytesDiscarded << " bytes discarded)";
  return true;
}

// --- clustering ------------------------------------------------------------

std::vector<std::vector<float>> ShardFeatureSource::loadBlock(
    std::size_t b) const {
  const auto dataset = store_->shard(b);
  if (!dataset) return {};  // quarantined: streams as an empty block
  const std::size_t dim = featureDimension(params_);
  std::vector<std::vector<float>> features(dataset->size());
  for (std::size_t i = 0; i < dataset->size(); ++i) {
    features[i] = extractFeatures((*dataset)[i], params_);
    // Degenerate (empty) trajectories yield short vectors; pad so every
    // sample matches the SOM's feature dimension.
    features[i].resize(dim, 0.0f);
  }
  return features;
}

std::size_t ShardClustering::nonEmptyClusters() const {
  std::size_t n = 0;
  for (const auto& m : members) {
    if (!m.empty()) ++n;
  }
  return n;
}

std::size_t ShardClustering::maxClusterSize() const {
  std::size_t n = 0;
  for (const auto& m : members) n = std::max(n, m.size());
  return n;
}

ShardClustering clusterShardStore(const ShardStore& store,
                                  const SomParams& somParams,
                                  const FeatureParams& featureParams,
                                  ThreadPool* pool) {
  ShardClustering out;
  out.somParams = somParams;
  out.featureParams = featureParams;
  out.totalTrajectories = store.trajectoryCount();

  const std::size_t dim = featureDimension(featureParams);
  Som som(somParams, dim);
  ShardFeatureSource source(store, featureParams);
  BatchTrainOptions trainOptions;
  trainOptions.pool = pool;
  som.trainBatch(source, trainOptions);

  const std::size_t nodes = som.nodeCount();
  out.somWeights.reserve(nodes);
  for (std::size_t r = 0; r < som.rows(); ++r) {
    for (std::size_t c = 0; c < som.cols(); ++c) {
      out.somWeights.push_back(som.weights(r, c));
    }
  }

  // Assignment + cluster-average pass: shards stream through the pool,
  // each accumulating resampled member positions into its own per-node
  // sums; reduction runs in shard order (deterministic). Quarantined
  // shards contribute nothing — their trajectories stay kUnassigned.
  const std::size_t shardCount = store.shardCount();
  const std::size_t resample = featureParams.resampleCount;
  out.assignment.assign(store.trajectoryCount(), ShardClustering::kUnassigned);
  struct ShardAcc {
    std::vector<double> sums;           // nodes * resample * 3 (x, y, t)
    std::vector<std::uint64_t> counts;  // nodes
  };
  std::vector<ShardAcc> acc(shardCount);

  const auto processShard = [&](std::size_t shardIdx) {
    const auto dataset = store.shard(shardIdx);
    ShardAcc& a = acc[shardIdx];
    a.sums.assign(nodes * resample * 3, 0.0);
    a.counts.assign(nodes, 0);
    if (!dataset) return;
    const std::uint64_t first = store.shardInfo(shardIdx).firstGlobalIndex;
    for (std::size_t i = 0; i < dataset->size(); ++i) {
      const Trajectory& t = (*dataset)[i];
      std::vector<float> f = extractFeatures(t, featureParams);
      f.resize(dim, 0.0f);
      const std::size_t bmu = som.bestMatchingUnit(f);
      out.assignment[first + i] = static_cast<std::uint32_t>(bmu);
      if (t.empty()) continue;  // nothing to average
      const Trajectory r = resampleUniform(t, resample);
      double* sums = a.sums.data() + bmu * resample * 3;
      for (std::size_t p = 0; p < resample && p < r.size(); ++p) {
        sums[p * 3 + 0] += static_cast<double>(r[p].pos.x);
        sums[p * 3 + 1] += static_cast<double>(r[p].pos.y);
        sums[p * 3 + 2] += static_cast<double>(r[p].t);
      }
      ++a.counts[bmu];
    }
  };

  if (pool != nullptr) {
    pool->parallelFor(0, shardCount, processShard, 1);
  } else {
    for (std::size_t i = 0; i < shardCount; ++i) processShard(i);
  }

  std::vector<double> sums(nodes * resample * 3, 0.0);
  std::vector<std::uint64_t> counts(nodes, 0);
  for (std::size_t shardIdx = 0; shardIdx < shardCount; ++shardIdx) {
    for (std::size_t i = 0; i < sums.size(); ++i) sums[i] += acc[shardIdx].sums[i];
    for (std::size_t n = 0; n < nodes; ++n) counts[n] += acc[shardIdx].counts[n];
  }

  // Coverage accounting: quarantine is sticky, so after the passes above
  // the store's per-shard status is the authoritative survivor set.
  for (std::size_t shardIdx = 0; shardIdx < shardCount; ++shardIdx) {
    if (store.isQuarantined(shardIdx)) {
      out.quarantinedShards.push_back(static_cast<std::uint32_t>(shardIdx));
    } else {
      out.coveredTrajectories += store.shardInfo(shardIdx).trajectoryCount;
    }
  }

  out.members.assign(nodes, {});
  for (std::size_t g = 0; g < out.assignment.size(); ++g) {
    if (out.assignment[g] == ShardClustering::kUnassigned) continue;
    out.members[out.assignment[g]].push_back(static_cast<std::uint32_t>(g));
  }

  out.averages.resize(nodes);
  for (std::size_t node = 0; node < nodes; ++node) {
    if (counts[node] == 0) continue;
    const double inv = 1.0 / static_cast<double>(counts[node]);
    std::vector<TrajPoint> pts(resample);
    const double* nodeSums = sums.data() + node * resample * 3;
    for (std::size_t p = 0; p < resample; ++p) {
      pts[p].pos.x = static_cast<float>(nodeSums[p * 3 + 0] * inv);
      pts[p].pos.y = static_cast<float>(nodeSums[p * 3 + 1] * inv);
      pts[p].t = static_cast<float>(nodeSums[p * 3 + 2] * inv);
    }
    TrajectoryMeta meta;
    meta.id = static_cast<std::uint32_t>(node);
    out.averages[node] = Trajectory(meta, std::move(pts));
  }
  return out;
}

bool writeShardStore(const TrajectoryDataset& dataset, const std::string& path,
                     std::uint32_t shardCapacity,
                     std::uint32_t formatVersion) {
  ShardStoreWriter writer(path, dataset.arena(), shardCapacity, nullptr,
                          formatVersion);
  if (!writer.ok()) return false;
  for (const Trajectory& t : dataset.all()) writer.add(t);
  return writer.finish();
}

}  // namespace svq::traj
