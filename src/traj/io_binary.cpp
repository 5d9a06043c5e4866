#include "traj/io_binary.h"

#include <cstring>
#include <vector>

#include "util/io.h"
#include "util/logging.h"

namespace svq::traj {

namespace {

constexpr std::uint32_t kMagic = 0x53565154u;  // "SVQT"
constexpr std::uint32_t kVersion = 1;

// magic, version, arenaRadius, trajectoryCount.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4;
// Smallest possible encodings, used to bound count fields against the
// remaining payload before allocating anything.
constexpr std::size_t kTrajectoryRecordMinBytes = 4 + 1 + 1 + 1 + 4;
constexpr std::size_t kPointBytes = 3 * sizeof(float);

}  // namespace

util::MessageBuffer toBinary(const TrajectoryDataset& dataset) {
  // The size is known up front, so the buffer is allocated once.
  std::size_t size = kHeaderBytes;
  for (const Trajectory& t : dataset.all()) {
    size += kTrajectoryRecordMinBytes + kPointBytes * t.size();
  }
  std::vector<std::uint8_t> storage;
  storage.reserve(size);
  util::MessageBuffer out(std::move(storage));
  out.putU32(kMagic);
  out.putU32(kVersion);
  out.putF32(dataset.arena().radiusCm);
  out.putU32(static_cast<std::uint32_t>(dataset.size()));
  // Points are stored as interleaved (t, x, y) records: gather each
  // trajectory's SoA channels into one block and append it at once, since
  // a put per field costs several times more.
  std::vector<float> interleaved;
  for (const Trajectory& t : dataset.all()) {
    const TrajectoryMeta& m = t.meta();
    out.putU32(m.id);
    out.putU8(static_cast<std::uint8_t>(m.side));
    out.putU8(static_cast<std::uint8_t>(m.direction));
    out.putU8(static_cast<std::uint8_t>(m.seed));
    out.putU32(static_cast<std::uint32_t>(t.size()));
    const PointsView v = t.view();
    interleaved.resize(3 * v.count);
    for (std::size_t p = 0; p < v.count; ++p) {
      interleaved[3 * p] = v.t[p];
      interleaved[3 * p + 1] = v.x[p];
      interleaved[3 * p + 2] = v.y[p];
    }
    out.putRaw({reinterpret_cast<const std::uint8_t*>(interleaved.data()),
                interleaved.size() * sizeof(float)});
  }
  return out;
}

std::optional<TrajectoryDataset> fromBinary(util::MessageBuffer bytes) {
  try {
    bytes.rewind();
    if (bytes.getU32() != kMagic || bytes.getU32() != kVersion) {
      return std::nullopt;
    }
    const float radius = bytes.getF32();
    if (radius <= 0.0f) return std::nullopt;
    // A hostile count field must not drive allocation: every trajectory
    // occupies at least kTrajectoryRecordMinBytes.
    const std::uint32_t count = bytes.getCount(kTrajectoryRecordMinBytes);
    TrajectoryDataset ds(ArenaSpec{radius});
    ds.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      TrajectoryMeta meta;
      meta.id = bytes.getU32();
      const std::uint8_t side = bytes.getU8();
      const std::uint8_t dir = bytes.getU8();
      const std::uint8_t seed = bytes.getU8();
      const std::uint32_t points = bytes.getCount(kPointBytes);
      if (side > static_cast<std::uint8_t>(CaptureSide::kSouth) ||
          dir > static_cast<std::uint8_t>(JourneyDirection::kReturning) ||
          seed > static_cast<std::uint8_t>(SeedState::kDroppedAtCapture)) {
        return std::nullopt;
      }
      meta.side = static_cast<CaptureSide>(side);
      meta.direction = static_cast<JourneyDirection>(dir);
      meta.seed = static_cast<SeedState>(seed);
      // The count was bounded above, so the packed (t, x, y) records are
      // all there: write them straight into the SoA channels in one pass.
      const std::uint8_t* src = bytes.take(points * kPointBytes).data();
      Trajectory traj;
      traj.meta() = meta;
      const Trajectory::Channels c = traj.resizePoints(points);
      for (std::size_t p = 0; p < points; ++p, src += kPointBytes) {
        std::memcpy(&c.t[p], src, sizeof(float));
        std::memcpy(&c.x[p], src + sizeof(float), sizeof(float));
        std::memcpy(&c.y[p], src + 2 * sizeof(float), sizeof(float));
      }
      ds.add(std::move(traj));
    }
    if (bytes.remaining() != 0) return std::nullopt;  // trailing garbage
    return ds;
  } catch (const util::MessageError&) {
    return std::nullopt;
  }
}

bool saveBinary(const TrajectoryDataset& dataset, const std::string& path) {
  const io::Status status =
      io::atomicWriteFile(path, toBinary(dataset).bytes());
  if (!status.isOk()) {
    SVQ_ERROR << "saving " << path << " failed: " << status.message();
  }
  return status.isOk();
}

std::optional<TrajectoryDataset> loadBinary(const std::string& path) {
  auto bytes = io::readFile(path);
  if (!bytes) return std::nullopt;
  return fromBinary(util::MessageBuffer(std::move(*bytes)));
}

}  // namespace svq::traj
