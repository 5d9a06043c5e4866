#include "traj/io_binary.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace svq::traj {

namespace {

constexpr std::uint32_t kMagic = 0x53565154u;  // "SVQT"
constexpr std::uint32_t kVersion = 1;

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void f32(float v) { raw(&v, sizeof v); }
  std::string take() { return std::move(out_); }

 private:
  void raw(const void* p, std::size_t n) {
    out_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& v) { return raw(&v, sizeof v); }
  bool u32(std::uint32_t& v) { return raw(&v, sizeof v); }
  bool f32(float& v) { return raw(&v, sizeof v); }
  /// The next `n` bytes, consumed; nullptr when fewer remain.
  const char* take(std::size_t n) {
    if (n > bytes_.size() - cursor_) return nullptr;
    const char* p = bytes_.data() + cursor_;
    cursor_ += n;
    return p;
  }
  bool atEnd() const { return cursor_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - cursor_; }

 private:
  bool raw(void* p, std::size_t n) {
    if (n > bytes_.size() - cursor_) return false;
    std::memcpy(p, bytes_.data() + cursor_, n);
    cursor_ += n;
    return true;
  }
  std::string_view bytes_;
  std::size_t cursor_ = 0;
};

// Smallest possible encodings, used to bound count fields against the
// remaining payload before allocating anything.
constexpr std::size_t kTrajectoryRecordMinBytes = 4 + 1 + 1 + 1 + 4;
constexpr std::size_t kPointBytes = 3 * sizeof(float);

}  // namespace

std::string toBinary(const TrajectoryDataset& dataset) {
  Writer w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.f32(dataset.arena().radiusCm);
  w.u32(static_cast<std::uint32_t>(dataset.size()));
  for (const Trajectory& t : dataset.all()) {
    const TrajectoryMeta& m = t.meta();
    w.u32(m.id);
    w.u8(static_cast<std::uint8_t>(m.side));
    w.u8(static_cast<std::uint8_t>(m.direction));
    w.u8(static_cast<std::uint8_t>(m.seed));
    w.u32(static_cast<std::uint32_t>(t.size()));
    const PointsView v = t.view();
    for (std::size_t p = 0; p < v.count; ++p) {
      w.f32(v.t[p]);
      w.f32(v.x[p]);
      w.f32(v.y[p]);
    }
  }
  return w.take();
}

std::optional<TrajectoryDataset> fromBinary(std::string_view bytes) {
  Reader r(bytes);
  std::uint32_t magic = 0, version = 0, count = 0;
  float radius = 0.0f;
  if (!r.u32(magic) || magic != kMagic) return std::nullopt;
  if (!r.u32(version) || version != kVersion) return std::nullopt;
  if (!r.f32(radius) || radius <= 0.0f) return std::nullopt;
  if (!r.u32(count)) return std::nullopt;
  // A hostile count field must not drive allocation: every trajectory
  // occupies at least kTrajectoryRecordMinBytes, so a count the payload
  // cannot hold is rejected before reserve().
  if (count > r.remaining() / kTrajectoryRecordMinBytes) return std::nullopt;

  TrajectoryDataset ds(ArenaSpec{radius});
  ds.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TrajectoryMeta meta;
    std::uint8_t side = 0, dir = 0, seed = 0;
    std::uint32_t points = 0;
    if (!r.u32(meta.id) || !r.u8(side) || !r.u8(dir) || !r.u8(seed) ||
        !r.u32(points)) {
      return std::nullopt;
    }
    if (points > r.remaining() / kPointBytes) return std::nullopt;
    if (side > static_cast<std::uint8_t>(CaptureSide::kSouth) ||
        dir > static_cast<std::uint8_t>(JourneyDirection::kReturning) ||
        seed > static_cast<std::uint8_t>(SeedState::kDroppedAtCapture)) {
      return std::nullopt;
    }
    meta.side = static_cast<CaptureSide>(side);
    meta.direction = static_cast<JourneyDirection>(dir);
    meta.seed = static_cast<SeedState>(seed);
    // The count was bounded above, so the packed (t, x, y) records are all
    // there: write them straight into the SoA channels in one pass.
    const char* src = r.take(points * kPointBytes);
    if (src == nullptr) return std::nullopt;
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
  if (!r.atEnd()) return std::nullopt;  // trailing garbage
  return ds;
}

std::optional<TrajectoryDataset> fromBinary(const std::string& bytes) {
  return fromBinary(std::string_view(bytes));
}

bool saveBinary(const TrajectoryDataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    SVQ_ERROR << "cannot open " << path << " for writing";
    return false;
  }
  const std::string bytes = toBinary(dataset);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<TrajectoryDataset> loadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return fromBinary(ss.str());
}

}  // namespace svq::traj
