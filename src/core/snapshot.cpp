#include "core/snapshot.h"

#include <vector>

#include "ui/events.h"
#include "util/io.h"
#include "util/logging.h"

namespace svq::core {

namespace {
constexpr std::uint32_t kSnapshotMagic = 0x53565150u;  // "SVQP"
constexpr std::uint32_t kVersion = 1;
// Payload-bounded counts (MessageBuffer::getCount): a corrupt count field
// must be rejected from the bytes actually present, before it sizes the
// decoded record lists. Minimum encoded sizes per record:
// group = id u8 + name length u32 + rect 4*f32 + MetaFilter (5 optional
// flag bytes) + colorIndex u8 + pageOffset u32; stroke = brushIndex u8 +
// centerCm 2*f32 + radiusCm f32.
constexpr std::size_t kGroupRecordMinBytes = 1 + 4 + 16 + 5 + 1 + 4;
constexpr std::size_t kStrokeRecordBytes = 1 + 8 + 4;
}  // namespace

util::MessageBuffer saveSnapshot(const Session& app) {
  util::MessageBuffer buf;
  buf.putU32(kSnapshotMagic);
  buf.putU32(kVersion);
  buf.putU8(static_cast<std::uint8_t>(app.activePreset()));

  const auto& groups = app.groups().groups();
  buf.putU32(static_cast<std::uint32_t>(groups.size()));
  for (const TrajectoryGroup& g : groups) {
    buf.putU8(g.id);
    buf.putString(g.name);
    buf.putRect(g.cellRect);
    ui::serializeMetaFilter(buf, g.filter);
    buf.putU8(g.colorIndex);
    buf.putU32(g.pageOffset);
  }

  const auto& strokes = app.brush().strokes();
  buf.putU32(static_cast<std::uint32_t>(strokes.size()));
  for (const BrushStroke& s : strokes) {
    buf.putU8(static_cast<std::uint8_t>(s.brushIndex));
    buf.putVec2(s.centerCm);
    buf.putF32(s.radiusCm);
  }

  buf.putF32(app.timeWindow().lo());
  buf.putF32(app.timeWindow().hi());
  buf.putF32(app.stereoControls().depthOffsetCm().value());
  buf.putF32(app.stereoControls().timeScaleCmPerS().value());
  return buf;
}

bool restoreSnapshot(Session& app, util::MessageBuffer snapshot) {
  // Decode everything before touching the session, then apply it to a
  // fork that replaces the session only if every apply succeeds: a
  // rejected snapshot leaves the session exactly as it was.
  std::uint8_t preset = 0;
  std::vector<TrajectoryGroup> groups;
  std::vector<ui::BrushStrokeEvent> strokes;
  ui::TimeWindowEvent window;
  ui::DepthOffsetEvent depth;
  ui::TimeScaleEvent timeScale;
  try {
    snapshot.rewind();
    if (snapshot.getU32() != kSnapshotMagic) return false;
    if (snapshot.getU32() != kVersion) return false;
    preset = snapshot.getU8();
    groups.resize(snapshot.getCount(kGroupRecordMinBytes));
    for (TrajectoryGroup& g : groups) {
      g.id = snapshot.getU8();
      g.name = snapshot.getString();
      g.cellRect = snapshot.getRect();
      g.filter = ui::deserializeMetaFilter(snapshot);
      g.colorIndex = snapshot.getU8();
      g.pageOffset = snapshot.getU32();
    }
    strokes.resize(snapshot.getCount(kStrokeRecordBytes));
    for (ui::BrushStrokeEvent& e : strokes) {
      e.brushIndex = snapshot.getU8();
      e.centerCm = snapshot.getVec2();
      e.radiusCm = snapshot.getF32();
    }
    window.t0 = snapshot.getF32();
    window.t1 = snapshot.getF32();
    depth.offsetCm = snapshot.getF32();
    timeScale.cmPerSecond = snapshot.getF32();
  } catch (const util::MessageError&) {
    return false;
  }

  if (preset >= app.layoutPresets().size()) return false;
  Session next = app.fork();
  if (!next.apply(ui::LayoutSwitchEvent{preset})) return false;
  next.groups().clear();
  const LayoutConfig& cfg = next.layoutPresets()[preset];
  for (const TrajectoryGroup& g : groups) {
    if (!next.groups().define(g, cfg.cellsX, cfg.cellsY)) return false;
    // define() copies; restore the page offset on the stored group.
    next.groups().find(g.id)->pageOffset = g.pageOffset;
  }
  next.apply(ui::BrushClearEvent{255});
  for (const ui::BrushStrokeEvent& e : strokes) {
    if (!next.apply(e)) return false;
  }
  next.apply(window);
  next.apply(depth);
  next.apply(timeScale);
  next.refreshAssignment();
  app = std::move(next);
  return true;
}

bool saveSnapshotFile(const Session& app, const std::string& path) {
  // Write-temp + fsync + atomic-rename: a crash mid-save must never leave
  // a truncated snapshot at `path` (snapshots are how whole wall sessions
  // are restored — same commit protocol as the shard store).
  const io::Status status =
      io::atomicWriteFile(path, saveSnapshot(app).bytes());
  if (!status.isOk()) {
    SVQ_ERROR << "snapshot save to " << path << " failed: " << status.message();
    return false;
  }
  return true;
}

bool restoreSnapshotFile(Session& app, const std::string& path) {
  auto bytes = io::readFile(path);
  return bytes && restoreSnapshot(app, util::MessageBuffer(std::move(*bytes)));
}

}  // namespace svq::core
