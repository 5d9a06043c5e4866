#include "replay/recording.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/io.h"
#include "util/logging.h"

namespace svq::replay {

namespace {

/// Serialized floor of one step: kind(1) + tenant(4) + time(8) +
/// event-or-absent(>=1) + note length(4). Bounds the step count a parser
/// will believe from a length field. v2 steps carry one more byte (the
/// refusal code).
constexpr std::size_t kMinStepBytesV1 = 1 + 4 + 8 + 1 + 4;
constexpr std::size_t kMinStepBytesV2 = kMinStepBytesV1 + 1;

/// Track indices beyond this are treated as corruption, not data: no
/// recorded fleet is within orders of magnitude of it, and it keeps a
/// bit-flipped tenant field from driving replay-side allocations.
constexpr std::uint32_t kMaxTenantIndex = 1u << 20;

void putWorld(util::MessageBuffer& buf, const WorldSpec& w) {
  buf.putU64(w.datasetSeed);
  buf.putU32(w.trajectoryCount);
  buf.putI32(w.tile.pxW);
  buf.putI32(w.tile.pxH);
  buf.putF32(w.tile.activeWmm);
  buf.putF32(w.tile.activeHmm);
  buf.putF32(w.tile.bezelMm);
  buf.putI32(w.tileCols);
  buf.putI32(w.tileRows);
  buf.putU64(std::bit_cast<std::uint64_t>(w.wireDropProbability));
  buf.putU64(w.wireFaultSeed);
  buf.putU64(std::bit_cast<std::uint64_t>(w.ioFaultPct));
  buf.putU64(w.ioFaultSeed);
  // v2: the overload plan rides with the world — replaying chaos needs
  // the same controller configuration, not just the same inputs.
  buf.putU32(w.overload.applyDeadlineUs);
  buf.putU32(w.overload.shedP99Us);
  buf.putU32(w.overload.shedQueueDepth);
  buf.putU32(w.overload.healthWindow);
  buf.putU32(w.overload.clockAdvanceUsPerStep);
  // v3: the progressive plan — an anytime replay needs the same shard
  // layout and SOM lattice to converge to the recorded frames.
  buf.putU32(w.progressive.shardCapacity);
  buf.putU32(w.progressive.somRows);
  buf.putU32(w.progressive.somCols);
}

bool getWorld(util::MessageBuffer& buf, WorldSpec& w, std::uint32_t version) {
  w.datasetSeed = buf.getU64();
  w.trajectoryCount = buf.getU32();
  w.tile.pxW = buf.getI32();
  w.tile.pxH = buf.getI32();
  w.tile.activeWmm = buf.getF32();
  w.tile.activeHmm = buf.getF32();
  w.tile.bezelMm = buf.getF32();
  w.tileCols = buf.getI32();
  w.tileRows = buf.getI32();
  w.wireDropProbability = std::bit_cast<double>(buf.getU64());
  w.wireFaultSeed = buf.getU64();
  w.ioFaultPct = std::bit_cast<double>(buf.getU64());
  w.ioFaultSeed = buf.getU64();
  // A replayable world needs a drawable wall and a generable dataset;
  // probabilities must be sane numbers, not reinterpreted garbage.
  if (w.tile.pxW <= 0 || w.tile.pxH <= 0 || w.tile.pxW > 1 << 14 ||
      w.tile.pxH > 1 << 14) {
    return false;
  }
  if (w.tileCols <= 0 || w.tileRows <= 0 || w.tileCols > 64 ||
      w.tileRows > 64) {
    return false;
  }
  if (!std::isfinite(w.tile.activeWmm) || !std::isfinite(w.tile.activeHmm) ||
      !std::isfinite(w.tile.bezelMm)) {
    return false;
  }
  if (!std::isfinite(w.wireDropProbability) || w.wireDropProbability < 0.0 ||
      w.wireDropProbability > 1.0) {
    return false;
  }
  if (!std::isfinite(w.ioFaultPct) || w.ioFaultPct < 0.0 ||
      w.ioFaultPct > 1.0) {
    return false;
  }
  if (version >= 2) {
    w.overload.applyDeadlineUs = buf.getU32();
    w.overload.shedP99Us = buf.getU32();
    w.overload.shedQueueDepth = buf.getU32();
    w.overload.healthWindow = buf.getU32();
    w.overload.clockAdvanceUsPerStep = buf.getU32();
  } else {
    w.overload = WorldSpec::OverloadPlan{};  // v1: no overload machinery
  }
  if (version >= 3) {
    w.progressive.shardCapacity = buf.getU32();
    w.progressive.somRows = buf.getU32();
    w.progressive.somCols = buf.getU32();
    // An active plan must describe a buildable world: a sane shard size
    // and a non-degenerate lattice (lattices are small by construction).
    if (w.progressive.shardCapacity > 1u << 20 ||
        w.progressive.somRows > 256 || w.progressive.somCols > 256) {
      return false;
    }
    if (w.progressive.active() &&
        (w.progressive.somRows == 0 || w.progressive.somCols == 0)) {
      return false;
    }
  } else {
    w.progressive = WorldSpec::ProgressivePlan{};  // v1/v2: plain world
  }
  return true;
}

}  // namespace

Recording Recording::fromScript(WorldSpec world,
                                const ui::InputScript& script) {
  Recording rec;
  rec.world = world;
  rec.admit(0, script.empty() ? 0.0 : script.events().front().timeS);
  for (const ui::TimedEvent& e : script.events()) {
    rec.event(0, e.timeS, e.event, e.note);
  }
  return rec;
}

std::size_t Recording::eventCount() const {
  return static_cast<std::size_t>(
      std::count_if(steps_.begin(), steps_.end(), [](const RecordedStep& s) {
        return s.kind == StepKind::kEvent;
      }));
}

std::size_t Recording::refusedCount() const {
  return static_cast<std::size_t>(
      std::count_if(steps_.begin(), steps_.end(),
                    [](const RecordedStep& s) { return s.refusal != 0; }));
}

std::uint32_t Recording::tenantCount() const {
  std::uint32_t count = 0;
  for (const RecordedStep& s : steps_) count = std::max(count, s.tenant + 1);
  return steps_.empty() ? 0 : count;
}

Recording Recording::tenantSlice(std::uint32_t tenant) const {
  Recording slice;
  slice.world = world;
  for (const RecordedStep& s : steps_) {
    if (s.tenant != tenant) continue;
    RecordedStep copy = s;
    copy.tenant = 0;
    slice.steps_.push_back(std::move(copy));
  }
  return slice;
}

util::MessageBuffer Recording::serialize() const {
  util::MessageBuffer buf;
  buf.putU32(kMagic);
  buf.putU32(kVersion);
  putWorld(buf, world);
  buf.putU32(static_cast<std::uint32_t>(steps_.size()));
  for (const RecordedStep& s : steps_) {
    buf.putU8(static_cast<std::uint8_t>(s.kind));
    buf.putU32(s.tenant);
    buf.putU64(std::bit_cast<std::uint64_t>(s.timeS));
    buf.putU8(s.refusal);
    if (s.kind == StepKind::kEvent || s.kind == StepKind::kSubmit) {
      ui::serializeEvent(buf, s.event);
    } else {
      buf.putU8(0xFF);  // no-event marker for lifecycle/refine steps
      if (s.kind == StepKind::kRefine) buf.putU32(s.refineBudget);
    }
    buf.putString(s.note);
  }
  return buf;
}

std::optional<Recording> Recording::deserialize(util::MessageBuffer buf) {
  try {
    buf.rewind();
    if (buf.getU32() != kMagic) return std::nullopt;
    const std::uint32_t version = buf.getU32();
    if (version < 1 || version > kVersion) return std::nullopt;
    Recording rec;
    if (!getWorld(buf, rec.world, version)) return std::nullopt;
    // Payload-bounded count: a hostile length field cannot exceed what
    // the remaining bytes could possibly encode.
    const std::uint32_t n =
        buf.getCount(version >= 2 ? kMinStepBytesV2 : kMinStepBytesV1);
    const std::uint8_t maxKind = static_cast<std::uint8_t>(
        version >= 3 ? StepKind::kRefine
                     : (version >= 2 ? StepKind::kSubmit : StepKind::kClose));
    rec.steps_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      RecordedStep s;
      const std::uint8_t kind = buf.getU8();
      if (kind > maxKind) return std::nullopt;
      s.kind = static_cast<StepKind>(kind);
      s.tenant = buf.getU32();
      if (s.tenant >= kMaxTenantIndex) return std::nullopt;
      s.timeS = std::bit_cast<double>(buf.getU64());
      if (!std::isfinite(s.timeS)) return std::nullopt;
      if (version >= 2) {
        s.refusal = buf.getU8();
        // Refusals must name a code the status vocabulary knows, and
        // only event-bearing steps can be refused.
        if (s.refusal >
            static_cast<std::uint8_t>(core::StatusCode::kOverloaded)) {
          return std::nullopt;
        }
        if (s.refusal != 0 && s.kind != StepKind::kEvent &&
            s.kind != StepKind::kSubmit && s.kind != StepKind::kRefine) {
          return std::nullopt;
        }
      }
      if (s.kind == StepKind::kEvent || s.kind == StepKind::kSubmit) {
        s.event = ui::deserializeEvent(buf);
      } else if (buf.getU8() != 0xFF) {
        return std::nullopt;
      } else if (s.kind == StepKind::kRefine) {
        // Every recorded refine carried a positive requested budget; 0
        // can only mean corruption.
        s.refineBudget = buf.getU32();
        if (s.refineBudget == 0) return std::nullopt;
      }
      s.note = buf.getString();
      rec.steps_.push_back(std::move(s));
    }
    if (buf.remaining() != 0) return std::nullopt;  // trailing garbage
    return rec;
  } catch (const util::MessageError&) {
    return std::nullopt;
  }
}

bool Recording::saveBinary(const std::string& path) const {
  const io::Status status = io::atomicWriteFile(path, serialize().bytes());
  if (!status.isOk()) {
    SVQ_ERROR << "saving " << path << " failed: " << status.message();
  }
  return status.isOk();
}

std::optional<Recording> Recording::loadBinary(const std::string& path) {
  auto bytes = io::readFile(path);
  if (!bytes) return std::nullopt;
  return deserialize(util::MessageBuffer(std::move(*bytes)));
}

// --- Recorder ----------------------------------------------------------------

void Recorder::attach(core::SessionService& service) {
  {
    std::lock_guard lock(mutex_);
    attached_ = &service;
  }
  core::SessionService::Hooks hooks;
  hooks.onAdmit = [this](core::SessionId id) { onAdmit(id); };
  hooks.onEvent = [this](core::SessionId id, const ui::Event& e,
                         const core::Status& status) {
    onEvent(id, e, status);
  };
  hooks.onRefine = [this](core::SessionId id, std::uint32_t maxShards,
                          const core::Status& status) {
    onRefine(id, maxShards, status);
  };
  hooks.onClose = [this](core::SessionId id) { onClose(id); };
  service.setHooks(std::move(hooks));
}

void Recorder::detach() {
  core::SessionService* service = nullptr;
  {
    std::lock_guard lock(mutex_);
    service = attached_;
    attached_ = nullptr;
  }
  if (service != nullptr) service->setHooks({});
}

Recording Recorder::finish() {
  detach();
  std::lock_guard lock(mutex_);
  tracks_.clear();
  return std::move(recording_);
}

double Recorder::stamp() {
  if (timeSource_) return timeSource_();
  return 0.1 * static_cast<double>(sequence_);
}

void Recorder::onAdmit(core::SessionId id) {
  std::lock_guard lock(mutex_);
  const auto track = static_cast<std::uint32_t>(tracks_.size());
  tracks_.emplace(id, track);
  recording_.admit(track, stamp());
  ++sequence_;
}

void Recorder::onEvent(core::SessionId id, const ui::Event& e,
                       const core::Status& status) {
  std::lock_guard lock(mutex_);
  const auto it = tracks_.find(id);
  if (it == tracks_.end()) return;  // admitted before attach(): not ours
  if (status.isOk()) {
    recording_.event(it->second, stamp(), e);
  } else if (status.isLoadShed()) {
    // Turned-away work is part of the stream: record the refusal so a
    // replay re-sees it (and never applies the event). Other failure
    // codes (kRejected at apply time) still record as plain events —
    // the replayed session reproduces the rejection itself.
    recording_.refused(it->second, stamp(), e,
                       static_cast<std::uint8_t>(status.code));
  } else {
    recording_.event(it->second, stamp(), e);
  }
  ++sequence_;
}

void Recorder::onRefine(core::SessionId id, std::uint32_t maxShards,
                        const core::Status& status) {
  std::lock_guard lock(mutex_);
  const auto it = tracks_.find(id);
  if (it == tracks_.end()) return;
  if (status.isLoadShed()) {
    recording_.refineRefused(it->second, stamp(), maxShards,
                             static_cast<std::uint8_t>(status.code));
  } else {
    recording_.refine(it->second, stamp(), maxShards);
  }
  ++sequence_;
}

void Recorder::onClose(core::SessionId id) {
  std::lock_guard lock(mutex_);
  const auto it = tracks_.find(id);
  if (it == tracks_.end()) return;
  recording_.close(it->second, stamp());
  ++sequence_;
}

}  // namespace svq::replay
