#include "ui/events.h"

namespace svq::ui {

namespace {

enum class EventKind : std::uint8_t {
  kBrushStroke = 0,
  kBrushClear,
  kTimeWindow,
  kDepthOffset,
  kTimeScale,
  kLayoutSwitch,
  kGroupDefine,
  kGroupClear,
  kPage,
};

template <typename T>
void putOptional(util::MessageBuffer& buf, const std::optional<T>& v,
                 void (*put)(util::MessageBuffer&, T)) {
  buf.putBool(v.has_value());
  if (v) put(buf, *v);
}

template <typename T>
std::optional<T> getOptional(util::MessageBuffer& buf,
                             T (*get)(util::MessageBuffer&)) {
  if (!buf.getBool()) return std::nullopt;
  return get(buf);
}

}  // namespace

std::string eventTypeName(const Event& e) {
  struct Visitor {
    std::string operator()(const BrushStrokeEvent&) { return "brush_stroke"; }
    std::string operator()(const BrushClearEvent&) { return "brush_clear"; }
    std::string operator()(const TimeWindowEvent&) { return "time_window"; }
    std::string operator()(const DepthOffsetEvent&) { return "depth_offset"; }
    std::string operator()(const TimeScaleEvent&) { return "time_scale"; }
    std::string operator()(const LayoutSwitchEvent&) { return "layout_switch"; }
    std::string operator()(const GroupDefineEvent&) { return "group_define"; }
    std::string operator()(const GroupClearEvent&) { return "group_clear"; }
    std::string operator()(const PageEvent&) { return "page"; }
  };
  return std::visit(Visitor{}, e);
}

void serializeMetaFilter(util::MessageBuffer& buf, const traj::MetaFilter& f) {
  putOptional<traj::CaptureSide>(
      buf, f.side, +[](util::MessageBuffer& b, traj::CaptureSide s) {
        b.putU8(static_cast<std::uint8_t>(s));
      });
  putOptional<traj::JourneyDirection>(
      buf, f.direction, +[](util::MessageBuffer& b, traj::JourneyDirection d) {
        b.putU8(static_cast<std::uint8_t>(d));
      });
  putOptional<traj::SeedState>(
      buf, f.seed, +[](util::MessageBuffer& b, traj::SeedState s) {
        b.putU8(static_cast<std::uint8_t>(s));
      });
  putOptional<float>(
      buf, f.minDurationS,
      +[](util::MessageBuffer& b, float v) { b.putF32(v); });
  putOptional<float>(
      buf, f.maxDurationS,
      +[](util::MessageBuffer& b, float v) { b.putF32(v); });
}

traj::MetaFilter deserializeMetaFilter(util::MessageBuffer& buf) {
  traj::MetaFilter f;
  f.side = getOptional<traj::CaptureSide>(
      buf, +[](util::MessageBuffer& b) {
        return static_cast<traj::CaptureSide>(b.getU8());
      });
  f.direction = getOptional<traj::JourneyDirection>(
      buf, +[](util::MessageBuffer& b) {
        return static_cast<traj::JourneyDirection>(b.getU8());
      });
  f.seed = getOptional<traj::SeedState>(
      buf, +[](util::MessageBuffer& b) {
        return static_cast<traj::SeedState>(b.getU8());
      });
  f.minDurationS = getOptional<float>(
      buf, +[](util::MessageBuffer& b) { return b.getF32(); });
  f.maxDurationS = getOptional<float>(
      buf, +[](util::MessageBuffer& b) { return b.getF32(); });
  return f;
}

void serializeEvent(util::MessageBuffer& buf, const Event& e) {
  struct Visitor {
    util::MessageBuffer& buf;
    void operator()(const BrushStrokeEvent& ev) {
      buf.putU8(static_cast<std::uint8_t>(EventKind::kBrushStroke));
      buf.putU8(ev.brushIndex);
      buf.putVec2(ev.centerCm);
      buf.putF32(ev.radiusCm);
    }
    void operator()(const BrushClearEvent& ev) {
      buf.putU8(static_cast<std::uint8_t>(EventKind::kBrushClear));
      buf.putU8(ev.brushIndex);
    }
    void operator()(const TimeWindowEvent& ev) {
      buf.putU8(static_cast<std::uint8_t>(EventKind::kTimeWindow));
      buf.putF32(ev.t0);
      buf.putF32(ev.t1);
    }
    void operator()(const DepthOffsetEvent& ev) {
      buf.putU8(static_cast<std::uint8_t>(EventKind::kDepthOffset));
      buf.putF32(ev.offsetCm);
    }
    void operator()(const TimeScaleEvent& ev) {
      buf.putU8(static_cast<std::uint8_t>(EventKind::kTimeScale));
      buf.putF32(ev.cmPerSecond);
    }
    void operator()(const LayoutSwitchEvent& ev) {
      buf.putU8(static_cast<std::uint8_t>(EventKind::kLayoutSwitch));
      buf.putU8(ev.presetIndex);
    }
    void operator()(const GroupDefineEvent& ev) {
      buf.putU8(static_cast<std::uint8_t>(EventKind::kGroupDefine));
      buf.putU8(ev.groupId);
      buf.putRect(ev.cellRect);
      serializeMetaFilter(buf, ev.filter);
      buf.putU8(ev.colorIndex);
      buf.putString(ev.name);
    }
    void operator()(const GroupClearEvent& ev) {
      buf.putU8(static_cast<std::uint8_t>(EventKind::kGroupClear));
      buf.putU8(ev.groupId);
    }
    void operator()(const PageEvent& ev) {
      buf.putU8(static_cast<std::uint8_t>(EventKind::kPage));
      buf.putU8(static_cast<std::uint8_t>(ev.direction));
    }
  };
  std::visit(Visitor{buf}, e);
}

Event deserializeEvent(util::MessageBuffer& buf) {
  const auto kind = static_cast<EventKind>(buf.getU8());
  switch (kind) {
    case EventKind::kBrushStroke: {
      BrushStrokeEvent ev;
      ev.brushIndex = buf.getU8();
      ev.centerCm = buf.getVec2();
      ev.radiusCm = buf.getF32();
      return ev;
    }
    case EventKind::kBrushClear: {
      BrushClearEvent ev;
      ev.brushIndex = buf.getU8();
      return ev;
    }
    case EventKind::kTimeWindow: {
      TimeWindowEvent ev;
      ev.t0 = buf.getF32();
      ev.t1 = buf.getF32();
      return ev;
    }
    case EventKind::kDepthOffset: {
      DepthOffsetEvent ev;
      ev.offsetCm = buf.getF32();
      return ev;
    }
    case EventKind::kTimeScale: {
      TimeScaleEvent ev;
      ev.cmPerSecond = buf.getF32();
      return ev;
    }
    case EventKind::kLayoutSwitch: {
      LayoutSwitchEvent ev;
      ev.presetIndex = buf.getU8();
      return ev;
    }
    case EventKind::kGroupDefine: {
      GroupDefineEvent ev;
      ev.groupId = buf.getU8();
      ev.cellRect = buf.getRect();
      ev.filter = deserializeMetaFilter(buf);
      ev.colorIndex = buf.getU8();
      ev.name = buf.getString();
      return ev;
    }
    case EventKind::kGroupClear: {
      GroupClearEvent ev;
      ev.groupId = buf.getU8();
      return ev;
    }
    case EventKind::kPage: {
      PageEvent ev;
      ev.direction = static_cast<std::int8_t>(buf.getU8());
      return ev;
    }
  }
  throw util::MessageError("unknown event kind");
}

}  // namespace svq::ui
