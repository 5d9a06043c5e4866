// events.h — the application's interaction vocabulary.
//
// Every interactive feature of §IV.C.2 is an event: painting with the
// coordinated brush, dragging the temporal range slider, the two
// ergonomic stereo sliders, switching the small-multiple layout with the
// keypad, defining/clearing trajectory groups, and paging through data.
// Events are values (std::variant), serializable for session record/replay
// and for distribution to cluster ranks.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/message.h"
#include "traj/filter.h"
#include "util/geometry.h"

namespace svq::ui {

/// Paint one brush dab: a disc in *arena coordinates* (cm). The user
/// physically paints on one cell's background, but the brush canvas is
/// shared arena space, which is what makes the query coordinated across
/// all cells.
struct BrushStrokeEvent {
  std::uint8_t brushIndex = 0;  ///< which paintbrush color
  Vec2 centerCm;
  float radiusCm = 5.0f;
  bool operator==(const BrushStrokeEvent&) const = default;
};

/// Erase all strokes of one brush (or all brushes when brushIndex == 255).
struct BrushClearEvent {
  std::uint8_t brushIndex = 255;
  bool operator==(const BrushClearEvent&) const = default;
};

/// Temporal range-slider: show only movement within [t0, t1] seconds.
struct TimeWindowEvent {
  float t0 = 0.0f;
  float t1 = 1e9f;
  bool operator==(const TimeWindowEvent&) const = default;
};

/// Ergonomic slider 1: push content in front of / behind the display.
struct DepthOffsetEvent {
  float offsetCm = 0.0f;
  bool operator==(const DepthOffsetEvent&) const = default;
};

/// Ergonomic slider 2: (de)exaggerate the time axis.
struct TimeScaleEvent {
  float cmPerSecond = 0.25f;
  bool operator==(const TimeScaleEvent&) const = default;
};

/// Keypad layout switch ('1', '2', ... select preset grids).
struct LayoutSwitchEvent {
  std::uint8_t presetIndex = 0;
  bool operator==(const LayoutSwitchEvent&) const = default;
};

/// Define (or redefine) a trajectory group: a rectangular bin of cells in
/// grid coordinates with a metadata filter and a background color index.
struct GroupDefineEvent {
  std::uint8_t groupId = 0;
  /// Grid-cell rect (columns/rows of the small-multiple grid).
  RectI cellRect;
  traj::MetaFilter filter;
  std::uint8_t colorIndex = 0;
  std::string name;
  bool operator==(const GroupDefineEvent&) const = default;
};

/// Remove one group (cells return to the default pool).
struct GroupClearEvent {
  std::uint8_t groupId = 0;
  bool operator==(const GroupClearEvent&) const = default;
};

/// Page through the data when a group holds more matches than cells.
struct PageEvent {
  std::int8_t direction = 1;  ///< +1 next page, -1 previous
  bool operator==(const PageEvent&) const = default;
};

using Event =
    std::variant<BrushStrokeEvent, BrushClearEvent, TimeWindowEvent,
                 DepthOffsetEvent, TimeScaleEvent, LayoutSwitchEvent,
                 GroupDefineEvent, GroupClearEvent, PageEvent>;

/// An event stamped with session time (seconds since session start) and an
/// optional free-text analyst note (the study's think-aloud annotations).
struct TimedEvent {
  double timeS = 0.0;
  Event event;
  std::string note;
};

/// Short type name for logs/coding ("brush_stroke", "time_window", ...).
std::string eventTypeName(const Event& e);

/// Binary (de)serialization for replay files and cluster distribution.
void serializeEvent(util::MessageBuffer& buf, const Event& e);
Event deserializeEvent(util::MessageBuffer& buf);

void serializeMetaFilter(util::MessageBuffer& buf, const traj::MetaFilter& f);
traj::MetaFilter deserializeMetaFilter(util::MessageBuffer& buf);

}  // namespace svq::ui
