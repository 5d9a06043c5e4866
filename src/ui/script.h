// script.h — recorded interaction sessions.
//
// The pilot study is reproduced by replaying scripted analyst sessions:
// a time-stamped sequence of events with think-aloud notes. Scripts can be
// recorded from a live session and replayed into the application
// (optionally time-compressed). A script is persisted as an SVQR
// recording: replay::Recording::fromScript(world, script).saveBinary(path).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ui/events.h"

namespace svq::ui {

/// An ordered, time-stamped event sequence.
class InputScript {
 public:
  InputScript() = default;

  /// Appends an event, keeping the script sorted by timestamp: a stamp at
  /// or after the current end appends (the live-recording fast path); an
  /// out-of-order stamp is stably inserted at its time position; a
  /// non-finite stamp is clamped to the script's current end.
  void record(double timeS, Event e, std::string note = {});

  const std::vector<TimedEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  double durationS() const {
    return events_.empty() ? 0.0 : events_.back().timeS;
  }

  /// Invokes sink for every event in time order (record() keeps the
  /// event list sorted).
  void replay(const std::function<void(const TimedEvent&)>& sink) const;

 private:
  std::vector<TimedEvent> events_;
};

}  // namespace svq::ui
