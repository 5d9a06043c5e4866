#include "ui/script.h"

#include <algorithm>
#include <cmath>

namespace svq::ui {

void InputScript::record(double timeS, Event e, std::string note) {
  if (!std::isfinite(timeS)) timeS = durationS();
  TimedEvent timed{timeS, std::move(e), std::move(note)};
  if (events_.empty() || events_.back().timeS <= timeS) {
    events_.push_back(std::move(timed));
    return;
  }
  // Out-of-order stamp (merged recorders, clock hiccups): stable insert
  // after every event at or before this stamp, so replay order stays the
  // record order among equal stamps.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), timeS,
      [](double t, const TimedEvent& ev) { return t < ev.timeS; });
  events_.insert(pos, std::move(timed));
}

void InputScript::replay(
    const std::function<void(const TimedEvent&)>& sink) const {
  for (const TimedEvent& e : events_) sink(e);
}

}  // namespace svq::ui
