// snapshot.h — session state persistence.
//
// §VII: "integrating our application into larger scientific workflows".
// A snapshot captures the complete interactive state of a Session
// — layout preset, groups, paging, brush strokes, temporal filter and
// stereo sliders — so a session can be saved, resumed, shared, or
// branched (each hypothesis exploration can be checkpointed). Restoring
// a snapshot into an app over the same dataset reproduces the frame
// pixel-for-pixel.
#pragma once

#include <optional>
#include <string>

#include "core/session.h"
#include "util/message.h"

namespace svq::core {

/// Serializes the app's interactive state (not the dataset).
util::MessageBuffer saveSnapshot(const Session& app);

/// Restores a snapshot into an app. The app must be bound to a dataset
/// compatible with the one the snapshot was taken over (same trajectory
/// count/ids); returns false on malformed input and then leaves the app
/// untouched. A restore replaces the app with a restored fork, so its
/// next frame re-evaluates the query in full.
bool restoreSnapshot(Session& app, util::MessageBuffer snapshot);

/// File convenience wrappers.
bool saveSnapshotFile(const Session& app, const std::string& path);
bool restoreSnapshotFile(Session& app, const std::string& path);

}  // namespace svq::core
