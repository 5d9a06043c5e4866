// recording.h — the versioned container for recorded interaction sessions.
//
// ui::InputScript captures one explorer's event list; a scale test needs
// more: the *whole* input side of a multi-tenant run, plus everything
// required to rebuild the world it ran against bit-identically. A
// Recording is exactly that closure:
//
//   * WorldSpec — the synthetic-dataset seed and size, the wall geometry
//     and the fault-injector plans (net wire faults for the delta
//     broadcast, io faults for shard-backed worlds). Replaying the same
//     recording always regenerates the same dataset on the same wall
//     under the same injected faults.
//   * steps — the global arrival-order sequence of tenant lifecycle
//     operations (admit/close) and accepted events, each tagged with the
//     dense tenant track index, a session timestamp and an optional
//     analyst note. Per-tenant subsequences are exactly each tenant's
//     event stream as core::SessionService applied it.
//
// The container is a versioned binary format (magic "SVQR") over
// util::MessageBuffer; deserialize() is hardened the way the SVQT parser
// is: payload-bounded counts, finite-timestamp validation, typed
// rejection (nullopt) instead of crashes on truncated or bit-flipped
// input (tests/ui_script_fuzz_test.cpp fuzzes it).
//
// replay::Recorder (below) fills a Recording from a live
// core::SessionService via the service's observation hooks, assigning
// dense track indices in admission order and serializing the global
// arrival order under its own mutex.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sessionservice.h"
#include "util/message.h"
#include "ui/events.h"
#include "ui/script.h"
#include "wall/wall.h"

namespace svq::replay {

/// Everything needed to rebuild a replayed run's world bit-identically.
struct WorldSpec {
  /// Synthetic dataset: traj::AntSimulator(seed) over DatasetSpec{count}
  /// with default behaviour parameters and condition mix.
  std::uint64_t datasetSeed = 808;
  std::uint32_t trajectoryCount = 96;

  /// Wall geometry (WallSpec{tile, cols, rows}).
  wall::TileSpec tile{160, 90, 575.0f, 323.0f, 4.0f};
  int tileCols = 2;
  int tileRows = 1;

  /// Net fault plan for the delta-broadcast wire: probability that a
  /// scene packet is dropped (forcing the epoch+ack resync path), and the
  /// seed of the injector's per-edge RNG streams.
  double wireDropProbability = 0.0;
  std::uint64_t wireFaultSeed = 0x5eedULL;

  /// Io fault plan for shard-backed worlds (traj::ShardStore replays):
  /// fraction of shard payloads the io injector rots, and its seed.
  /// Captured so fault seeds compose with the recording; inert for the
  /// in-memory worlds the shipped scenarios use (DESIGN.md §13).
  double ioFaultPct = 0.0;
  std::uint64_t ioFaultSeed = 0x5eedULL;

  /// Overload plan (format v2): the SessionService health-controller
  /// configuration a replay must run under, plus a deterministic clock
  /// advance. All-zero (the default, and what v1 recordings decode to)
  /// means no overload machinery — the runner leaves the service at its
  /// plain defaults, exactly the pre-v2 behaviour. When active, the
  /// runner drives the service off a util::ManualClock advanced by
  /// clockAdvanceUsPerStep *between* steps, so deadline expiry and
  /// latency accounting are pure functions of the step index — chaos
  /// composed from this plan plus the wire/io plans replays
  /// bit-identically at any thread count.
  struct OverloadPlan {
    std::uint32_t applyDeadlineUs = 0;       ///< 0 = unlimited
    std::uint32_t shedP99Us = 0;             ///< 0 = latency trigger off
    std::uint32_t shedQueueDepth = 0;        ///< 0 = depth trigger off
    std::uint32_t healthWindow = 0;          ///< 0 = service default
    std::uint32_t clockAdvanceUsPerStep = 0; ///< manual-clock step
    bool active() const {
      return applyDeadlineUs != 0 || shedP99Us != 0 || shedQueueDepth != 0 ||
             healthWindow != 0 || clockAdvanceUsPerStep != 0;
    }
  };
  OverloadPlan overload;

  /// Progressive plan (format v3): when active, the replayed world is
  /// backed by a shard store (capacity shardCapacity, written from the
  /// regenerated dataset under the io fault plan) clustered by a
  /// somRows x somCols SOM — sessions then run in progressive (anytime)
  /// mode and kRefine steps drive SessionService::refine(). All-zero
  /// (the default, and what v1/v2 recordings decode to) means the plain
  /// in-memory world. The store build and clustering are bit-
  /// deterministic for a given recording, so converged frames hash
  /// identically at any thread count.
  struct ProgressivePlan {
    std::uint32_t shardCapacity = 0;  ///< 0 = progressive mode off
    std::uint32_t somRows = 0;
    std::uint32_t somCols = 0;
    bool active() const { return shardCapacity != 0; }
  };
  ProgressivePlan progressive;

  wall::WallSpec wallSpec() const {
    return wall::WallSpec(tile, tileCols, tileRows);
  }
};

/// One recorded step, in global arrival order.
enum class StepKind : std::uint8_t {
  kAdmit = 0,   ///< tenant admitted (track index assigned here)
  kEvent = 1,   ///< one ui::Event on the tenant's synchronous apply path
  kClose = 2,   ///< tenant closed
  kSubmit = 3,  ///< one ui::Event enqueued via submit() (format v2) —
                ///< authored overload scenarios use this to build real
                ///< queue pressure the replayed service must shed/drain
  kRefine = 4,  ///< one SessionService::refine(tenant, refineBudget) call
                ///< (format v3) — drains the tenant's anytime query; the
                ///< recorded budget is the *requested* one, health
                ///< scaling re-derives on replay
};

struct RecordedStep {
  StepKind kind = StepKind::kEvent;
  std::uint32_t tenant = 0;  ///< dense track index (admission order)
  double timeS = 0.0;        ///< session time; informational
  ui::Event event;           ///< meaningful only for kEvent/kSubmit
  std::string note;          ///< think-aloud annotation (may be empty)
  /// core::StatusCode of the service's refusal, or 0 when the event was
  /// accepted (format v2; always 0 for lifecycle steps). A refused step
  /// is part of the stream — replay must re-see the refusal, never apply
  /// the event — which is how load-shedding decisions stay inside the
  /// determinism boundary.
  std::uint8_t refusal = 0;
  /// Requested shard budget of a kRefine step (format v3; 0 otherwise).
  /// The *requested* budget is recorded — replay re-issues the same
  /// refine() call and health scaling re-derives deterministically.
  std::uint32_t refineBudget = 0;
};

/// A recorded multi-tenant session: world + globally ordered steps.
class Recording {
 public:
  static constexpr std::uint32_t kMagic = 0x52515653u;  // "SVQR"
  /// v2 adds the WorldSpec overload plan, the kSubmit step kind and a
  /// per-step refusal byte. v3 adds the WorldSpec progressive plan and
  /// the kRefine step kind (with its u32 shard budget). deserialize()
  /// still accepts v1 and v2 payloads (decoded with inert plans, refusal
  /// 0 / budget 0 where the bytes predate the field); serialize() always
  /// writes the current version.
  static constexpr std::uint32_t kVersion = 3;

  WorldSpec world;

  // --- building ----------------------------------------------------------
  void admit(std::uint32_t tenant, double timeS) {
    steps_.push_back({StepKind::kAdmit, tenant, timeS, {}, {}, 0});
  }
  void event(std::uint32_t tenant, double timeS, ui::Event e,
             std::string note = {}) {
    steps_.emplace_back(StepKind::kEvent, tenant, timeS, std::move(e),
                        std::move(note));
  }
  /// An event the service *refused* with StatusCode `refusalCode`
  /// (kBackpressure / kDeadlineExceeded / kOverloaded): replay re-sees
  /// the refusal instead of applying the event.
  void refused(std::uint32_t tenant, double timeS, ui::Event e,
               std::uint8_t refusalCode, std::string note = {}) {
    steps_.emplace_back(StepKind::kEvent, tenant, timeS, std::move(e),
                        std::move(note), refusalCode);
  }
  /// An event enqueued via SessionService::submit() instead of applied
  /// synchronously — the queue-pressure primitive overload scenarios are
  /// authored from.
  void submit(std::uint32_t tenant, double timeS, ui::Event e,
              std::string note = {}) {
    steps_.emplace_back(StepKind::kSubmit, tenant, timeS, std::move(e),
                        std::move(note));
  }
  /// A refinement step: replay calls SessionService::refine(tenant,
  /// maxShards). The budget must be positive.
  void refine(std::uint32_t tenant, double timeS, std::uint32_t maxShards) {
    steps_.push_back(
        {StepKind::kRefine, tenant, timeS, {}, {}, 0, maxShards});
  }
  /// A refine() the service refused (kOverloaded while Shedding): replay
  /// re-sees the refusal instead of running the step.
  void refineRefused(std::uint32_t tenant, double timeS,
                     std::uint32_t maxShards, std::uint8_t refusalCode) {
    steps_.push_back(
        {StepKind::kRefine, tenant, timeS, {}, {}, refusalCode, maxShards});
  }
  void close(std::uint32_t tenant, double timeS) {
    steps_.push_back({StepKind::kClose, tenant, timeS, {}, {}, 0});
  }

  /// Single-tenant recording from a classic InputScript (the
  /// pilot-study migration path): admit track 0, then every scripted
  /// event in order with its timestamp and note.
  static Recording fromScript(WorldSpec world, const ui::InputScript& script);

  // --- inspection --------------------------------------------------------
  const std::vector<RecordedStep>& steps() const { return steps_; }
  bool empty() const { return steps_.empty(); }
  std::size_t size() const { return steps_.size(); }
  std::size_t eventCount() const;
  /// Steps carrying a non-zero refusal code.
  std::size_t refusedCount() const;
  /// Highest tenant track index + 1 (0 for an empty recording).
  std::uint32_t tenantCount() const;

  /// Projection of one tenant's steps (relative order preserved, track
  /// index remapped to 0) — the serialized per-tenant split the
  /// SessionService ordering tests replay against the interleaved whole.
  Recording tenantSlice(std::uint32_t tenant) const;

  // --- serialization -----------------------------------------------------
  util::MessageBuffer serialize() const;
  /// Hardened parse: rejects bad magic/version, payload-driven counts,
  /// non-finite timestamps and truncation with nullopt — never a crash,
  /// never an allocation sized by a corrupt count field.
  static std::optional<Recording> deserialize(util::MessageBuffer buf);

  bool saveBinary(const std::string& path) const;
  static std::optional<Recording> loadBinary(const std::string& path);

 private:
  std::vector<RecordedStep> steps_;
};

/// Captures a live core::SessionService's input flow into a Recording.
///
/// attach() installs itself as the service's observation hooks; from then
/// on every admission, accepted event (submit() at enqueue time, apply()
/// at apply time — i.e. in exact per-tenant stream order), *load-shed
/// refusal* (kBackpressure / kDeadlineExceeded / kOverloaded — recorded
/// as refusal-tagged steps so a replay re-sees the refusal instead of
/// applying the event) and close lands in the recording in global
/// arrival order, serialized by the recorder's own mutex. SessionIds are
/// mapped to dense track indices in admission order, so a recording is
/// stable across runs that hand out different raw ids.
///
/// Timestamps default to a deterministic step counter (0.1 s per step);
/// interactive recorders install a wall-clock source via setTimeSource().
class Recorder {
 public:
  explicit Recorder(WorldSpec world) { recording_.world = world; }

  /// Installs this recorder's hooks on `service`. Call before traffic
  /// starts; the service keeps a reference until detach() (or different
  /// hooks) replace it.
  void attach(core::SessionService& service);

  /// Removes the hooks installed by attach().
  void detach();

  /// Replaces the timestamp source (seconds since session start).
  void setTimeSource(std::function<double()> source) {
    std::lock_guard lock(mutex_);
    timeSource_ = std::move(source);
  }

  /// Steps recorded so far.
  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return recording_.size();
  }

  /// Detaches and moves the finished recording out.
  Recording finish();

 private:
  double stamp();  // caller holds mutex_
  void onAdmit(core::SessionId id);
  void onEvent(core::SessionId id, const ui::Event& e,
               const core::Status& status);
  void onRefine(core::SessionId id, std::uint32_t maxShards,
                const core::Status& status);
  void onClose(core::SessionId id);

  mutable std::mutex mutex_;
  Recording recording_;
  std::function<double()> timeSource_;
  std::unordered_map<core::SessionId, std::uint32_t> tracks_;
  std::uint64_t sequence_ = 0;
  core::SessionService* attached_ = nullptr;
};

}  // namespace svq::replay
