// sessionservice.h — N concurrent explorers over one SharedContext.
//
// The multi-tenant layer of the ROADMAP north-star: one node owns one
// immutable SharedContext (dataset / shard store / SOM / shared render
// cache) and multiplexes up to maxSessions independent Sessions over it.
// Each tenant gets:
//
//   * admission control — admit() hands out a SessionId or a typed
//     refusal (core::Status kAtCapacity) a load balancer can act on;
//   * a bounded event queue — submit() enqueues without touching session
//     state (cheap, callable from an ingest thread); a full queue returns
//     kBackpressure, telling that tenant to slow down without penalizing
//     anyone else. drain() applies the backlog; apply() is the
//     synchronous submit-and-apply path interactive callers use;
//   * isolation — per-tenant state is copy-on-write Session state, and
//     every operation on a tenant runs under that tenant's own mutex.
//     Different tenants never contend except on the (read-mostly) session
//     map and the internally-synchronized shared render cache;
//   * overload protection — a per-node health controller (Healthy →
//     Degraded → Shedding) driven by the windowed apply-latency p99 and
//     the aggregate queued-event depth. Degraded shrinks the per-apply
//     deadline budget and coalesces stale queued events (latest-wins,
//     lossless for the final state); Shedding refuses new work with a
//     typed kOverloaded (carrying a retry-after hint) while closes and
//     drains — the operations that *reduce* load — always get through.
//     Escalation is immediate; recovery steps down one level per calm
//     evaluation window, so a node never flaps straight from Shedding
//     to Healthy (monotone, bounded recovery).
//
// Metrics (util/metrics, prefix "sessions."): active (gauge),
// admitted / admission_rejected / closed / events_applied /
// events_rejected / events_queued / backpressure (counters), and
// apply_latency_us (histogram -> p50/p99 in snapshots). The overload
// controller adds: health_state (gauge: 0 healthy / 1 degraded /
// 2 shedding), shed / deadline_exceeded / events_coalesced /
// degraded_entered / shedding_entered (counters), and per-state latency
// histograms apply_latency_us.healthy / .degraded / .shedding. Together
// with render.shared.* these are the per-node health numbers: sessions
// active, events/s, cache cross-hit-rate, apply latency tail, shed rate.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "core/context.h"
#include "core/session.h"
#include "core/status.h"
#include "ui/events.h"
#include "util/cancel.h"
#include "util/clock.h"

namespace svq::core {

/// Opaque tenant handle (dense, never reused within one service).
using SessionId = std::uint64_t;

/// Thread-safe multiplexer of Sessions over one SharedContext.
class SessionService {
 public:
  struct Options {
    /// Admission ceiling (SVQ_MAX_SESSIONS).
    std::size_t maxSessions = 256;
    /// Bound of each tenant's pending-event queue (SVQ_SESSION_QUEUE_DEPTH).
    std::size_t eventQueueDepth = 128;
    /// Per-apply deadline budget in microseconds; 0 = unlimited.
    /// (SVQ_APPLY_DEADLINE_MS, in milliseconds.) apply() spends the
    /// budget across the tenant's backlog and the synchronous event; an
    /// exhausted budget refuses the synchronous event with
    /// kDeadlineExceeded, backlog intact. buildScene() hands the same
    /// budget to the query engine as a cooperative cancellation.
    std::uint64_t applyDeadlineUs = 0;
    /// Windowed apply-latency p99 (microseconds) that trips the health
    /// controller: p99 >= this => Shedding, p99 >= this/2 => Degraded.
    /// 0 disables the latency trigger (SVQ_SHED_P99_US).
    std::uint64_t shedP99Us = 0;
    /// Aggregate queued-event depth (all tenants) that trips the health
    /// controller: depth >= this => Shedding, depth >= this/2 =>
    /// Degraded. 0 disables the depth trigger.
    std::size_t shedQueueDepth = 0;
    /// Apply attempts (applied or refused) per health evaluation window.
    std::size_t healthWindow = 64;
    /// Degraded divides the per-apply deadline budget by this.
    std::uint32_t degradedDeadlineDiv = 4;
    /// Retry-after hint (milliseconds) carried on kOverloaded refusals.
    std::uint32_t retryAfterMs = 25;
    /// Time source for deadlines, latency accounting and the health
    /// controller; nullptr = the process steady clock. Replay injects a
    /// util::ManualClock so overload behaviour is a pure function of the
    /// recorded steps, not of runner speed.
    const util::Clock* clock = nullptr;

    /// Reads SVQ_MAX_SESSIONS, SVQ_SESSION_QUEUE_DEPTH,
    /// SVQ_APPLY_DEADLINE_MS and SVQ_SHED_P99_US. Values must be strictly
    /// positive integers; zero, negative or unparsable input is rejected
    /// with a logged warning and the compiled default kept — a typo in an
    /// ops script must never silently turn a safety knob off.
    static Options fromEnv();
  };

  /// Per-node overload state. Ordered by severity: the controller only
  /// ever escalates immediately and recovers one level per calm window.
  enum class Health : std::uint8_t {
    kHealthy = 0,   ///< full deadlines, nothing refused
    kDegraded = 1,  ///< deadlines divided, queued backlogs coalesced
    kShedding = 2,  ///< new work refused with kOverloaded; close/drain ok
  };

  /// What admit() hands back: an id iff status.isOk().
  struct Admission {
    Status status;
    SessionId id = 0;
    explicit operator bool() const { return status.isOk(); }
  };

  /// Observation hooks for session record/replay (replay::Recorder).
  /// onEvent fires for every event that *enters or is refused from* a
  /// tenant's stream, with the Status the service decided: isOk() means
  /// accepted — from submit() at enqueue time and apply() at apply time,
  /// under the tenant's mutex, i.e. in the exact order events enter that
  /// tenant's stream — while kBackpressure / kOverloaded /
  /// kDeadlineExceeded mean the event was turned away (it did NOT enter
  /// the stream; a replay must re-see the refusal, not re-apply the
  /// event). onAdmit/onClose fire after the tenant map changes. Install
  /// before traffic starts and leave in place until the flows being
  /// observed are quiesced; the empty default disables observation.
  struct Hooks {
    std::function<void(SessionId)> onAdmit;
    std::function<void(SessionId, const ui::Event&, const Status&)> onEvent;
    std::function<void(SessionId)> onClose;
    /// Fires for every refine() call with the *requested* shard budget
    /// and the Status the service decided (isOk() = the step ran,
    /// kOverloaded = refused while Shedding). The recorded budget is the
    /// requested one — a replay re-issues the same call and the health
    /// scaling re-derives deterministically.
    std::function<void(SessionId, std::uint32_t, const Status&)> onRefine;
  };

  explicit SessionService(std::shared_ptr<const SharedContext> context);
  SessionService(std::shared_ptr<const SharedContext> context,
                 Options options);

  /// Installs (or, with a default-constructed Hooks, removes) the
  /// observation hooks. Not synchronized against in-flight operations —
  /// set while the service is quiet.
  void setHooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Creates a fresh tenant session (O(1): COW state over the shared
  /// context). kAtCapacity when maxSessions are live, kShutdown after
  /// shutdown(). Admission is allowed even when Shedding: admitting is
  /// O(1) and the new tenant's work is what gets shed.
  Admission admit();

  /// Ends a tenant; queued events are dropped. kUnknownSession if the id
  /// was never admitted or already closed. Always allowed — closing
  /// *reduces* load, so no health state refuses it.
  Status close(SessionId id);

  /// Enqueues an event for later drain(). kBackpressure (and the event is
  /// NOT queued) when the tenant's queue is at eventQueueDepth;
  /// kOverloaded (with a retry-after hint) when the node is Shedding.
  Status submit(SessionId id, const ui::Event& event);

  /// Applies every queued event in submission order. kRejected when any
  /// event could not be applied (the rest still apply); `appliedOut`
  /// (optional) receives the number applied either way. Always allowed —
  /// draining is how an overloaded node recovers — but a non-Healthy node
  /// coalesces the backlog first (latest-wins, lossless for final state).
  Status drain(SessionId id, std::size_t* appliedOut = nullptr);

  /// Drains the backlog, then applies `event` synchronously — the
  /// interactive path. Latency lands in sessions.apply_latency_us (and
  /// the per-health-state variant). Overload behaviour:
  ///   * Shedding: refused outright with kOverloaded + retry-after; the
  ///     backlog is untouched (use drain() to make progress).
  ///   * Degraded: the backlog is coalesced, the deadline budget is
  ///     divided by degradedDeadlineDiv.
  ///   * Deadline exhausted mid-backlog: the synchronous event is refused
  ///     with kDeadlineExceeded; backlog remainder stays queued — never
  ///     torn, never silently dropped.
  Status apply(SessionId id, const ui::Event& event);

  /// Advances the tenant's anytime query (progressive sessions only; a
  /// no-op returning kOk for the rest): up to `maxShards` uncertain
  /// shards are exactly evaluated, resident ones first. Health
  /// applies exactly like apply(): Shedding refuses with kOverloaded +
  /// retry-after (refinement is deferrable work — shedding it is the
  /// point), Degraded divides the shard budget by degradedDeadlineDiv
  /// (min 1), and the apply deadline rides along as a cooperative
  /// cancellation polled between shards (at least one shard always
  /// resolves, so refinement makes progress even degraded). `refinedOut`
  /// (optional) receives the number of shards resolved.
  Status refine(SessionId id, std::size_t maxShards,
                std::size_t* refinedOut = nullptr);

  /// Builds the tenant's current scene into `out`. The apply deadline
  /// budget (scaled by health) rides along as a cooperative cancellation:
  /// an over-budget build returns kDeadlineExceeded with the session
  /// untouched (the engine keeps its dirty-set; the next build resumes).
  Status buildScene(SessionId id, render::SceneModel& out);

  /// Runs `fn(Session&)` under the tenant's lock — snapshots, custom
  /// reads, render loops owning their own pipeline.
  template <typename Fn>
  Status withSession(SessionId id, Fn&& fn) {
    if (shutdown_.load(std::memory_order_acquire)) return Status::shutdown();
    const std::shared_ptr<Tenant> t = tenant(id);
    if (!t) return Status::unknownSession(static_cast<std::int64_t>(id));
    std::lock_guard<std::mutex> lock(t->mutex);
    fn(t->session);
    return Status::ok(static_cast<std::int64_t>(id));
  }

  std::size_t activeSessions() const;
  /// Pending (queued, undrained) events of one tenant; 0 for unknown ids.
  std::size_t queuedEvents(SessionId id) const;
  /// Aggregate queued events across every tenant — the depth the health
  /// controller watches. O(1) (maintained counter, not a map walk).
  std::size_t queuedEventsTotal() const {
    return queuedTotal_.load(std::memory_order_relaxed);
  }
  /// Current overload state.
  Health health() const {
    return static_cast<Health>(health_.load(std::memory_order_acquire));
  }
  const Options& options() const { return options_; }
  const SharedContext& context() const { return *context_; }

  /// Stops the service: closes every tenant; subsequent operations return
  /// kShutdown.
  void shutdown();

 private:
  struct Tenant {
    explicit Tenant(Session s) : session(std::move(s)) {}
    std::mutex mutex;  ///< guards session + queue
    Session session;
    std::deque<ui::Event> queue;
  };

  /// One evaluation window's apply-latency distribution: power-of-two
  /// buckets like util::Histogram, but drainable — the health controller
  /// atomically swaps each window out, so no sample is double-counted
  /// across windows and the p99 reflects *recent* latency, not the
  /// process lifetime.
  struct WindowHistogram {
    std::array<std::atomic<std::uint64_t>, 65> buckets{};
    void record(std::uint64_t v) {
      buckets[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    }
    /// Drains the window and returns its p99 upper bound (0 when empty).
    std::uint64_t drainP99();
  };

  /// The tenant's record, or nullptr. Tenants are held by shared_ptr so a
  /// concurrent close() never pulls a locked tenant out from under an
  /// in-flight operation.
  std::shared_ptr<Tenant> tenant(SessionId id) const;
  /// Applies one event under t.mutex (held by caller); records metrics
  /// into the blended and the per-health-state latency histograms.
  bool applyOneLocked(Tenant& t, const ui::Event& event, Health state);
  /// Drops queue entries that cannot affect the tenant's final state:
  /// scalar setters (time window / depth / scale) superseded by a later
  /// setter of the same kind, and brush strokes covered by a later clear
  /// of the same brush (or clear-all). Lossless once the queue fully
  /// drains; intermediate frames may differ (stale work is the point).
  /// Returns the number dropped. Caller holds t.mutex.
  std::size_t coalesceLocked(Tenant& t);
  /// The deadline budget for one apply/buildScene at `state` (unlimited
  /// when applyDeadlineUs is 0; divided by degradedDeadlineDiv when
  /// Degraded or worse).
  util::Deadline applyDeadline(Health state) const;
  /// Fires hooks_.onEvent for a refusal (event turned away with
  /// `status`), under the tenant's mutex for stream-order consistency.
  void notifyRefused(SessionId id, const ui::Event& event,
                     const Status& status);
  bool healthControlEnabled() const {
    return options_.shedP99Us != 0 || options_.shedQueueDepth != 0;
  }
  /// Severest state the current signals justify.
  Health targetHealth(std::uint64_t windowP99Us, std::size_t depth) const;
  /// Ticks the evaluation window (every apply attempt, applied or
  /// refused); on a window boundary re-evaluates health: escalate to the
  /// target immediately, recover one level per calm window.
  void noteWindowTick();
  /// Escalation-only fast path on queue growth (called from submit).
  void maybeEscalateOnDepth();
  /// healthMutex_ held. Stores the state, maintains the gauge and the
  /// transition counters.
  void setHealthLocked(Health next);

  std::shared_ptr<const SharedContext> context_;
  Options options_;
  const util::Clock* clock_;  ///< options_.clock or util::steadyClock()
  Hooks hooks_;
  mutable std::shared_mutex mapMutex_;  ///< guards tenants_ + nextId_
  std::unordered_map<SessionId, std::shared_ptr<Tenant>> tenants_;
  SessionId nextId_ = 1;
  std::atomic<bool> shutdown_{false};

  // --- health controller ---------------------------------------------------
  std::atomic<std::uint8_t> health_{0};
  std::atomic<std::size_t> queuedTotal_{0};
  std::atomic<std::uint64_t> windowTicks_{0};
  WindowHistogram windowHist_;
  /// Serializes health transitions (and windowHist_ drains). Leaf lock:
  /// taken with tenant mutexes held, never the other way around.
  std::mutex healthMutex_;
};

/// Printable name ("healthy" / "degraded" / "shedding").
const char* healthName(SessionService::Health h);

}  // namespace svq::core
