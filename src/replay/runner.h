// runner.h — headless, bit-deterministic replay of a Recording.
//
// The Runner is the engine every scale/speed claim in this repo can be
// verified against: it rebuilds the recorded world (dataset regenerated
// from its seed, wall geometry, fault plans), drives the recorded steps
// through a real core::SessionService, and renders every step's frame
// headless through render::CellRenderPipeline, emitting
//
//   * a per-step FNV-1a frame hash (render::Framebuffer::contentHash of
//     the stepped tenant's wall) — the bit-identity probe. The same
//     recording must produce the same hash sequence at any thread count,
//     with the delta-broadcast wire on or off, under SVQ_FORCE_SCALAR,
//     and under injected wire faults (the resync path must converge to
//     the same pixels);
//   * a perftool-style timing log — per-step apply/build/raster micros,
//     aggregated and exportable as a BenchReport-shaped JSON report next
//     to the existing BENCH_*.json files (scripts/perf_smoke.py --info).
//
// Delta mode mirrors the cluster broadcast protocol end to end per
// tenant: the scene is encoded by cluster::SceneDeltaEncoder, shipped
// over a wire that a seeded net::FaultInjector may drop, and decoded by a
// cluster::SceneReceiver; a dropped or rejected packet triggers the
// epoch+ack resync (a reliable full re-send), exactly like
// cluster::ClusterApp. The receiver's scene — never the master's — is
// what gets rasterized and hashed, so the wire protocol is inside the
// determinism boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "render/camera.h"
#include "replay/recording.h"

namespace svq::replay {

/// Replay configuration axes (the fleet sweeps these).
struct RunnerOptions {
  /// Cell-parallel rasterization threads; 0/1 = serial. Output is
  /// bit-identical at any value (the pipeline's determinism contract).
  int renderThreads = 0;
  /// Route every frame through the delta scene broadcast (encoder → wire
  /// → receiver) and hash the receiver's rendering.
  bool deltaBroadcast = false;
  /// Drop delta-wire packets per the recording's wireDropProbability /
  /// wireFaultSeed plan (only meaningful with deltaBroadcast).
  bool injectWireFaults = false;
  /// Use the SharedContext's cross-session cell cache.
  bool useSharedCache = true;
  /// Eye rendered and hashed (left by default: exercises stereo parallax).
  render::Eye eye = render::Eye::kLeft;
};

/// What one step did: hash + timing + the wire path it took.
struct StepTrace {
  std::uint32_t index = 0;
  std::uint32_t tenant = 0;
  std::string type;          ///< "admit", "close", or the event type name
  bool applied = true;       ///< event accepted by the session
  std::uint64_t frameHash = 0;  ///< 0 for kClose/kSubmit steps
  double applyUs = 0.0;      ///< SessionService::apply (kEvent only)
  double buildUs = 0.0;      ///< buildScene (query evaluation inside)
  double rasterUs = 0.0;     ///< pipeline render (incl. wire in delta mode)
  /// cluster::ScenePacketKind actually applied by the receiver in delta
  /// mode (0 full / 1 delta); 0xFF when delta mode is off.
  std::uint8_t packetKind = 0xFF;
  bool resynced = false;     ///< wire drop/reject forced a full resync
  /// core::StatusCode of the refusal this step saw — replayed from the
  /// recording (refusal-tagged steps are never applied) or decided live
  /// by the replayed service's health controller. 0 = accepted.
  std::uint8_t refusal = 0;
  /// SessionService health (0 healthy / 1 degraded / 2 shedding) observed
  /// right after the step — the soak invariants assert on this timeline.
  std::uint8_t health = 0;
};

/// The replay's full result: per-step traces + run-level accounting.
struct RunReport {
  std::vector<StepTrace> steps;
  std::size_t eventsApplied = 0;
  std::size_t eventsRejected = 0;
  /// Events turned away typed (kOverloaded/kDeadlineExceeded/
  /// kBackpressure): recorded refusals re-seen plus live shedding
  /// decisions by the replayed health controller.
  std::size_t eventsShed = 0;
  std::size_t eventsSubmitted = 0;  ///< kSubmit steps enqueued ok
  std::size_t refineSteps = 0;      ///< kRefine steps the service ran
  std::uint64_t shardsRefined = 0;  ///< uncertain shards resolved by them
  std::uint64_t packetsDropped = 0;  ///< delta-wire drops (injected)
  std::uint64_t resyncs = 0;
  double totalMs = 0.0;

  /// Per-step frame hashes, index-aligned with steps.
  std::vector<std::uint64_t> frameHashes() const;
  /// One FNV-1a fingerprint over (tenant, frameHash) per step — equal
  /// fleet hashes <=> equal per-step hash sequences.
  std::uint64_t fleetHash() const;

  /// Writes the timing log as a BenchReport-shaped JSON report (one
  /// scenario named `scenario`, median/p95 per-step ms plus counters).
  /// scripts/perf_smoke.py --info renders it; it is informational, never
  /// a gate.
  bool writeTimingLog(const std::string& path,
                      const std::string& scenario) const;
};

/// Headless replay engine. Construct with a recording, run() once; the
/// rebuilt world (dataset, context, service) stays alive on the Runner so
/// callers can inspect final session state (see inspectSession).
class Runner {
 public:
  explicit Runner(Recording recording, RunnerOptions options = {});
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  RunReport run();

  /// The regenerated dataset (valid after run()).
  const traj::TrajectoryDataset& dataset() const;

  /// Runs `fn` on a replayed tenant's final Session (valid after run();
  /// returns false for an unknown/closed track). The pilot-study example
  /// reads its provenance inputs this way.
  bool inspectSession(std::uint32_t tenant,
                      const std::function<void(core::Session&)>& fn);

  /// The replayed SessionService (valid after run(), nullptr before) —
  /// soak invariant checkers read health state, queue depths and metrics
  /// through it.
  core::SessionService* service();

 private:
  struct World;  // dataset + context + service + per-tenant render state

  /// Builds, (in delta mode) ships, renders and hashes the stepped
  /// tenant's current frame into `trace`.
  void renderStep(World& w, std::uint32_t tenant, StepTrace& trace,
                  RunReport& report);

  Recording recording_;
  RunnerOptions options_;
  std::unique_ptr<World> world_;
};

}  // namespace svq::replay
