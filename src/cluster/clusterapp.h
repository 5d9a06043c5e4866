// clusterapp.h — sort-first cluster rendering of the wall.
//
// Reproduces the parallel rendering architecture that drove the paper's
// display: one render node per tile, a master that distributes the frame
// state, a swap barrier that locks all panels to the same frame, and an
// optional gather that reassembles the full wall image.
//
// Protocol per frame (all ranks, lockstep):
//   1. master (rank 0) serializes the SceneModel; broadcast to all ranks;
//   2. every rank renders the *whole* scene through a Canvas clipped to
//      each tile it owns (sort-first: geometry outside the tile is
//      culled); stereo renders one framebuffer per eye;
//   3. swap barrier (SwapGroup) — no tile shows frame N+1 before all
//      finished frame N;
//   4. if gathering, ranks send tile framebuffers to the master, which
//      composites the wall image.
//
// Fault tolerance (options.faultTolerance.enabled): the swap barrier is
// the heartbeat. A rank that misses it through the retry/backoff ladder
// is declared dead by the master; the release payload propagates the
// dead-set to the survivors, which deterministically reassign the dead
// rank's tile round-robin over the surviving ranks (sort-first makes this
// a pure frustum reassignment — no data movement). Until the reassigned
// tile is rendered, the master composites the dead tile from its
// last-good framebuffer ("degraded" frames). A session with one dead
// render rank therefore completes with a pixel-complete wall instead of
// wedging.
//
// Ranks are threads over InProcessTransport; the protocol code is
// identical to what TCP-connected processes would run.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "net/comm.h"
#include "net/status.h"
#include "render/framebuffer.h"
#include "render/scene.h"
#include "traj/dataset.h"
#include "util/stopwatch.h"
#include "wall/wall.h"

namespace svq::cluster {

/// Failure-detection and degraded-mode policy.
struct FaultToleranceOptions {
  bool enabled = false;
  /// Swap-barrier (heartbeat) deadline before the first retry.
  double heartbeatTimeoutSeconds = 0.25;
  /// Extra deadline windows before a silent rank is declared dead.
  int retries = 2;
  double backoffMultiplier = 2.0;

  net::CollectiveConfig collectiveConfig() const {
    net::CollectiveConfig c;
    if (enabled) {
      c.timeoutSeconds = heartbeatTimeoutSeconds;
      c.retries = retries;
      c.backoffMultiplier = backoffMultiplier;
    }
    return c;
  }
};

/// Scripted rank crash for tests and benches: the rank's thread exits at
/// the top of frame `atFrame`, before receiving that frame's state.
/// Rank 0 (the master) is a single point of failure and must not be
/// killed.
struct RankFailure {
  int rank = -1;
  std::uint64_t atFrame = 0;
};

/// Scripted scene-cache loss for tests: the rank forgets its cached scene
/// at the top of frame `atFrame`, so the next delta broadcast it receives
/// is rejected and the master must resync it with a full packet.
struct SceneCacheDrop {
  int rank = -1;
  std::uint64_t atFrame = 0;
};

/// Wall/bench presets for ClusterOptions::preset().
enum class ClusterPreset {
  kMinimal,   ///< mono, gather on — cheapest correct session
  kEVL6x3,    ///< the paper's wall: stereo, gather-to-master composite
  kHeadless,  ///< stereo, no gather — pure render/swap scaling runs
};

struct ClusterOptions {
  bool stereo = true;
  /// Gather tile images to the master each frame and composite.
  bool gatherToMaster = true;
  /// Keep only the final frame's composite (memory control for benches).
  bool keepAllComposites = false;
  /// Interconnect model (latency/bandwidth) for ablation studies;
  /// default = instantaneous in-process delivery.
  net::NetworkModel network;
  /// Deterministic interconnect fault injection (drop/delay); applied to
  /// the transport when any probability is non-zero.
  net::FaultInjector::Plan faults;
  FaultToleranceOptions faultTolerance;
  /// Broadcast only the cells whose content hash changed since the last
  /// acked epoch (full-scene packets on the first frame, layout changes
  /// and resyncs). Off = every frame ships the full scene.
  bool deltaBroadcast = true;
  /// Scripted rank crashes (tests/benches).
  std::vector<RankFailure> failures;
  /// Scripted scene-cache losses (tests): exercises the delta-broadcast
  /// resync path without killing the rank.
  std::vector<SceneCacheDrop> sceneCacheDrops;
  /// Session watchdog: > 0 aborts a wedged session (transport shutdown)
  /// after this many wall-clock seconds. This is how a *non*-fault-
  /// tolerant session with a dead rank is recovered for measurement.
  double watchdogSeconds = 0.0;

  // --- fluent builder ------------------------------------------------------
  // The option set grows PR over PR; the builder keeps call sites
  // source-compatible:
  //   ClusterOptions::preset(ClusterPreset::kEVL6x3)
  //       .withNetwork(net::NetworkModel::gigabitEthernet())
  //       .withFaultTolerance()
  //       .withFailure(7, 3);

  static ClusterOptions preset(ClusterPreset p) {
    ClusterOptions o;
    switch (p) {
      case ClusterPreset::kMinimal:
        o.stereo = false;
        break;
      case ClusterPreset::kEVL6x3:
        o.stereo = true;
        o.gatherToMaster = true;
        break;
      case ClusterPreset::kHeadless:
        o.gatherToMaster = false;
        break;
    }
    return o;
  }

  ClusterOptions& withStereo(bool on) {
    stereo = on;
    return *this;
  }
  ClusterOptions& withGather(bool on) {
    gatherToMaster = on;
    return *this;
  }
  ClusterOptions& withKeepAllComposites(bool on) {
    keepAllComposites = on;
    return *this;
  }
  ClusterOptions& withNetwork(net::NetworkModel model) {
    network = model;
    return *this;
  }
  ClusterOptions& withFaults(net::FaultInjector::Plan plan) {
    faults = plan;
    return *this;
  }
  ClusterOptions& withFaultTolerance(FaultToleranceOptions ft = {
                                         .enabled = true}) {
    faultTolerance = ft;
    return *this;
  }
  ClusterOptions& withFailure(int rank, std::uint64_t atFrame) {
    failures.push_back(RankFailure{rank, atFrame});
    return *this;
  }
  ClusterOptions& withDeltaBroadcast(bool on) {
    deltaBroadcast = on;
    return *this;
  }
  ClusterOptions& withSceneCacheDrop(int rank, std::uint64_t atFrame) {
    sceneCacheDrops.push_back(SceneCacheDrop{rank, atFrame});
    return *this;
  }
  ClusterOptions& withWatchdog(double seconds) {
    watchdogSeconds = seconds;
    return *this;
  }
};

/// Per-rank accounting for one session.
struct RankStats {
  int rank = 0;
  double renderSeconds = 0.0;    ///< total time in the tile pipelines
  double barrierSeconds = 0.0;   ///< total time blocked in the swap barrier
  double gatherSeconds = 0.0;    ///< total time serializing/sending tiles
  /// Cells composited into this rank's tiles (rasterized +
  /// skipped-as-unchanged; the tile pipelines have no pixel cache).
  std::size_t cellsDrawn = 0;
  std::size_t cellsCulled = 0;
  // Incremental-pipeline breakdown of cellsDrawn:
  std::size_t cellsRasterized = 0;  ///< content changed, redrawn
  std::size_t cellsSkipped = 0;     ///< unchanged, pixels already in place
  // Fault observability:
  std::uint64_t degradedSwaps = 0;  ///< barriers that completed minus a peer
  std::uint64_t timeouts = 0;       ///< deadline windows expired in collectives
  std::uint64_t retries = 0;        ///< extra windows granted before verdicts
  int tilesOwnedAtEnd = 1;          ///< > 1 after inheriting dead ranks' tiles
  std::int64_t diedAtFrame = -1;    ///< scripted crash frame (-1 = survived)
};

/// Result of a cluster session.
struct ClusterResult {
  /// Composited wall images of the last frame (per eye; right empty when
  /// stereo is off). Present only when gathering was enabled.
  std::optional<render::Framebuffer> leftWall;
  std::optional<render::Framebuffer> rightWall;
  /// Composites of every frame when keepAllComposites (left eye only).
  std::vector<render::Framebuffer> frameComposites;
  std::vector<RankStats> rankStats;
  std::uint64_t framesRendered = 0;
  std::uint64_t messagesSent = 0;
  std::uint64_t bytesSent = 0;
  double wallClockSeconds = 0.0;
  // Scene-broadcast accounting (master's view): payload bytes of the
  // frame-state broadcasts by packet kind. Control = the per-frame resync
  // verdicts (kNone) of the delta protocol; resync full packets count
  // into broadcastBytesFull and broadcastResyncs.
  std::uint64_t broadcastBytesFull = 0;
  std::uint64_t broadcastBytesDelta = 0;
  std::uint64_t broadcastBytesControl = 0;
  std::uint64_t broadcastFramesFull = 0;
  std::uint64_t broadcastFramesDelta = 0;
  std::uint64_t broadcastResyncs = 0;
  // Fault observability (master's view):
  std::uint64_t framesCompleted = 0;   ///< frames the master composited/swapped
  std::uint64_t degradedFrames = 0;    ///< composites that used stale tiles
  std::uint64_t framesToRecovery = 0;  ///< first failure -> all-fresh composite
  std::uint64_t ranksFailed = 0;       ///< ranks declared dead
  bool aborted = false;                ///< watchdog fired / transport shut down
};

/// Runs a complete session: renders `frames` scene models over a cluster
/// with one rank per wall tile. The dataset is shared read-only by all
/// ranks (each real cluster node would hold a replica; trajectories are
/// static assets distributed once at startup).
ClusterResult runClusterSession(const traj::TrajectoryDataset& dataset,
                                const wall::WallSpec& wallSpec,
                                const std::vector<render::SceneModel>& frames,
                                const ClusterOptions& options = {});

/// Single-rank reference: renders the frames sequentially into full wall
/// images (used to validate that cluster output is pixel-identical).
render::Framebuffer renderReferenceWall(
    const traj::TrajectoryDataset& dataset, const wall::WallSpec& wallSpec,
    const render::SceneModel& scene, render::Eye eye);

/// Deterministic degraded-mode tile ownership: every rank owns its own
/// tile; dead ranks' tiles are dealt round-robin over the surviving ranks
/// in ascending rank order. All survivors compute the same assignment
/// from the same dead mask, so no extra coordination round is needed.
std::vector<int> assignedTiles(int rank, int rankCount,
                               std::uint64_t deadMask);

}  // namespace svq::cluster
