#include "cluster/clusterapp.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "cluster/scene_serde.h"
#include "net/swapsync.h"
#include "net/transport.h"
#include "render/pipeline.h"
#include "render/rasterizer.h"
#include "util/metrics.h"
#include "wall/compositor.h"

namespace svq::cluster {

std::vector<int> assignedTiles(int rank, int rankCount,
                               std::uint64_t deadMask) {
  std::vector<int> alive;
  alive.reserve(static_cast<std::size_t>(rankCount));
  for (int r = 0; r < rankCount; ++r) {
    if (!((deadMask >> r) & 1u)) alive.push_back(r);
  }
  std::vector<int> mine;
  if (((deadMask >> rank) & 1u) || alive.empty()) return mine;
  mine.push_back(rank);
  int dealt = 0;
  for (int r = 0; r < rankCount; ++r) {
    if (!((deadMask >> r) & 1u)) continue;
    if (alive[static_cast<std::size_t>(dealt) % alive.size()] == rank) {
      mine.push_back(r);
    }
    ++dealt;
  }
  return mine;
}

namespace {

/// Master-side state for stitching the wall when some tiles arrive stale.
struct CompositeState {
  std::vector<render::Framebuffer> lastGoodLeft;
  std::vector<render::Framebuffer> lastGoodRight;
  std::vector<bool> freshThisFrame;
  bool failureSeen = false;
  std::uint64_t failureFrame = 0;
  bool recovered = false;
};

/// The per-rank protocol loop.
void rankMain(int rank, net::InProcessTransport& transport,
              net::FaultInjector& injector,
              const traj::TrajectoryDataset& dataset,
              const wall::WallSpec& wallSpec,
              const std::vector<render::SceneModel>& frames,
              const ClusterOptions& options, RankStats& stats,
              ClusterResult& sharedResult) {
  net::Communicator comm(transport, rank,
                         options.faultTolerance.collectiveConfig());
  net::SwapGroup swapGroup(comm);
  stats.rank = rank;
  const int ranks = wallSpec.tileCount();

  std::int64_t dieAtFrame = -1;
  for (const RankFailure& f : options.failures) {
    if (f.rank == rank) dieAtFrame = static_cast<std::int64_t>(f.atFrame);
  }

  // Tile framebuffers keyed by tile index; a rank holds one (its own) until
  // failover hands it more. Each (tile, eye) stream gets its own
  // incremental render pipeline: the tile buffer persists across frames,
  // so unchanged cells are simply left in place. Pipelines run serially —
  // ranks are already one thread each; nesting a pool here would
  // oversubscribe the host.
  std::map<int, render::Framebuffer> left, right;
  std::map<int, render::CellRenderPipeline> pipesLeft, pipesRight;
  auto tileBuffer = [&](std::map<int, render::Framebuffer>& eye,
                        int tile) -> render::Framebuffer& {
    const RectI r = wallSpec.tileRectPx(wallSpec.tileFromIndex(tile));
    auto it = eye.find(tile);
    if (it == eye.end()) {
      it = eye.emplace(tile, render::Framebuffer(r.w, r.h)).first;
    }
    return it->second;
  };

  CompositeState composite;
  if (rank == 0 && options.gatherToMaster) {
    composite.lastGoodLeft.reserve(static_cast<std::size_t>(ranks));
    for (int t = 0; t < ranks; ++t) {
      const RectI r = wallSpec.tileRectPx(wallSpec.tileFromIndex(t));
      composite.lastGoodLeft.emplace_back(r.w, r.h);
      if (options.stereo) composite.lastGoodRight.emplace_back(r.w, r.h);
    }
    composite.freshThisFrame.assign(static_cast<std::size_t>(ranks), false);
  }

  SceneDeltaEncoder encoder;  // master only
  SceneReceiver receiver;
  MetricsRegistry& metricsReg = MetricsRegistry::global();
  Counter& metricBytesFull = metricsReg.counter("cluster.broadcast.bytes_full");
  Counter& metricBytesDelta =
      metricsReg.counter("cluster.broadcast.bytes_delta");
  Counter& metricResyncs = metricsReg.counter("cluster.broadcast.resyncs");

  auto protocol = [&] {
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (dieAtFrame >= 0 && static_cast<std::int64_t>(f) == dieAtFrame) {
        // Simulated crash: the rank vanishes before this frame's state
        // distribution. The injector makes its in-flight mail disappear
        // the way a dead process's would.
        stats.diedAtFrame = dieAtFrame;
        injector.killRank(rank);
        return;
      }

      // Scripted scene-cache loss: the rank forgets its scene before this
      // frame's state distribution, so a delta packet will be rejected.
      for (const SceneCacheDrop& drop : options.sceneCacheDrops) {
        if (drop.rank == rank && drop.atFrame == f) receiver.dropCache();
      }

      // 1. State distribution. The master serializes — only the cells
      // whose content hash changed since the last epoch when delta
      // broadcast is on — and everyone (including the master, for
      // protocol uniformity) decodes the broadcast buffer.
      net::MessageBuffer sceneBuf;
      ScenePacketKind kind = ScenePacketKind::kFull;
      if (rank == 0) {
        if (options.deltaBroadcast) {
          kind = encoder.encode(sceneBuf, frames[f]);
        } else {
          serializeSceneFull(sceneBuf, frames[f],
                             static_cast<std::uint64_t>(f) + 1);
        }
        if (kind == ScenePacketKind::kDelta) {
          sharedResult.broadcastBytesDelta += sceneBuf.size();
          ++sharedResult.broadcastFramesDelta;
          metricBytesDelta.add(sceneBuf.size());
        } else {
          sharedResult.broadcastBytesFull += sceneBuf.size();
          ++sharedResult.broadcastFramesFull;
          metricBytesFull.add(sceneBuf.size());
        }
      }
      if (!comm.broadcast(0, sceneBuf).completed()) return;
      const bool applied = receiver.apply(sceneBuf);

      // Pin this frame's tile ownership to the dead-set as converged at
      // frame start (the previous barrier's release payload). A death
      // detected later this frame — e.g. by the ack round below — takes
      // effect at frame f+1: the master composites the dead tile from its
      // last-good image for one frame (degraded) rather than racing the
      // reassignment mid-frame. Sort-first means inheriting a dead rank's
      // tile is just an extra clip rect — no data moves.
      const std::vector<int> myTiles =
          assignedTiles(rank, ranks, comm.deadMask());
      stats.tilesOwnedAtEnd = static_cast<int>(myTiles.size());

      // 1b. Delta protocol resync round: every rank acks/nacks the packet
      // it received; the master answers with a full re-send of the frame
      // if anyone was left behind (dropped cache, fresh rank), or a tiny
      // control packet if not. One collective each way keeps the ranks in
      // lockstep without the master guessing receiver state.
      if (options.deltaBroadcast) {
        net::MessageBuffer ackBuf;
        ackBuf.putU8(applied ? 1 : 0);
        std::vector<net::MessageBuffer> acks;
        if (!comm.gather(0, std::move(ackBuf), acks).completed()) return;
        net::MessageBuffer resyncBuf;
        if (rank == 0) {
          bool anyNack = false;
          for (net::MessageBuffer& a : acks) {
            if (a.size() > 0 && a.getU8() == 0) anyNack = true;
          }
          if (anyNack) {
            encoder.encodeResync(resyncBuf, frames[f]);
            ++sharedResult.broadcastResyncs;
            sharedResult.broadcastBytesFull += resyncBuf.size();
            metricBytesFull.add(resyncBuf.size());
            metricResyncs.add(1);
          } else {
            serializeSceneNone(resyncBuf, encoder.epoch());
            sharedResult.broadcastBytesControl += resyncBuf.size();
          }
        }
        if (!comm.broadcast(0, resyncBuf).completed()) return;
        receiver.apply(resyncBuf);
      }
      const render::SceneModel& scene = receiver.scene();

      // 2. Sort-first render of every owned tile, incrementally: the tile
      // framebuffer persists across frames, so the pipeline rasterizes
      // only the cells whose content changed and leaves the rest in place.
      Stopwatch renderTimer;
      std::vector<TileImage> renderedLeft, renderedRight;
      auto accumulate = [&stats](const render::PipelineStats& ps) {
        stats.cellsDrawn += ps.cellsRasterized + ps.cellsSkipped;
        stats.cellsCulled += ps.cellsCulled;
        stats.cellsRasterized += ps.cellsRasterized;
        stats.cellsSkipped += ps.cellsSkipped;
      };
      for (int tile : myTiles) {
        const RectI tileRect = wallSpec.tileRectPx(wallSpec.tileFromIndex(tile));
        render::Framebuffer& fbL = tileBuffer(left, tile);
        const render::Canvas canvas{&fbL, tileRect, {}};
        accumulate(pipesLeft[tile].render(scene, dataset, canvas,
                                          render::Eye::kLeft));
        if (options.stereo) {
          render::Framebuffer& fbR = tileBuffer(right, tile);
          const render::Canvas canvasR{&fbR, tileRect, {}};
          accumulate(pipesRight[tile].render(scene, dataset, canvasR,
                                             render::Eye::kRight));
        }
        if (options.gatherToMaster) {
          renderedLeft.push_back(TileImage{tile, fbL});
          if (options.stereo) renderedRight.push_back(TileImage{tile, right.at(tile)});
        }
      }
      stats.renderSeconds += renderTimer.elapsedSeconds();

      // 3. Swap barrier: the wall flips as one. This doubles as the
      // heartbeat — a rank that misses it through the whole retry ladder
      // is declared dead here, and the release tells the survivors.
      Stopwatch barrierTimer;
      const net::Status swapStatus = swapGroup.ready(f);
      stats.barrierSeconds += barrierTimer.elapsedSeconds();
      if (!swapStatus.completed()) return;

      // 4. Optional gather for composition/verification. Runs over the
      // post-barrier membership, so a rank declared dead this frame is no
      // longer waited for.
      if (options.gatherToMaster) {
        Stopwatch gatherTimer;
        net::MessageBuffer packetL;
        serializeTilePacket(packetL, renderedLeft);
        std::vector<net::MessageBuffer> gatheredL;
        if (!comm.gather(0, std::move(packetL), gatheredL).completed()) return;
        std::vector<net::MessageBuffer> gatheredR;
        if (options.stereo) {
          net::MessageBuffer packetR;
          serializeTilePacket(packetR, renderedRight);
          if (!comm.gather(0, std::move(packetR), gatheredR).completed()) {
            return;
          }
        }
        stats.gatherSeconds += gatherTimer.elapsedSeconds();

        if (rank == 0) {
          std::fill(composite.freshThisFrame.begin(),
                    composite.freshThisFrame.end(), false);
          // A tile index off the wall is a corrupt packet: skip that tile.
          auto onWall = [&](const TileImage& t) {
            return t.tileIndex >= 0 && t.tileIndex < ranks;
          };
          for (auto& buf : gatheredL) {
            if (buf.size() == 0) continue;  // dead rank's empty slot
            for (TileImage& t : deserializeTilePacket(buf)) {
              if (!onWall(t)) continue;
              const auto tile = static_cast<std::size_t>(t.tileIndex);
              composite.lastGoodLeft[tile] = std::move(t.image);
              composite.freshThisFrame[tile] = true;
            }
          }
          if (options.stereo) {
            for (auto& buf : gatheredR) {
              if (buf.size() == 0) continue;
              for (TileImage& t : deserializeTilePacket(buf)) {
                if (!onWall(t)) continue;
                composite.lastGoodRight[static_cast<std::size_t>(
                    t.tileIndex)] = std::move(t.image);
              }
            }
          }

          const bool allFresh =
              std::all_of(composite.freshThisFrame.begin(),
                          composite.freshThisFrame.end(),
                          [](bool fresh) { return fresh; });
          if (!allFresh) {
            ++sharedResult.degradedFrames;
            if (!composite.failureSeen) {
              composite.failureSeen = true;
              composite.failureFrame = f;
            }
          } else if (composite.failureSeen && !composite.recovered) {
            composite.recovered = true;
            sharedResult.framesToRecovery = f - composite.failureFrame;
          }

          sharedResult.leftWall =
              wall::composeActivePixels(wallSpec, composite.lastGoodLeft);
          if (options.keepAllComposites) {
            sharedResult.frameComposites.push_back(*sharedResult.leftWall);
          }
          if (options.stereo) {
            sharedResult.rightWall =
                wall::composeActivePixels(wallSpec, composite.lastGoodRight);
          }
        }
      }
      if (rank == 0) ++sharedResult.framesCompleted;
    }
  };
  protocol();

  stats.timeouts = comm.stats().timeouts;
  stats.retries = comm.stats().retries;
  stats.degradedSwaps = swapGroup.degradedSwaps();
  if (rank == 0) {
    sharedResult.ranksFailed =
        static_cast<std::uint64_t>(std::popcount(comm.deadMask()));
  }
}

}  // namespace

ClusterResult runClusterSession(const traj::TrajectoryDataset& dataset,
                                const wall::WallSpec& wallSpec,
                                const std::vector<render::SceneModel>& frames,
                                const ClusterOptions& options) {
  ClusterResult result;
  const int ranks = wallSpec.tileCount();
  net::InProcessTransport transport(ranks, options.network);
  net::FaultInjector injector(options.faults);
  transport.setFaultInjector(&injector);
  result.rankStats.resize(static_cast<std::size_t>(ranks));

  // Watchdog: lets a deliberately non-fault-tolerant session with a dead
  // rank be recovered (shutdown + aborted flag) instead of hanging the
  // caller — the measurable "old API wedges the wall" baseline.
  std::mutex watchdogMutex;
  std::condition_variable watchdogCv;
  bool sessionDone = false;
  bool watchdogFired = false;
  std::thread watchdog;
  if (options.watchdogSeconds > 0.0) {
    watchdog = std::thread([&] {
      std::unique_lock lock(watchdogMutex);
      const bool finished = watchdogCv.wait_for(
          lock, std::chrono::duration<double>(options.watchdogSeconds),
          [&] { return sessionDone; });
      if (!finished) {
        watchdogFired = true;
        transport.shutdown();
      }
    });
  }

  Stopwatch wallClock;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      rankMain(r, transport, injector, dataset, wallSpec, frames, options,
               result.rankStats[static_cast<std::size_t>(r)], result);
    });
  }
  for (auto& t : threads) t.join();
  {
    std::lock_guard lock(watchdogMutex);
    sessionDone = true;
    result.aborted = watchdogFired;
  }
  watchdogCv.notify_all();
  if (watchdog.joinable()) watchdog.join();
  transport.shutdown();

  result.wallClockSeconds = wallClock.elapsedSeconds();
  result.framesRendered = frames.size();
  result.messagesSent = transport.messagesSent();
  result.bytesSent = transport.bytesSent();
  return result;
}

render::Framebuffer renderReferenceWall(const traj::TrajectoryDataset& dataset,
                                        const wall::WallSpec& wallSpec,
                                        const render::SceneModel& scene,
                                        render::Eye eye) {
  render::Framebuffer fb(wallSpec.totalPxW(), wallSpec.totalPxH());
  const render::Canvas canvas = render::Canvas::whole(fb);
  // Render through the cell pipeline (cold, serial) so the reference has
  // the same cell-clipped semantics as the cluster ranks.
  render::CellRenderPipeline pipeline;
  pipeline.render(scene, dataset, canvas, eye);
  return fb;
}

}  // namespace svq::cluster
