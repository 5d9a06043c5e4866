// Tests for the multi-tenant layer: SessionService admission/backpressure,
// per-tenant isolation (interleaved == serial, bit-identical), session
// fork copy-on-write (no aliased mutable buffers), the cross-session
// render cache's key discipline, and the unified status surface shared by
// core::Status / net::Status / io::Status.
#include "core/sessionservice.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/snapshot.h"
#include "net/status.h"
#include "render/pipeline.h"
#include "render/sharedcache.h"
#include "traj/synth.h"
#include "util/clock.h"
#include "util/io.h"
#include "util/metrics.h"

namespace svq::core {
namespace {

traj::TrajectoryDataset makeDataset(std::size_t n = 120) {
  traj::AntSimulator sim({}, 909);
  traj::DatasetSpec spec;
  spec.count = n;
  return sim.generate(spec);
}

wall::WallSpec smallWall() {
  return wall::WallSpec(wall::TileSpec{160, 96, 320.0f, 192.0f, 2.0f}, 6, 2);
}

/// A distinct per-tenant event stream (brush spot and window vary by id).
std::vector<ui::Event> tenantScript(std::size_t id) {
  const float x = -30.0f + 8.0f * static_cast<float>(id % 8);
  // emplace_back builds each event in place: a temporary ui::Event copied
  // in makes GCC 12 report the GroupDefineEvent alternative's fields as
  // maybe-uninitialized.
  std::vector<ui::Event> ev;
  ev.emplace_back(ui::LayoutSwitchEvent{1});
  ev.emplace_back(ui::BrushStrokeEvent{0, {x, 0.0f}, 9.0f});
  ui::GroupDefineEvent g;
  g.groupId = static_cast<std::uint8_t>(id);
  g.cellRect = {static_cast<int>(id % 6) * 4, 0, 4, 3};
  ev.emplace_back(g);
  ev.emplace_back(ui::PageEvent{+1});
  ev.emplace_back(ui::BrushStrokeEvent{1, {x, 10.0f}, 6.0f});
  ev.emplace_back(ui::TimeWindowEvent{0.0f, 40.0f + static_cast<float>(id)});
  ev.emplace_back(ui::DepthOffsetEvent{-4.0f});
  return ev;
}

std::uint64_t renderHash(const render::SceneModel& scene,
                         const traj::TrajectoryDataset& ds,
                         const wall::WallSpec& w,
                         render::SharedCellCache* shared = nullptr) {
  render::Framebuffer fb(w.totalPxW(), w.totalPxH());
  render::PipelineOptions opt;
  opt.sharedCache = shared;
  render::CellRenderPipeline pipe(opt);
  pipe.render(scene, ds, render::Canvas::whole(fb), render::Eye::kCenter);
  return fb.contentHash();
}

// --- admission & backpressure ----------------------------------------------

TEST(SessionServiceTest, AdmissionOverCapacityIsTypedRejection) {
  const auto ds = makeDataset();
  const auto ctx = SharedContext::create(ds, smallWall());
  SessionService::Options opt;
  opt.maxSessions = 3;
  SessionService svc(ctx, opt);

  std::vector<SessionId> ids;
  for (int i = 0; i < 3; ++i) {
    const auto a = svc.admit();
    ASSERT_TRUE(a.status.isOk()) << a.status.message();
    ids.push_back(a.id);
  }
  const auto refused = svc.admit();
  EXPECT_TRUE(refused.status.isAtCapacity());
  EXPECT_TRUE(refused.status.isRetryable());
  EXPECT_EQ(refused.status.message(), "AtCapacity");
  EXPECT_EQ(svc.activeSessions(), 3u);

  // Closing one seat frees it for the next explorer.
  EXPECT_TRUE(svc.close(ids[0]).isOk());
  EXPECT_TRUE(svc.admit().status.isOk());
  // Double-close and unknown ids are typed too.
  const Status gone = svc.close(ids[0]);
  EXPECT_TRUE(gone.isUnknownSession());
  EXPECT_EQ(gone.detail(), static_cast<std::int64_t>(ids[0]));
}

TEST(SessionServiceTest, QueueFullIsBackpressureAndDropsNothingSilently) {
  const auto ds = makeDataset();
  const auto ctx = SharedContext::create(ds, smallWall());
  SessionService::Options opt;
  opt.eventQueueDepth = 4;
  SessionService svc(ctx, opt);
  const auto a = svc.admit();
  ASSERT_TRUE(a.status.isOk());

  const ui::Event dab = ui::BrushStrokeEvent{0, {0.0f, 0.0f}, 5.0f};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(svc.submit(a.id, dab).isOk());
  }
  const Status full = svc.submit(a.id, dab);
  EXPECT_TRUE(full.isBackpressure());
  EXPECT_TRUE(full.isRetryable());
  EXPECT_EQ(svc.queuedEvents(a.id), 4u);

  // Drain applies exactly the admitted 4, then the queue accepts again.
  std::size_t applied = 0;
  EXPECT_TRUE(svc.drain(a.id, &applied).isOk());
  EXPECT_EQ(applied, 4u);
  EXPECT_EQ(svc.queuedEvents(a.id), 0u);
  EXPECT_TRUE(svc.submit(a.id, dab).isOk());
}

TEST(SessionServiceTest, ShutdownIsTypedAndTerminal) {
  const auto ds = makeDataset();
  const auto ctx = SharedContext::create(ds, smallWall());
  SessionService svc(ctx);
  const auto a = svc.admit();
  ASSERT_TRUE(a.status.isOk());
  svc.shutdown();
  EXPECT_TRUE(svc.admit().status.isShutdown());
  EXPECT_TRUE(
      svc.apply(a.id, ui::Event{ui::PageEvent{+1}}).isShutdown());
  EXPECT_EQ(svc.activeSessions(), 0u);
}

TEST(SessionServiceTest, UnknownSessionIsTyped) {
  const auto ds = makeDataset();
  SessionService svc(SharedContext::create(ds, smallWall()));
  render::SceneModel scene;
  EXPECT_TRUE(svc.buildScene(99, scene).isUnknownSession());
  EXPECT_TRUE(svc.drain(99).isUnknownSession());
  const Status st = svc.submit(99, ui::Event{ui::PageEvent{+1}});
  EXPECT_TRUE(st.isUnknownSession());
  EXPECT_EQ(st.message(), "UnknownSession(session=99)");
}

TEST(SessionServiceTest, InvalidEventIsRejectedNotLost) {
  const auto ds = makeDataset();
  SessionService svc(SharedContext::create(ds, smallWall()));
  const auto a = svc.admit();
  ASSERT_TRUE(a.status.isOk());
  // Preset 9 does not exist: apply reports kRejected but the tenant lives.
  EXPECT_TRUE(svc.apply(a.id, ui::Event{ui::LayoutSwitchEvent{9}})
                  .isRejected());
  EXPECT_TRUE(svc.apply(a.id, ui::Event{ui::LayoutSwitchEvent{2}}).isOk());
}

// --- per-session isolation --------------------------------------------------

TEST(SessionServiceTest, InterleavedEightWayMatchesSerialBitIdentical) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  constexpr std::size_t kTenants = 8;

  // Serial ground truth: each tenant alone, private context, no shared
  // render cache.
  std::vector<std::uint64_t> truth(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    Session solo(SharedContext::create(ds, w));
    for (const ui::Event& e : tenantScript(t)) solo.apply(e);
    truth[t] = renderHash(solo.buildScene(), ds, w);
  }

  // Interleaved: all 8 through one service over one context, events
  // round-robin, shared cache on for the renders.
  const auto ctx = SharedContext::create(ds, w);
  SessionService svc(ctx);
  std::vector<SessionId> ids;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const auto a = svc.admit();
    ASSERT_TRUE(a.status.isOk());
    ids.push_back(a.id);
  }
  std::vector<std::vector<ui::Event>> scripts;
  std::size_t longest = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    scripts.push_back(tenantScript(t));
    longest = std::max(longest, scripts.back().size());
  }
  for (std::size_t e = 0; e < longest; ++e) {
    for (std::size_t t = 0; t < kTenants; ++t) {
      if (e < scripts[t].size()) (void)svc.apply(ids[t], scripts[t][e]);
    }
  }
  for (std::size_t t = 0; t < kTenants; ++t) {
    render::SceneModel scene;
    ASSERT_TRUE(svc.buildScene(ids[t], scene).isOk());
    EXPECT_EQ(renderHash(scene, ds, w, &ctx->renderCache()), truth[t])
        << "tenant " << t << " wall differs from its serial replay";
  }
}

TEST(SessionServiceTest, ConcurrentTenantsSurviveAndStayConsistent) {
  const auto ds = makeDataset();
  const auto ctx = SharedContext::create(ds, smallWall());
  SessionService svc(ctx);
  constexpr std::size_t kTenants = 8;
  std::vector<SessionId> ids;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const auto a = svc.admit();
    ASSERT_TRUE(a.status.isOk());
    ids.push_back(a.id);
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kTenants; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (const ui::Event& e : tenantScript(t)) {
          const Status st = (t % 2 == 0) ? svc.apply(ids[t], e)
                                         : svc.submit(ids[t], e);
          if (!st.isOk() && !st.isRejected()) failed.store(true);
        }
        if (t % 2 == 1 && !svc.drain(ids[t]).isOk()) failed.store(true);
        render::SceneModel scene;
        if (!svc.buildScene(ids[t], scene).isOk()) failed.store(true);
      }
    });
  }
  for (auto& wkr : workers) wkr.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(svc.activeSessions(), kTenants);
}

// --- fork / copy-on-write ---------------------------------------------------

TEST(SessionForkTest, ForkedSessionsDoNotAliasMutableBuffers) {
  const auto ds = makeDataset();
  const auto ctx = SharedContext::create(ds, smallWall());
  Session a(ctx);
  a.apply(ui::Event{ui::BrushStrokeEvent{0, {0.0f, 0.0f}, 8.0f}});
  ui::GroupDefineEvent g;
  g.groupId = 1;
  g.cellRect = {0, 0, 4, 3};
  a.apply(ui::Event{g});

  Session b = a.fork();
  // Forked state starts equal...
  ASSERT_EQ(b.brush().strokes().size(), 1u);
  ASSERT_EQ(b.groups().groups().size(), 1u);

  // ...and writes on the child detach: the parent's buffers are
  // physically different objects afterwards, not shared storage.
  b.apply(ui::Event{ui::BrushStrokeEvent{1, {15.0f, 0.0f}, 6.0f}});
  EXPECT_NE(&a.brush(), &b.brush());
  EXPECT_NE(a.brush().strokes().data(), b.brush().strokes().data());
  EXPECT_NE(a.brush().grid().texels().data(), b.brush().grid().texels().data());
  EXPECT_EQ(a.brush().strokes().size(), 1u);
  EXPECT_EQ(b.brush().strokes().size(), 2u);

  ui::GroupDefineEvent g2;
  g2.groupId = 2;
  g2.cellRect = {12, 0, 4, 3};
  b.apply(ui::Event{g2});
  EXPECT_NE(&a.groups(), &b.groups());
  EXPECT_EQ(a.groups().groups().size(), 1u);
  EXPECT_EQ(b.groups().groups().size(), 2u);

  // Writes on the parent after the detach stay private too.
  a.apply(ui::Event{ui::BrushClearEvent{255}});
  EXPECT_TRUE(a.brush().empty());
  EXPECT_EQ(b.brush().strokes().size(), 2u);

  // Both still evaluate independently end-to-end; b's extra group gives
  // it a different (larger) populated-cell set than a's.
  const auto sceneA = a.buildScene();
  const auto sceneB = b.buildScene();
  EXPECT_GT(sceneA.cells.size(), 0u);
  EXPECT_GT(sceneB.cells.size(), sceneA.cells.size());
}

TEST(SessionForkTest, ExplicitClonesOwnTheirStorage) {
  BrushCanvas canvas(50.0f);
  canvas.addStroke({0, {0.0f, 0.0f}, 5.0f});
  const BrushCanvas copy = canvas.clone();
  EXPECT_NE(copy.grid().texels().data(), canvas.grid().texels().data());
  EXPECT_NE(copy.strokes().data(), canvas.strokes().data());
  EXPECT_EQ(copy.strokes().size(), canvas.strokes().size());

  GroupManager groups;
  TrajectoryGroup g;
  g.id = 3;
  g.cellRect = {0, 0, 2, 2};
  g.name = "bin";
  ASSERT_TRUE(groups.define(g, 24, 6));
  GroupManager dup = groups.clone();
  EXPECT_NE(dup.groups().data(), groups.groups().data());
  ASSERT_NE(dup.find(3), nullptr);
  dup.find(3)->pageOffset = 7;
  EXPECT_EQ(groups.find(3)->pageOffset, 0u);
}

TEST(SessionForkTest, SnapshotRoundTripsThroughForkedSession) {
  const auto ds = makeDataset();
  const auto ctx = SharedContext::create(ds, smallWall());
  Session a(ctx);
  a.apply(ui::Event{ui::BrushStrokeEvent{0, {-10.0f, 5.0f}, 7.0f}});
  a.apply(ui::Event{ui::TimeWindowEvent{2.0f, 80.0f}});
  Session b = a.fork();
  ASSERT_TRUE(restoreSnapshot(b, saveSnapshot(a)));
  EXPECT_EQ(b.brush().strokes().size(), a.brush().strokes().size());
  EXPECT_FLOAT_EQ(b.timeWindow().lo(), 2.0f);
  // The restore detached b's buffers; a is untouched.
  EXPECT_NE(a.brush().grid().texels().data(), b.brush().grid().texels().data());
}

// --- shared render cache: key discipline ------------------------------------

TEST(SharedCacheTest, CrossSessionHitNeverYieldsAnotherTenantsPixels) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const auto ctx = SharedContext::create(ds, w);

  // Tenant A and tenant B diverge in brush state; tenant C matches A
  // exactly. Render A first (populating the cache), then B and C through
  // the same cache.
  Session a(ctx);
  a.apply(ui::Event{ui::BrushStrokeEvent{0, {-20.0f, 0.0f}, 10.0f}});
  Session b(ctx);
  b.apply(ui::Event{ui::BrushStrokeEvent{0, {20.0f, 0.0f}, 10.0f}});
  Session c(ctx);
  c.apply(ui::Event{ui::BrushStrokeEvent{0, {-20.0f, 0.0f}, 10.0f}});

  // Solo ground truths, no cache anywhere.
  const std::uint64_t soloA = renderHash(a.buildScene(), ds, w);
  const std::uint64_t soloB = renderHash(b.buildScene(), ds, w);
  const std::uint64_t soloC = renderHash(c.buildScene(), ds, w);
  ASSERT_EQ(soloA, soloC);  // identical state = identical wall
  ASSERT_NE(soloA, soloB);  // different brush = different wall

  render::SharedCellCache& cache = ctx->renderCache();
  EXPECT_EQ(renderHash(a.buildScene(), ds, w, &cache), soloA);
  const auto statsAfterA = cache.stats();
  EXPECT_GT(statsAfterA.inserts, 0u);

  // B shares the un-highlighted cells with A but must never receive A's
  // highlighted ones: the content key covers the highlight set.
  EXPECT_EQ(renderHash(b.buildScene(), ds, w, &cache), soloB);
  // C is pixel-identical to A; its render should be served largely from
  // A's rasterizations, and still be bit-identical to its solo wall.
  const auto before = cache.stats();
  EXPECT_EQ(renderHash(c.buildScene(), ds, w, &cache), soloC);
  const auto after = cache.stats();
  EXPECT_GT(after.crossHits, before.crossHits);
}

TEST(SharedCacheTest, DimensionMismatchNeverServesAnEntry) {
  render::SharedCellCache cache(1 << 20);
  const std::uint64_t clientA = cache.registerClient();
  const std::uint64_t clientB = cache.registerClient();
  auto fb = std::make_shared<render::Framebuffer>(8, 4);
  cache.insert(42, fb, clientA);
  EXPECT_EQ(cache.find(42, 8, 4, clientB).get(), fb.get());
  EXPECT_EQ(cache.find(42, 4, 8, clientB), nullptr);
  EXPECT_EQ(cache.find(42, 8, 8, clientB), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.crossHits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(SharedCacheTest, EvictsLruToBudgetAndZeroBudgetDisables) {
  // Budget of ~2 entries of 16x16 RGBA.
  const std::size_t entryBytes = 16 * 16 * 4;
  render::SharedCellCache cache(2 * entryBytes);
  const std::uint64_t client = cache.registerClient();
  for (std::uint64_t k = 0; k < 3; ++k) {
    cache.insert(k, std::make_shared<render::Framebuffer>(16, 16), client);
  }
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.find(0, 16, 16, client), nullptr);  // oldest evicted
  EXPECT_NE(cache.find(2, 16, 16, client), nullptr);

  render::SharedCellCache off(0);
  off.insert(7, std::make_shared<render::Framebuffer>(16, 16), client);
  EXPECT_EQ(off.entries(), 0u);
  EXPECT_EQ(off.find(7, 16, 16, client), nullptr);
}

// --- unified status surface -------------------------------------------------

TEST(StatusSurfaceTest, ThreeFamiliesShareOneFormattingContract) {
  // core::Status
  EXPECT_EQ(Status::ok().message(), "Ok");
  EXPECT_EQ(Status::backpressure(7).message(), "Backpressure(session=7)");
  EXPECT_EQ(Status::atCapacity().message(), "AtCapacity");
  // net::Status
  EXPECT_EQ(net::Status::ok().message(), "Ok");
  EXPECT_EQ(net::Status::timeout(3).message(), "Timeout(rank=3)");
  // io::Status
  EXPECT_EQ(io::Status::ok().message(), "Ok");

  // worse() folds by severity in every family.
  EXPECT_TRUE(worse(Status::ok(), Status::backpressure(1)).isBackpressure());
  EXPECT_TRUE(worse(Status::shutdown(), Status::rejected(1)).isShutdown());
  EXPECT_TRUE(net::worse(net::Status::ok(), net::Status::timeout(1)).isTimeout());

  // Compile-time: all three satisfy the shared concept.
  static_assert(util::StatusLike<Status>);
  static_assert(util::StatusLike<net::Status>);
  static_assert(util::StatusLike<io::Status>);
}

// --- overload: health controller, deadlines, shedding, coalescing -----------

/// A clock whose every read jumps far forward: any deadline created
/// against it is already expired by its first expiry check — the
/// deterministic way to drive the kDeadlineExceeded path without timers.
class JumpingClock final : public util::Clock {
 public:
  explicit JumpingClock(std::int64_t stepUs) : stepUs_(stepUs) {}
  std::int64_t nowUs() const override {
    return now_.fetch_add(stepUs_, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::int64_t> now_{0};
  std::int64_t stepUs_;
};

TEST(OverloadTest, DepthCrossingEscalatesAndShedsTypedWithRetryHint) {
  const auto ds = makeDataset();
  const auto ctx = SharedContext::create(ds, smallWall());
  util::ManualClock clock;
  SessionService::Options opt;
  opt.shedQueueDepth = 4;
  opt.healthWindow = 2;
  opt.retryAfterMs = 40;
  opt.clock = &clock;
  SessionService svc(ctx, opt);

  const auto victim = svc.admit();
  const auto noisy = svc.admit();
  ASSERT_TRUE(victim.status.isOk());
  ASSERT_TRUE(noisy.status.isOk());
  EXPECT_EQ(svc.health(), SessionService::Health::kHealthy);

  // Two queued events reach half the threshold: Degraded, immediately.
  ASSERT_TRUE(svc.submit(noisy.id, ui::TimeScaleEvent{0.5f}).isOk());
  ASSERT_TRUE(svc.submit(noisy.id, ui::TimeWindowEvent{0.0f, 50.0f}).isOk());
  EXPECT_EQ(svc.health(), SessionService::Health::kDegraded);

  // Crossing the full threshold: Shedding, immediately. (Four distinct
  // event kinds so the recovery drain below coalesces nothing away.)
  ASSERT_TRUE(svc.submit(noisy.id, ui::DepthOffsetEvent{-1.0f}).isOk());
  ASSERT_TRUE(
      svc.submit(noisy.id, ui::BrushStrokeEvent{0, {0.0f, 0.0f}, 5.0f})
          .isOk());
  EXPECT_EQ(svc.health(), SessionService::Health::kShedding);
  EXPECT_EQ(svc.queuedEventsTotal(), 4u);

  // New work — the victim's interactive apply AND further submits — is
  // refused with the typed verdict carrying the pacing hint.
  const Status shedApply = svc.apply(victim.id, ui::DepthOffsetEvent{-1.0f});
  EXPECT_TRUE(shedApply.isOverloaded()) << shedApply.message();
  EXPECT_EQ(shedApply.retryAfterMs, 40u);
  EXPECT_TRUE(shedApply.isRetryable());
  const Status shedSubmit = svc.submit(victim.id, ui::DepthOffsetEvent{-1.0f});
  EXPECT_TRUE(shedSubmit.isOverloaded());
  EXPECT_EQ(svc.queuedEventsTotal(), 4u) << "refused submit must not enqueue";

  // Draining is always allowed — it is how the node recovers — and each
  // drained event ticks the evaluation window, so a drained backlog walks
  // health back one level per window: Shedding -> Degraded -> Healthy.
  std::size_t applied = 0;
  ASSERT_TRUE(svc.drain(noisy.id, &applied).isOk());
  EXPECT_EQ(applied, 4u);
  EXPECT_EQ(svc.queuedEventsTotal(), 0u);
  EXPECT_EQ(svc.health(), SessionService::Health::kHealthy);

  // Recovered: the victim's apply lands again.
  EXPECT_TRUE(svc.apply(victim.id, ui::DepthOffsetEvent{-2.0f}).isOk());
}

TEST(OverloadTest, CloseIsAllowedWhileSheddingAndCollapsesDepth) {
  const auto ds = makeDataset();
  const auto ctx = SharedContext::create(ds, smallWall());
  util::ManualClock clock;
  SessionService::Options opt;
  opt.shedQueueDepth = 2;
  opt.healthWindow = 2;
  opt.clock = &clock;
  SessionService svc(ctx, opt);

  const auto a = svc.admit();
  const auto b = svc.admit();
  ASSERT_TRUE(svc.submit(b.id, ui::TimeScaleEvent{0.5f}).isOk());
  ASSERT_TRUE(svc.submit(b.id, ui::TimeWindowEvent{0.0f, 50.0f}).isOk());
  ASSERT_EQ(svc.health(), SessionService::Health::kShedding);

  // Closing sheds load, so no health state refuses it; the victim's
  // queue dies with it and the aggregate depth collapses.
  EXPECT_TRUE(svc.close(b.id).isOk());
  EXPECT_EQ(svc.queuedEventsTotal(), 0u);

  // The next applies tick the window; within two windows the node is
  // Healthy again (the first attempts may still be refused — typed, not
  // wedged).
  Status last = Status::ok();
  for (int i = 0; i < 2 * 2; ++i) {
    last = svc.apply(a.id, ui::DepthOffsetEvent{static_cast<float>(-i)});
  }
  EXPECT_TRUE(last.isOk()) << last.message();
  EXPECT_EQ(svc.health(), SessionService::Health::kHealthy);
}

TEST(OverloadTest, ExhaustedDeadlineRefusesSyncEventAndPreservesBacklog) {
  const auto ds = makeDataset();
  const auto ctx = SharedContext::create(ds, smallWall());
  JumpingClock clock(1000);  // every read jumps 1ms: any budget expires
  SessionService::Options opt;
  opt.applyDeadlineUs = 100;
  opt.clock = &clock;
  SessionService svc(ctx, opt);

  const auto a = svc.admit();
  ASSERT_TRUE(a.status.isOk());
  ASSERT_TRUE(svc.submit(a.id, ui::TimeScaleEvent{0.75f}).isOk());
  ASSERT_TRUE(svc.submit(a.id, ui::TimeWindowEvent{0.0f, 30.0f}).isOk());
  // A painted brush forces buildScene() below through the deadline-checked
  // query evaluation (an empty brush skips evaluation entirely).
  ASSERT_TRUE(
      svc.submit(a.id, ui::BrushStrokeEvent{0, {0.0f, 0.0f}, 6.0f}).isOk());

  // The budget is gone before the backlog's first pop: the synchronous
  // event is refused kDeadlineExceeded and the backlog is untouched —
  // refused, never torn, never silently dropped.
  const Status refused = svc.apply(a.id, ui::BrushClearEvent{255});
  EXPECT_TRUE(refused.isDeadlineExceeded()) << refused.message();
  EXPECT_TRUE(refused.isRetryable());
  EXPECT_EQ(svc.queuedEvents(a.id), 3u);

  // drain() carries no deadline (it is the recovery path): the same
  // backlog applies fully.
  std::size_t applied = 0;
  ASSERT_TRUE(svc.drain(a.id, &applied).isOk());
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(svc.queuedEvents(a.id), 0u);

  // buildScene under the same jumping clock refuses over-budget builds
  // typed, with the session intact for the next attempt.
  render::SceneModel scene;
  const Status build = svc.buildScene(a.id, scene);
  EXPECT_TRUE(build.isDeadlineExceeded()) << build.message();
}

TEST(OverloadTest, DegradedCoalescingIsLosslessForFinalState) {
  const auto ds = makeDataset();
  const auto ctx = SharedContext::create(ds, smallWall());

  // Degraded node: 8 queued events reach half of shedQueueDepth=16.
  util::ManualClock clock;
  SessionService::Options opt;
  opt.shedQueueDepth = 16;
  opt.clock = &clock;
  SessionService coalescing(ctx, opt);
  SessionService reference(ctx);  // no overload machinery at all

  const std::vector<ui::Event> backlog = {
      ui::BrushStrokeEvent{0, {-20.0f, 0.0f}, 9.0f},
      ui::TimeWindowEvent{0.0f, 30.0f},   // superseded
      ui::BrushStrokeEvent{1, {5.0f, 5.0f}, 6.0f},  // cleared below
      ui::TimeWindowEvent{0.0f, 60.0f},   // superseded
      ui::BrushClearEvent{1},
      ui::TimeWindowEvent{0.0f, 90.0f},   // the one that matters
      ui::DepthOffsetEvent{-2.0f},        // superseded
      ui::DepthOffsetEvent{-5.0f},
  };

  const auto a = coalescing.admit();
  const auto r = reference.admit();
  for (const ui::Event& e : backlog) {
    ASSERT_TRUE(coalescing.submit(a.id, e).isOk());
  }
  ASSERT_EQ(coalescing.health(), SessionService::Health::kDegraded);

  const auto before =
      MetricsRegistry::global().snapshot("sessions.events_coalesced");
  ASSERT_TRUE(coalescing.apply(a.id, ui::BrushStrokeEvent{2, {10.0f, -10.0f}, 7.0f}).isOk());
  const auto after =
      MetricsRegistry::global().snapshot("sessions.events_coalesced");
  EXPECT_GE(after.at("sessions.events_coalesced") -
                before.at("sessions.events_coalesced"),
            4u)
      << "two window scrubs, one depth offset and one cleared stroke "
         "should coalesce away";

  // The reference tenant applies every event uncoalesced; both must land
  // on bit-identical scenes — coalescing is latest-wins, lossless.
  for (const ui::Event& e : backlog) {
    ASSERT_TRUE(reference.apply(r.id, e).isOk());
  }
  ASSERT_TRUE(reference.apply(r.id, ui::BrushStrokeEvent{2, {10.0f, -10.0f}, 7.0f}).isOk());

  render::SceneModel coalesced, uncoalesced;
  ASSERT_TRUE(coalescing.buildScene(a.id, coalesced).isOk());
  ASSERT_TRUE(reference.buildScene(r.id, uncoalesced).isOk());
  EXPECT_EQ(renderHash(coalesced, ds, smallWall()),
            renderHash(uncoalesced, ds, smallWall()));
}

TEST(OverloadTest, HooksSeeRefusalsAsWellAsAcceptedTraffic) {
  const auto ds = makeDataset();
  const auto ctx = SharedContext::create(ds, smallWall());
  util::ManualClock clock;
  SessionService::Options opt;
  opt.eventQueueDepth = 1;
  opt.shedQueueDepth = 2;
  opt.clock = &clock;
  SessionService svc(ctx, opt);

  std::vector<StatusCode> seen;
  SessionService::Hooks hooks;
  hooks.onEvent = [&](SessionId, const ui::Event&, const Status& s) {
    seen.push_back(s.code);
  };
  svc.setHooks(std::move(hooks));

  const auto a = svc.admit();
  const auto b = svc.admit();
  ASSERT_TRUE(svc.submit(a.id, ui::PageEvent{1}).isOk());     // accepted
  EXPECT_TRUE(svc.submit(a.id, ui::PageEvent{1}).isBackpressure());  // full
  ASSERT_TRUE(svc.submit(b.id, ui::PageEvent{1}).isOk());     // accepted
  ASSERT_EQ(svc.health(), SessionService::Health::kShedding);  // depth 2
  EXPECT_TRUE(svc.apply(b.id, ui::PageEvent{1}).isOverloaded());  // shed

  const std::vector<StatusCode> expected = {
      StatusCode::kOk, StatusCode::kBackpressure, StatusCode::kOk,
      StatusCode::kOverloaded};
  EXPECT_EQ(seen, expected)
      << "every refusal must be hook-visible: replay has to re-see it";
}

TEST(OverloadTest, FromEnvRejectsGarbageAndKeepsDefaults) {
  const auto withEnv = [](const char* name, const char* value,
                          const auto& check) {
    ASSERT_EQ(setenv(name, value, 1), 0);
    const SessionService::Options opt = SessionService::Options::fromEnv();
    unsetenv(name);
    check(opt);
  };

  // Valid values land (deadline converts ms -> us).
  withEnv("SVQ_APPLY_DEADLINE_MS", "7", [](const auto& o) {
    EXPECT_EQ(o.applyDeadlineUs, 7000u);
  });
  withEnv("SVQ_SHED_P99_US", "1234", [](const auto& o) {
    EXPECT_EQ(o.shedP99Us, 1234u);
  });
  withEnv("SVQ_MAX_SESSIONS", "9", [](const auto& o) {
    EXPECT_EQ(o.maxSessions, 9u);
  });

  // Garbage, zero and negative values are rejected; the compiled default
  // is kept (a typo must never silently disarm a safety knob).
  const SessionService::Options defaults;
  withEnv("SVQ_APPLY_DEADLINE_MS", "banana", [&](const auto& o) {
    EXPECT_EQ(o.applyDeadlineUs, defaults.applyDeadlineUs);
  });
  withEnv("SVQ_APPLY_DEADLINE_MS", "0", [&](const auto& o) {
    EXPECT_EQ(o.applyDeadlineUs, defaults.applyDeadlineUs);
  });
  withEnv("SVQ_APPLY_DEADLINE_MS", "-3", [&](const auto& o) {
    EXPECT_EQ(o.applyDeadlineUs, defaults.applyDeadlineUs);
  });
  withEnv("SVQ_SHED_P99_US", "12abc", [&](const auto& o) {
    EXPECT_EQ(o.shedP99Us, defaults.shedP99Us);
  });
  withEnv("SVQ_MAX_SESSIONS", "0", [&](const auto& o) {
    EXPECT_EQ(o.maxSessions, defaults.maxSessions);
  });
  withEnv("SVQ_SESSION_QUEUE_DEPTH", "999999999999999999999",
          [&](const auto& o) {
            EXPECT_EQ(o.eventQueueDepth, defaults.eventQueueDepth);
          });
}

}  // namespace
}  // namespace svq::core
