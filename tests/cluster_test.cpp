// Tests for the cluster rendering substrate: scene/framebuffer wire
// round-trips and the headline integration property — a sort-first
// cluster render is pixel-identical to the single-rank reference.
#include "cluster/clusterapp.h"
#include "cluster/scene_serde.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>

#include "core/session.h"
#include "traj/synth.h"

// Largest single operator-new request since the last reset. The decoder
// tests use it to show that a forged count or size never reaches the
// allocator.
namespace {
std::atomic<std::size_t> gLargestAlloc{0};
}  // namespace

// The new and both deletes stay out of line, so the compiler never pairs
// a malloc or free it can see with the matching delete or new.
[[gnu::noinline]] void* operator new(std::size_t n) {
  std::size_t seen = gLargestAlloc.load(std::memory_order_relaxed);
  while (n > seen && !gLargestAlloc.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace svq::cluster {
namespace {

traj::TrajectoryDataset makeDataset(std::size_t n = 60) {
  traj::AntSimulator sim({}, 321);
  traj::DatasetSpec spec;
  spec.count = n;
  return sim.generate(spec);
}

/// Small wall (cheap pixels) with the same 2-row structure as the paper's.
wall::WallSpec smallWall(int cols = 3, int rows = 2) {
  wall::TileSpec tile;
  tile.pxW = 120;
  tile.pxH = 80;
  tile.activeWmm = 240.0f;
  tile.activeHmm = 160.0f;
  return wall::WallSpec(tile, cols, rows);
}

render::SceneModel makeScene(const traj::TrajectoryDataset& ds,
                             const wall::WallSpec& w) {
  core::Session app(core::SharedContext::create(ds, w));
  app.apply(ui::LayoutSwitchEvent{0});
  app.apply(ui::BrushStrokeEvent{0, {-20.0f, 0.0f}, 15.0f});
  return app.buildScene();
}

TEST(SceneSerdeTest, SceneRoundTrip) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const render::SceneModel scene = makeScene(ds, w);

  net::MessageBuffer buf;
  serializeScene(buf, scene);
  buf.rewind();
  const render::SceneModel restored = deserializeScene(buf);

  ASSERT_EQ(restored.cells.size(), scene.cells.size());
  for (std::size_t i = 0; i < scene.cells.size(); ++i) {
    EXPECT_EQ(restored.cells[i].trajectoryIndex,
              scene.cells[i].trajectoryIndex);
    EXPECT_EQ(restored.cells[i].rect, scene.cells[i].rect);
    EXPECT_EQ(restored.cells[i].background, scene.cells[i].background);
    EXPECT_EQ(restored.cells[i].segmentHighlights,
              scene.cells[i].segmentHighlights);
    EXPECT_EQ(restored.cells[i].label, scene.cells[i].label);
  }
  EXPECT_FLOAT_EQ(restored.stereo.timeScaleCmPerS,
                  scene.stereo.timeScaleCmPerS);
  EXPECT_FLOAT_EQ(restored.arenaRadiusCm, scene.arenaRadiusCm);
  EXPECT_EQ(restored.timeWindow, scene.timeWindow);
  EXPECT_EQ(restored.drawArenaOutline, scene.drawArenaOutline);
}

TEST(SceneSerdeTest, RenderedOutputIdenticalAfterRoundTrip) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const render::SceneModel scene = makeScene(ds, w);
  net::MessageBuffer buf;
  serializeScene(buf, scene);
  buf.rewind();
  const render::SceneModel restored = deserializeScene(buf);
  const auto a = renderReferenceWall(ds, w, scene, render::Eye::kLeft);
  const auto b = renderReferenceWall(ds, w, restored, render::Eye::kLeft);
  EXPECT_EQ(a.contentHash(), b.contentHash());
}

TEST(SceneSerdeTest, FramebufferRoundTrip) {
  render::Framebuffer fb(17, 9);
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 17; ++x) {
      fb.at(x, y) = render::Color{static_cast<std::uint8_t>(x * 13),
                                  static_cast<std::uint8_t>(y * 29),
                                  static_cast<std::uint8_t>((x + y) * 7),
                                  255};
    }
  }
  net::MessageBuffer buf;
  serializeFramebuffer(buf, fb);
  buf.rewind();
  const render::Framebuffer restored = deserializeFramebuffer(buf);
  EXPECT_EQ(restored.width(), 17);
  EXPECT_EQ(restored.height(), 9);
  EXPECT_EQ(restored.contentHash(), fb.contentHash());
}

TEST(SceneSerdeTest, CorruptFramebufferPayloadThrows) {
  net::MessageBuffer buf;
  buf.putI32(4);
  buf.putI32(4);
  buf.putBytes(std::vector<std::uint8_t>{1, 2, 3});  // wrong size
  buf.rewind();
  EXPECT_THROW(deserializeFramebuffer(buf), net::MessageError);
}

/// Decodes `bytes` with `decode` and expects a MessageError before any
/// allocation larger than the packet itself (or a page, which covers the
/// exception and the test's own bookkeeping).
template <typename Decode>
void expectRejectedWithoutLargeAllocation(std::vector<std::uint8_t> bytes,
                                          Decode decode) {
  const std::size_t packetBytes = bytes.size();
  net::MessageBuffer buf(std::move(bytes));
  gLargestAlloc.store(0);
  EXPECT_THROW(decode(buf), net::MessageError);
  EXPECT_LE(gLargestAlloc.load(), std::max<std::size_t>(packetBytes, 4096));
}

std::vector<std::uint8_t> forgedCountPacket(std::uint32_t count) {
  net::MessageBuffer buf;
  buf.putU32(count);
  for (int i = 0; i < 64; ++i) buf.putU32(0);
  return buf.bytes();
}

TEST(SceneSerdeTest, ForgedCountsThrowWithoutAllocating) {
  constexpr std::uint32_t kForged = 1u << 31;
  expectRejectedWithoutLargeAllocation(
      forgedCountPacket(kForged),
      [](net::MessageBuffer& b) { deserializeScene(b); });
  expectRejectedWithoutLargeAllocation(
      forgedCountPacket(kForged),
      [](net::MessageBuffer& b) { deserializeTilePacket(b); });

  // One cell whose segment-highlight count is forged.
  net::MessageBuffer cell;
  cell.putU32(1);            // cell count
  cell.putU32(0);            // trajectory index
  cell.putRect({0, 0, 10, 10});
  cell.putU32(0xffffffffu);  // background color
  cell.putU32(kForged);      // segment highlights
  for (int i = 0; i < 64; ++i) cell.putU32(0);
  expectRejectedWithoutLargeAllocation(
      cell.bytes(), [](net::MessageBuffer& b) { deserializeScene(b); });
}

TEST(SceneSerdeTest, ForgedFramebufferDimensionsThrowWithoutAllocating) {
  struct Dims {
    std::int32_t w, h;
    std::uint32_t payload;
  };
  const Dims cases[] = {
      {-1, 4, 0},               // negative width
      {4, -1, 0},               // negative height
      {-2, -2, 16},             // negative, yet w*h*4 matches the payload
      {1 << 20, 1 << 20, 16},   // 4 TiB of pixels claimed
      {65536, 16384, 0},        // w*h*4 = 2^32: zero if computed in 32 bits
      {0x7fffffff, 1, 64},      // oversized width
  };
  for (const Dims& d : cases) {
    net::MessageBuffer buf;
    buf.putI32(d.w);
    buf.putI32(d.h);
    buf.putBytes(std::vector<std::uint8_t>(d.payload, 0));
    expectRejectedWithoutLargeAllocation(
        buf.bytes(), [](net::MessageBuffer& b) { deserializeFramebuffer(b); });
  }
}

std::vector<TileImage> patternedTiles(int w, int h, int count) {
  std::vector<TileImage> tiles;
  for (int t = 0; t < count; ++t) {
    render::Framebuffer fb(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        fb.at(x, y) = render::Color{static_cast<std::uint8_t>(x * 7 + t),
                                    static_cast<std::uint8_t>(y * 11),
                                    static_cast<std::uint8_t>(x ^ y), 255};
      }
    }
    tiles.push_back({t + 3, std::move(fb)});
  }
  return tiles;
}

TEST(SceneSerdeTest, TruncatedTilePacketsThrow) {
  net::MessageBuffer whole;
  serializeTilePacket(whole, patternedTiles(5, 3, 2));
  const std::vector<std::uint8_t>& bytes = whole.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    SCOPED_TRACE(cut);
    expectRejectedWithoutLargeAllocation(
        std::vector<std::uint8_t>(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut)),
        [](net::MessageBuffer& b) { deserializeTilePacket(b); });
  }
}

TEST(SceneSerdeTest, PaperTileSizePacketRoundTripsBitIdentically) {
  const std::vector<TileImage> tiles = patternedTiles(1366, 768, 2);
  net::MessageBuffer buf;
  serializeTilePacket(buf, tiles);
  buf.rewind();
  const std::vector<TileImage> restored = deserializeTilePacket(buf);
  EXPECT_EQ(buf.remaining(), 0u);
  ASSERT_EQ(restored.size(), tiles.size());
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    EXPECT_EQ(restored[i].tileIndex, tiles[i].tileIndex);
    EXPECT_EQ(restored[i].image.width(), 1366);
    EXPECT_EQ(restored[i].image.height(), 768);
    EXPECT_EQ(restored[i].image.contentHash(), tiles[i].image.contentHash());
  }
}

TEST(SceneSerdeTest, DecodeOverStaleRecycledStorageEqualsTheSentImage) {
  const std::vector<TileImage> sent = patternedTiles(1366, 768, 1);
  net::MessageBuffer buf;
  serializeTilePacket(buf, sent);
  buf.rewind();
  // Park a magenta tile's storage: the decoder takes it, stale pixels and
  // all, and its copy must overwrite every one.
  const render::Color* parked = nullptr;
  {
    const render::Framebuffer stale(1366, 768,
                                    render::Color{255, 0, 255, 255});
    parked = stale.pixels().data();
  }
  const std::vector<TileImage> restored = deserializeTilePacket(buf);
  ASSERT_EQ(restored.size(), 1u);
  const render::Framebuffer& got = restored.front().image;
  EXPECT_EQ(got.pixels().data(), parked) << "storage was not reused";
  EXPECT_EQ(got.width(), 1366);
  EXPECT_EQ(got.height(), 768);
  EXPECT_TRUE(got.pixels() == sent.front().image.pixels());
}

TEST(SceneSerdeTest, BracedListPacketEqualsVectorPacket) {
  const std::vector<TileImage> tiles = patternedTiles(1366, 768, 2);
  net::MessageBuffer fromVector;
  serializeTilePacket(fromVector, tiles);
  net::MessageBuffer fromList;
  serializeTilePacket(fromList, {tiles[0], tiles[1]});
  EXPECT_TRUE(fromList.bytes() == fromVector.bytes());

  // The single-tile form a render rank ships each target in.
  net::MessageBuffer one;
  serializeTilePacket(one, {TileImage{tiles[0].tileIndex, tiles[0].image}});
  net::MessageBuffer oneFromVector;
  serializeTilePacket(oneFromVector, std::vector<TileImage>{tiles[0]});
  EXPECT_TRUE(one.bytes() == oneFromVector.bytes());
}

class ClusterRenderTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ClusterRenderTest, MatchesSingleRankReference) {
  const auto [cols, rows] = GetParam();
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall(cols, rows);
  const render::SceneModel scene = makeScene(ds, w);

  ClusterOptions options;
  options.stereo = true;
  options.gatherToMaster = true;
  const ClusterResult result = runClusterSession(ds, w, {scene}, options);

  ASSERT_TRUE(result.leftWall.has_value());
  ASSERT_TRUE(result.rightWall.has_value());
  const auto refLeft = renderReferenceWall(ds, w, scene, render::Eye::kLeft);
  const auto refRight =
      renderReferenceWall(ds, w, scene, render::Eye::kRight);
  EXPECT_EQ(result.leftWall->contentHash(), refLeft.contentHash())
      << cols << "x" << rows << " left eye mismatch";
  EXPECT_EQ(result.rightWall->contentHash(), refRight.contentHash())
      << cols << "x" << rows << " right eye mismatch";
}

INSTANTIATE_TEST_SUITE_P(WallShapes, ClusterRenderTest,
                         ::testing::Values(std::make_pair(1, 1),
                                           std::make_pair(2, 1),
                                           std::make_pair(3, 2),
                                           std::make_pair(6, 2)));

TEST(ClusterSessionTest, StatsAccounting) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const render::SceneModel scene = makeScene(ds, w);
  const ClusterResult result =
      runClusterSession(ds, w, {scene, scene, scene}, ClusterOptions{});
  EXPECT_EQ(result.framesRendered, 3u);
  EXPECT_EQ(result.rankStats.size(), static_cast<std::size_t>(w.tileCount()));
  for (const RankStats& rs : result.rankStats) {
    EXPECT_GE(rs.renderSeconds, 0.0);
    EXPECT_GT(rs.cellsDrawn + rs.cellsCulled, 0u);
  }
  EXPECT_GT(result.messagesSent, 0u);
  EXPECT_GT(result.bytesSent, 0u);
}

TEST(ClusterSessionTest, MonoModeSkipsRightEye) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const render::SceneModel scene = makeScene(ds, w);
  ClusterOptions options;
  options.stereo = false;
  const ClusterResult result = runClusterSession(ds, w, {scene}, options);
  ASSERT_TRUE(result.leftWall.has_value());
  EXPECT_FALSE(result.rightWall.has_value());
}

TEST(ClusterSessionTest, NoGatherLeavesNoComposite) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const render::SceneModel scene = makeScene(ds, w);
  ClusterOptions options;
  options.gatherToMaster = false;
  const ClusterResult result = runClusterSession(ds, w, {scene}, options);
  EXPECT_FALSE(result.leftWall.has_value());
}

TEST(ClusterSessionTest, KeepAllCompositesRetainsFrames) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall(2, 1);
  const render::SceneModel scene = makeScene(ds, w);
  ClusterOptions options;
  options.keepAllComposites = true;
  options.stereo = false;
  const ClusterResult result =
      runClusterSession(ds, w, {scene, scene}, options);
  EXPECT_EQ(result.frameComposites.size(), 2u);
  EXPECT_EQ(result.frameComposites[0].contentHash(),
            result.frameComposites[1].contentHash());
}

TEST(ClusterSessionTest, MultiFrameEvolvingScenes) {
  // Scenes differ across frames (brush grows); cluster output for the
  // final frame must match the final scene's reference.
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall(2, 2);
  core::Session app(core::SharedContext::create(ds, w));
  app.apply(ui::LayoutSwitchEvent{0});
  std::vector<render::SceneModel> frames;
  for (int f = 0; f < 4; ++f) {
    app.apply(ui::BrushStrokeEvent{
        0, {-20.0f + 10.0f * static_cast<float>(f), 0.0f}, 8.0f});
    frames.push_back(app.buildScene());
  }
  ClusterOptions options;
  options.stereo = false;
  const ClusterResult result = runClusterSession(ds, w, frames, options);
  ASSERT_TRUE(result.leftWall.has_value());
  const auto ref =
      renderReferenceWall(ds, w, frames.back(), render::Eye::kLeft);
  EXPECT_EQ(result.leftWall->contentHash(), ref.contentHash());
}

TEST(ClusterSessionTest, CullingDistributesWork) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall(3, 1);
  const render::SceneModel scene = makeScene(ds, w);
  ClusterOptions options;
  options.stereo = false;
  options.gatherToMaster = false;
  const ClusterResult result = runClusterSession(ds, w, {scene}, options);
  // Each rank culls the cells of the other tiles (parallax pad may keep a
  // borderline neighbour, so require only that *some* culling happened).
  std::size_t totalCulled = 0;
  for (const RankStats& rs : result.rankStats) totalCulled += rs.cellsCulled;
  EXPECT_GT(totalCulled, 0u);
}

TEST(TileAssignmentTest, HealthyClusterOwnsOwnTiles) {
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(assignedTiles(r, 6, 0), std::vector<int>{r});
  }
}

TEST(TileAssignmentTest, DeadTilesDealtRoundRobinOverSurvivors) {
  const std::uint64_t dead = (1ULL << 2) | (1ULL << 4);
  // Survivors in ascending order: 0,1,3,5. Dead tiles 2 then 4 are dealt
  // to survivors 0 then 1.
  EXPECT_EQ(assignedTiles(0, 6, dead), (std::vector<int>{0, 2}));
  EXPECT_EQ(assignedTiles(1, 6, dead), (std::vector<int>{1, 4}));
  EXPECT_EQ(assignedTiles(3, 6, dead), std::vector<int>{3});
  EXPECT_EQ(assignedTiles(5, 6, dead), std::vector<int>{5});
  EXPECT_TRUE(assignedTiles(2, 6, dead).empty());
  EXPECT_TRUE(assignedTiles(4, 6, dead).empty());
}

TEST(TileAssignmentTest, AssignmentPartitionsTheWall) {
  // Every tile owned exactly once, for every dead-set.
  const int n = 8;
  for (std::uint64_t dead = 0; dead < (1ULL << n); dead += 37) {
    if (std::popcount(dead) == n) continue;  // nobody left
    std::vector<int> owners(n, 0);
    for (int r = 0; r < n; ++r) {
      for (int tile : assignedTiles(r, n, dead)) ++owners[tile];
    }
    for (int t = 0; t < n; ++t) {
      ASSERT_EQ(owners[t], 1) << "tile " << t << " dead-set " << dead;
    }
  }
}

TEST(ClusterFaultTest, KilledRankDegradesThenRecoversPixelComplete) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall(3, 2);
  const render::SceneModel scene = makeScene(ds, w);
  const std::vector<render::SceneModel> frames(6, scene);

  FaultToleranceOptions ft;
  ft.enabled = true;
  ft.heartbeatTimeoutSeconds = 0.1;
  ft.retries = 1;
  const ClusterOptions options =
      ClusterOptions::preset(ClusterPreset::kMinimal)
          .withKeepAllComposites(true)
          .withFaultTolerance(ft)
          .withFailure(/*rank=*/3, /*atFrame=*/2);

  const ClusterResult result = runClusterSession(ds, w, frames, options);

  // The session completes instead of wedging.
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.framesCompleted, frames.size());
  EXPECT_EQ(result.ranksFailed, 1u);
  EXPECT_EQ(result.rankStats[3].diedAtFrame, 2);

  // The wall degraded while the failure was detected, then recovered
  // within the bound (the frame after detection re-renders the tile).
  EXPECT_GE(result.degradedFrames, 1u);
  EXPECT_LE(result.degradedFrames, 2u);
  EXPECT_GE(result.framesToRecovery, 1u);
  EXPECT_LE(result.framesToRecovery, 3u);

  // Some survivor inherited the dead rank's tile.
  int inherited = 0;
  for (const RankStats& rs : result.rankStats) {
    if (rs.diedAtFrame < 0 && rs.tilesOwnedAtEnd > 1) ++inherited;
  }
  EXPECT_EQ(inherited, 1);

  // Pixel story: bit-identical to the reference before the failure, and —
  // because the scene is static, so the last-good tile equals the live
  // tile — on every degraded frame and after recovery too. No black tile,
  // ever.
  const auto ref = renderReferenceWall(ds, w, scene, render::Eye::kLeft);
  ASSERT_EQ(result.frameComposites.size(), frames.size());
  for (std::size_t f = 0; f < result.frameComposites.size(); ++f) {
    EXPECT_EQ(result.frameComposites[f].contentHash(), ref.contentHash())
        << "frame " << f;
  }
}

TEST(ClusterFaultTest, WithoutFaultToleranceWatchdogAbortsWedgedSession) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall(3, 2);
  const render::SceneModel scene = makeScene(ds, w);
  const std::vector<render::SceneModel> frames(6, scene);

  // Same failure, but the collectives block forever (classic bool-era
  // semantics): the swap barrier wedges on the dead rank and only the
  // watchdog gets the session back.
  const ClusterOptions options = ClusterOptions::preset(ClusterPreset::kMinimal)
                                     .withFailure(/*rank=*/3, /*atFrame=*/2)
                                     .withWatchdog(2.5);

  const ClusterResult result = runClusterSession(ds, w, frames, options);
  EXPECT_TRUE(result.aborted);
  EXPECT_LT(result.framesCompleted, frames.size());
}

TEST(ClusterFaultTest, InterconnectDelayOnlySlowsTheSession) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall(2, 1);
  const render::SceneModel scene = makeScene(ds, w);

  net::FaultInjector::Plan plan;
  plan.delayProbability = 1.0;
  plan.delaySeconds = 0.005;
  FaultToleranceOptions ft;
  ft.enabled = true;
  ft.heartbeatTimeoutSeconds = 1.0;  // far above the injected delay
  const ClusterOptions options = ClusterOptions::preset(ClusterPreset::kMinimal)
                                     .withFaults(plan)
                                     .withFaultTolerance(ft);

  const ClusterResult result = runClusterSession(ds, w, {scene}, options);
  EXPECT_EQ(result.framesCompleted, 1u);
  EXPECT_EQ(result.degradedFrames, 0u);
  ASSERT_TRUE(result.leftWall.has_value());
  const auto ref = renderReferenceWall(ds, w, scene, render::Eye::kLeft);
  EXPECT_EQ(result.leftWall->contentHash(), ref.contentHash());
}

// --- delta scene broadcast ---------------------------------------------------

TEST(SceneDeltaSerdeTest, FullThenDeltaRoundTrip) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const render::SceneModel sceneA = makeScene(ds, w);
  render::SceneModel sceneB = sceneA;
  sceneB.cells[3].segmentHighlights.assign(20, static_cast<std::int8_t>(0));

  SceneDeltaEncoder encoder;
  net::MessageBuffer full;
  EXPECT_EQ(encoder.encode(full, sceneA), ScenePacketKind::kFull);
  net::MessageBuffer delta;
  EXPECT_EQ(encoder.encode(delta, sceneB), ScenePacketKind::kDelta);
  // One dirty cell out of many: the delta is a small fraction of the full
  // packet.
  EXPECT_LT(delta.size(), full.size() / 2);

  SceneReceiver receiver;
  full.rewind();
  EXPECT_TRUE(receiver.apply(full));
  EXPECT_EQ(receiver.epoch(), 1u);
  delta.rewind();
  EXPECT_TRUE(receiver.apply(delta));
  EXPECT_EQ(receiver.epoch(), 2u);

  // The patched scene renders pixel-identically to the original.
  const auto ref = renderReferenceWall(ds, w, sceneB, render::Eye::kLeft);
  const auto got =
      renderReferenceWall(ds, w, receiver.scene(), render::Eye::kLeft);
  EXPECT_EQ(got.contentHash(), ref.contentHash());
}

TEST(SceneDeltaSerdeTest, DeltaRejectedWithoutMatchingBase) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const render::SceneModel sceneA = makeScene(ds, w);
  render::SceneModel sceneB = sceneA;
  sceneB.cells[0].label = "changed";

  SceneDeltaEncoder encoder;
  net::MessageBuffer full;
  encoder.encode(full, sceneA);
  net::MessageBuffer delta;
  ASSERT_EQ(encoder.encode(delta, sceneB), ScenePacketKind::kDelta);

  // A fresh receiver (no base epoch) must reject the delta...
  SceneReceiver fresh;
  delta.rewind();
  EXPECT_FALSE(fresh.apply(delta));
  EXPECT_FALSE(fresh.hasScene());

  // ...as must one that held the base but dropped its cache.
  SceneReceiver dropped;
  full.rewind();
  EXPECT_TRUE(dropped.apply(full));
  dropped.dropCache();
  delta.rewind();
  EXPECT_FALSE(dropped.apply(delta));

  // The resync full packet repairs both.
  net::MessageBuffer resync;
  encoder.encodeResync(resync, sceneB);
  resync.rewind();
  EXPECT_TRUE(fresh.apply(resync));
  EXPECT_EQ(fresh.epoch(), encoder.epoch());
  EXPECT_EQ(fresh.scene().cells[0].label, "changed");
}

TEST(SceneDeltaSerdeTest, SceneWideChangeFallsBackToFullPacket) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const render::SceneModel sceneA = makeScene(ds, w);
  render::SceneModel sceneB = sceneA;
  sceneB.timeWindow = {1.0f, 30.0f};  // dirties every cell's pixels

  SceneDeltaEncoder encoder;
  net::MessageBuffer b1, b2;
  encoder.encode(b1, sceneA);
  EXPECT_EQ(encoder.encode(b2, sceneB), ScenePacketKind::kFull);
}

TEST(SceneDeltaSerdeTest, TruncatedDeltaLeavesReceiverUntouched) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const render::SceneModel sceneA = makeScene(ds, w);
  render::SceneModel sceneB = sceneA;
  sceneB.cells[1].segmentHighlights.assign(20, static_cast<std::int8_t>(0));
  sceneB.cells[4].label = "patched";
  sceneB.queryGeneration = sceneA.queryGeneration + 5;

  SceneDeltaEncoder encoder;
  net::MessageBuffer full, delta;
  encoder.encode(full, sceneA);
  ASSERT_EQ(encoder.encode(delta, sceneB), ScenePacketKind::kDelta);

  const auto sceneBytes = [](const render::SceneModel& scene) {
    net::MessageBuffer buf;
    serializeScene(buf, scene);
    return buf.bytes();
  };
  SceneReceiver receiver;
  full.rewind();
  ASSERT_TRUE(receiver.apply(full));
  const std::vector<std::uint8_t> base = sceneBytes(receiver.scene());
  const std::uint64_t baseEpoch = receiver.epoch();

  // Every proper prefix fails — by throwing or by returning false — and
  // leaves neither new scene fields nor some of the changed cells behind.
  const std::vector<std::uint8_t>& bytes = delta.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    net::MessageBuffer prefix(std::vector<std::uint8_t>(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)));
    bool applied = false;
    try {
      applied = receiver.apply(prefix);
    } catch (const net::MessageError&) {
    }
    EXPECT_FALSE(applied) << "prefix of " << cut << " bytes";
    ASSERT_EQ(sceneBytes(receiver.scene()), base)
        << "prefix of " << cut << " bytes";
    ASSERT_EQ(receiver.epoch(), baseEpoch) << "prefix of " << cut << " bytes";
  }

  delta.rewind();
  EXPECT_TRUE(receiver.apply(delta));
  EXPECT_EQ(receiver.epoch(), encoder.epoch());
  EXPECT_EQ(sceneBytes(receiver.scene()), sceneBytes(sceneB));
}

/// Evolving interactive session: one brush dab per frame.
std::vector<render::SceneModel> makeEvolvingFrames(
    const traj::TrajectoryDataset& ds, const wall::WallSpec& w,
    std::size_t frames) {
  core::Session app(core::SharedContext::create(ds, w));
  app.apply(ui::LayoutSwitchEvent{0});
  app.apply(ui::BrushStrokeEvent{0, {-20.0f, 0.0f}, 15.0f});
  std::vector<render::SceneModel> out;
  out.push_back(app.buildScene());
  for (std::size_t f = 1; f < frames; ++f) {
    app.apply(ui::BrushStrokeEvent{0,
                                   {-20.0f + 4.0f * static_cast<float>(f),
                                    5.0f * static_cast<float>(f % 3)},
                                   4.0f});
    out.push_back(app.buildScene());
  }
  return out;
}

TEST(ClusterDeltaTest, DeltaSessionPixelIdenticalToFullSession) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const auto frames = makeEvolvingFrames(ds, w, 5);

  ClusterOptions deltaOn = ClusterOptions::preset(ClusterPreset::kMinimal)
                               .withKeepAllComposites(true);
  ClusterOptions deltaOff = ClusterOptions::preset(ClusterPreset::kMinimal)
                                .withKeepAllComposites(true)
                                .withDeltaBroadcast(false);
  const ClusterResult a = runClusterSession(ds, w, frames, deltaOn);
  const ClusterResult b = runClusterSession(ds, w, frames, deltaOff);

  EXPECT_GT(a.broadcastFramesDelta, 0u);
  EXPECT_EQ(a.broadcastResyncs, 0u);
  EXPECT_EQ(b.broadcastFramesDelta, 0u);
  ASSERT_EQ(a.frameComposites.size(), frames.size());
  ASSERT_EQ(b.frameComposites.size(), frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    EXPECT_EQ(a.frameComposites[f].contentHash(),
              b.frameComposites[f].contentHash())
        << "frame " << f;
    const auto ref = renderReferenceWall(ds, w, frames[f], render::Eye::kLeft);
    EXPECT_EQ(a.frameComposites[f].contentHash(), ref.contentHash())
        << "frame " << f << " vs reference";
  }
}

TEST(ClusterDeltaTest, DeltaFramesShrinkBroadcastBytes) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const auto frames = makeEvolvingFrames(ds, w, 6);

  const ClusterResult r = runClusterSession(
      ds, w, frames, ClusterOptions::preset(ClusterPreset::kMinimal));
  ASSERT_GT(r.broadcastFramesDelta, 0u);
  ASSERT_GT(r.broadcastFramesFull, 0u);
  const double avgDelta = static_cast<double>(r.broadcastBytesDelta) /
                          static_cast<double>(r.broadcastFramesDelta);
  const double avgFull = static_cast<double>(r.broadcastBytesFull) /
                         static_cast<double>(r.broadcastFramesFull);
  // A one-dab frame touches a handful of the layout's cells.
  EXPECT_LT(avgDelta, avgFull * 0.5);
}

TEST(ClusterDeltaTest, CacheDropForcesResyncAndStaysPixelComplete) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall();
  const auto frames = makeEvolvingFrames(ds, w, 4);

  const ClusterResult r = runClusterSession(
      ds, w, frames,
      ClusterOptions::preset(ClusterPreset::kMinimal)
          .withKeepAllComposites(true)
          .withSceneCacheDrop(2, 2));
  EXPECT_GE(r.broadcastResyncs, 1u);
  ASSERT_EQ(r.frameComposites.size(), frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const auto ref = renderReferenceWall(ds, w, frames[f], render::Eye::kLeft);
    EXPECT_EQ(r.frameComposites[f].contentHash(), ref.contentHash())
        << "frame " << f;
  }
}

TEST(ClusterDeltaTest, KilledRankWithDeltaBroadcastRecoversPixelComplete) {
  const auto ds = makeDataset();
  const wall::WallSpec w = smallWall(3, 1);
  const auto frames = makeEvolvingFrames(ds, w, 6);

  FaultToleranceOptions ft;
  ft.enabled = true;
  ft.heartbeatTimeoutSeconds = 0.1;
  ft.retries = 1;
  const ClusterResult r =
      runClusterSession(ds, w, frames,
                        ClusterOptions::preset(ClusterPreset::kMinimal)
                            .withKeepAllComposites(true)
                            .withFaultTolerance(ft)
                            .withFailure(/*rank=*/2, /*atFrame=*/1));
  EXPECT_EQ(r.ranksFailed, 1u);
  EXPECT_EQ(r.framesCompleted, frames.size());
  ASSERT_EQ(r.frameComposites.size(), frames.size());
  // Frames before the kill and after recovery are bit-identical to the
  // reference; degraded frames composite the dead tile from its last-good
  // image (stale by exactly the frames the scene evolved while degraded).
  const auto ref0 = renderReferenceWall(ds, w, frames[0], render::Eye::kLeft);
  EXPECT_EQ(r.frameComposites[0].contentHash(), ref0.contentHash());
  const auto refLast =
      renderReferenceWall(ds, w, frames.back(), render::Eye::kLeft);
  EXPECT_EQ(r.frameComposites.back().contentHash(), refLast.contentHash());
}

}  // namespace
}  // namespace svq::cluster
