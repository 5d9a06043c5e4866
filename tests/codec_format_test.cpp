// Pins the bytes of every persisted and wire format: SVQT datasets, SVQS
// shard stores (v2 and v3), SVQR recordings, session snapshots, scene and
// tile packets, and UI events. Each input is fixed and seeded; each check
// compares the encoding's size and CRC32C with a constant recorded from a
// known-good build. The round-trip suites still pass when a format drifts
// (encoder and decoder drift together); this suite fails instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cluster/scene_serde.h"
#include "core/snapshot.h"
#include "net/message.h"
#include "replay/recording.h"
#include "replay/scenarios.h"
#include "traj/io_binary.h"
#include "traj/shardstore.h"
#include "traj/synth.h"
#include "ui/events.h"
#include "util/io.h"
#include "util/rng.h"

namespace svq {
namespace {

struct Print {
  std::size_t size = 0;
  std::uint32_t crc = 0;
  bool operator==(const Print&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Print& p) {
  return os << "{" << p.size << ", 0x" << std::hex << p.crc << std::dec
            << "u}";
}

template <typename Bytes>
Print printOf(const Bytes& bytes) {
  return {bytes.size(), io::crc32c(bytes.data(), bytes.size())};
}

Print printOf(const net::MessageBuffer& buf) { return printOf(buf.bytes()); }

/// A dataset built from seeded uniform draws with plain arithmetic, so its
/// floats do not depend on the math library.
traj::TrajectoryDataset fixedDataset(std::size_t count) {
  Rng rng(0xC0DECULL);
  traj::TrajectoryDataset ds(traj::ArenaSpec{48.5f});
  for (std::size_t i = 0; i < count; ++i) {
    traj::TrajectoryMeta meta;
    meta.id = static_cast<std::uint32_t>(100 + i);
    meta.side = static_cast<traj::CaptureSide>(i % 3);
    meta.direction = static_cast<traj::JourneyDirection>(i % 2);
    meta.seed = static_cast<traj::SeedState>(i % 3);
    std::vector<traj::TrajPoint> points(3 + rng.next() % 9);
    float t = 0.0f;
    for (traj::TrajPoint& p : points) {
      t += 0.25f + static_cast<float>(rng.uniform());
      p.t = t;
      p.pos = {static_cast<float>(rng.uniform() * 90.0 - 45.0),
               static_cast<float>(rng.uniform() * 90.0 - 45.0)};
    }
    ds.add(traj::Trajectory(meta, points));
  }
  return ds;
}

std::vector<char> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

Print shardStorePrint(std::uint32_t version) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("svq_codec_format_v" + std::to_string(version) + ".svqs"))
          .string();
  EXPECT_TRUE(writeShardStore(fixedDataset(11), path, 4, version));
  const Print print = printOf(readAll(path));
  std::filesystem::remove(path);
  return print;
}

render::CellView fixedCell(std::uint32_t index) {
  render::CellView cell;
  cell.trajectoryIndex = 7 * index + 3;
  cell.rect = {static_cast<int>(40 * index), 12, 38, 30};
  cell.background = {static_cast<std::uint8_t>(10 + index), 20, 30, 255};
  cell.segmentHighlights = {-1, 0, 1, static_cast<std::int8_t>(index), -1};
  cell.label = std::to_string(index);
  cell.label.insert(0, 1, 'C');
  cell.coverage = 0.75f;
  return cell;
}

render::SceneModel fixedScene() {
  render::SceneModel scene;
  for (std::uint32_t i = 0; i < 4; ++i) scene.cells.push_back(fixedCell(i));
  scene.stereo.timeScaleCmPerS = 0.4f;
  scene.stereo.depthOffsetCm = -8.0f;
  scene.arenaRadiusCm = 48.5f;
  scene.timeWindow = {5.0f, 90.0f};
  scene.style.halfWidthPx = 1.5f;
  scene.queryGeneration = 42;
  scene.drawCellBorder = false;
  scene.wallBackground = {1, 2, 3, 255};
  return scene;
}

std::vector<ui::Event> oneEventOfEachKind() {
  ui::GroupDefineEvent group;
  group.groupId = 3;
  group.cellRect = {1, 2, 6, 4};
  group.filter.side = traj::CaptureSide::kSouth;
  group.filter.direction = traj::JourneyDirection::kReturning;
  group.filter.seed = traj::SeedState::kCarrying;
  group.filter.minDurationS = 2.5f;
  group.filter.maxDurationS = 60.0f;
  group.colorIndex = 2;
  group.name = "east returners";
  return {ui::BrushStrokeEvent{1, {-20.0f, 5.0f}, 12.0f},
          ui::BrushClearEvent{255},
          ui::TimeWindowEvent{5.0f, 90.0f},
          ui::DepthOffsetEvent{-8.0f},
          ui::TimeScaleEvent{0.4f},
          ui::LayoutSwitchEvent{2},
          group,
          ui::GroupClearEvent{3},
          ui::PageEvent{-1}};
}

TEST(CodecFormatTest, SvqtDataset) {
  EXPECT_EQ(printOf(traj::toBinary(fixedDataset(11))),
            (Print{1133, 0xe6a9c299u}));
}

TEST(CodecFormatTest, SvqsStoreV2AndV3) {
  EXPECT_EQ(shardStorePrint(traj::kShardFormatV2),
            (Print{1465, 0x1d49f517u}));
  EXPECT_EQ(shardStorePrint(traj::kShardFormatCurrent),
            (Print{1633, 0x64291b3fu}));
}

TEST(CodecFormatTest, SvqrScenarios) {
  EXPECT_EQ(printOf(replay::scenarios::canonical().serialize()),
            (Print{603, 0x9a2a8410u}));
  EXPECT_EQ(printOf(replay::scenarios::overloadSoak().serialize()),
            (Print{5143, 0x69ddf687u}));
}

replay::Recording progressiveRecording() {
  replay::Recording rec;
  rec.world.trajectoryCount = 300;
  rec.world.progressive.shardCapacity = 64;
  rec.world.progressive.somRows = 4;
  rec.world.progressive.somCols = 5;
  const ui::Event dab = ui::BrushStrokeEvent{0, {3.0f, -4.0f}, 9.0f};
  const ui::Event page = ui::PageEvent{1};
  rec.admit(0, 0.0);
  rec.event(0, 0.5, dab, "dab");
  rec.refine(0, 0.75, 6);
  rec.refineRefused(0, 1.0, 2, 3);
  rec.refused(0, 1.25, page, 3);
  rec.close(0, 1.5);
  return rec;
}

TEST(CodecFormatTest, SvqrProgressivePlanAndRefineStep) {
  EXPECT_EQ(printOf(progressiveRecording().serialize()),
            (Print{255, 0x50d0e7c0u}));
}

TEST(CodecFormatTest, SnapshotOfRichSession) {
  traj::AntSimulator sim({}, 606);
  traj::DatasetSpec spec;
  spec.count = 150;
  const traj::TrajectoryDataset ds = sim.generate(spec);
  core::Session session(core::SharedContext::create(
      ds, wall::WallSpec(wall::TileSpec{160, 96, 320.0f, 192.0f, 2.0f}, 6, 2)));
  session.apply(ui::LayoutSwitchEvent{2});
  core::defineFigure3Groups(session.groups(), 36, 12);
  session.refreshAssignment();
  session.groups().page(2, +1, session.dataset());
  session.apply(ui::BrushStrokeEvent{0, {-20.0f, 5.0f}, 12.0f});
  session.apply(ui::BrushStrokeEvent{1, {0.0f, 0.0f}, 8.0f});
  session.apply(ui::TimeWindowEvent{5.0f, 90.0f});
  session.apply(ui::DepthOffsetEvent{-8.0f});
  session.apply(ui::TimeScaleEvent{0.4f});
  session.refreshAssignment();
  EXPECT_EQ(printOf(core::saveSnapshot(session)),
            (Print{245, 0x57cfc81bu}));
}

TEST(CodecFormatTest, ScenePackets) {
  const render::SceneModel scene = fixedScene();
  net::MessageBuffer full;
  cluster::serializeSceneFull(full, scene, 9);
  EXPECT_EQ(printOf(full), (Print{243, 0x350a98acu}));

  render::SceneModel next = scene;
  next.cells[1].segmentHighlights[2] = 2;
  next.cells[1].label = "changed";
  next.queryGeneration = 43;
  net::MessageBuffer delta;
  cluster::serializeSceneDelta(delta, next, {1}, 10, 9);
  EXPECT_EQ(printOf(delta), (Print{135, 0x7bf6e38cu}));

  net::MessageBuffer none;
  cluster::serializeSceneNone(none, 11);
  EXPECT_EQ(printOf(none), (Print{9, 0xcf0b3171u}));
}

TEST(CodecFormatTest, TwoTilePacket) {
  std::vector<cluster::TileImage> tiles(2);
  tiles[0].tileIndex = 0;
  tiles[0].image = render::Framebuffer(5, 3, {9, 8, 7, 255});
  tiles[1].tileIndex = 3;
  tiles[1].image = render::Framebuffer(4, 2);
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 4; ++x) {
      tiles[1].image.at(x, y) = {static_cast<std::uint8_t>(x * 40),
                                 static_cast<std::uint8_t>(y * 90), 5, 200};
    }
  }
  net::MessageBuffer buf;
  cluster::serializeTilePacket(buf, tiles);
  EXPECT_EQ(printOf(buf), (Print{128, 0xef118a17u}));
}

TEST(CodecFormatTest, OneEventOfEachKind) {
  const std::vector<Print> expected = {
      {14, 0x431fc719u}, {2, 0x4fbebcf4u},  {9, 0xad9e9ddau},
      {5, 0x3ca76306u},  {5, 0xad0ea3bau},  {2, 0x4d72fe8eu},
      {53, 0x33255260u}, {2, 0x985c4d63u},  {2, 0xc108e73bu}};
  const std::vector<ui::Event> events = oneEventOfEachKind();
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    net::MessageBuffer buf;
    ui::serializeEvent(buf, events[i]);
    EXPECT_EQ(printOf(buf), expected[i]) << ui::eventTypeName(events[i]);
  }
}

}  // namespace
}  // namespace svq
