#include "cluster/scene_serde.h"

#include <cstring>
#include <utility>

namespace svq::cluster {

using net::MessageBuffer;
using render::Color;

namespace {

// Smallest wire size of each counted element, for bounding counts with
// MessageBuffer::getCount, so a forged count never sizes a reserve(). A cell
// is an index, a rect, a color, two counts and a coverage; a tile is an
// index, its width and height, and a payload length.
constexpr std::size_t kMinCellBytes = 36;
constexpr std::size_t kMinTileBytes = 16;

void putColor(MessageBuffer& buf, Color c) {
  buf.putU8(c.r);
  buf.putU8(c.g);
  buf.putU8(c.b);
  buf.putU8(c.a);
}

Color getColor(MessageBuffer& buf) {
  Color c;
  c.r = buf.getU8();
  c.g = buf.getU8();
  c.b = buf.getU8();
  c.a = buf.getU8();
  return c;
}

void putCell(MessageBuffer& buf, const render::CellView& cell) {
  buf.putU32(cell.trajectoryIndex);
  buf.putRect(cell.rect);
  putColor(buf, cell.background);
  buf.putU32(static_cast<std::uint32_t>(cell.segmentHighlights.size()));
  for (std::int8_t h : cell.segmentHighlights) {
    buf.putU8(static_cast<std::uint8_t>(h));
  }
  buf.putString(cell.label);
  buf.putF32(cell.coverage);
}

render::CellView getCell(MessageBuffer& buf) {
  render::CellView cell;
  cell.trajectoryIndex = buf.getU32();
  cell.rect = buf.getRect();
  cell.background = getColor(buf);
  const std::uint32_t n = buf.getCount(1);
  cell.segmentHighlights.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    cell.segmentHighlights.push_back(static_cast<std::int8_t>(buf.getU8()));
  }
  cell.label = buf.getString();
  cell.coverage = buf.getF32();
  return cell;
}

/// Scene-wide (non-cell) fields; shared by the full and delta encodings.
void putSceneFields(MessageBuffer& buf, const render::SceneModel& scene) {
  buf.putF32(scene.stereo.timeScaleCmPerS);
  buf.putF32(scene.stereo.depthOffsetCm);
  buf.putF32(scene.stereo.parallaxPxPerCm);
  buf.putF32(scene.stereo.maxComfortParallaxPx);
  buf.putF32(scene.arenaRadiusCm);
  buf.putVec2(scene.timeWindow);
  putColor(buf, scene.style.baseColor);
  buf.putF32(scene.style.nearBrightness);
  buf.putF32(scene.style.halfWidthPx);
  buf.putF32(scene.style.startMarkerPx);
  buf.putU64(scene.queryGeneration);
  buf.putBool(scene.drawArenaOutline);
  buf.putBool(scene.drawCellBorder);
  putColor(buf, scene.wallBackground);
}

void getSceneFields(MessageBuffer& buf, render::SceneModel& scene) {
  scene.stereo.timeScaleCmPerS = buf.getF32();
  scene.stereo.depthOffsetCm = buf.getF32();
  scene.stereo.parallaxPxPerCm = buf.getF32();
  scene.stereo.maxComfortParallaxPx = buf.getF32();
  scene.arenaRadiusCm = buf.getF32();
  scene.timeWindow = buf.getVec2();
  scene.style.baseColor = getColor(buf);
  scene.style.nearBrightness = buf.getF32();
  scene.style.halfWidthPx = buf.getF32();
  scene.style.startMarkerPx = buf.getF32();
  scene.queryGeneration = buf.getU64();
  scene.drawArenaOutline = buf.getBool();
  scene.drawCellBorder = buf.getBool();
  scene.wallBackground = getColor(buf);
}

}  // namespace

void serializeScene(MessageBuffer& buf, const render::SceneModel& scene) {
  buf.putU32(static_cast<std::uint32_t>(scene.cells.size()));
  for (const render::CellView& cell : scene.cells) putCell(buf, cell);
  putSceneFields(buf, scene);
}

render::SceneModel deserializeScene(MessageBuffer& buf) {
  render::SceneModel scene;
  const std::uint32_t cellCount = buf.getCount(kMinCellBytes);
  scene.cells.reserve(cellCount);
  for (std::uint32_t i = 0; i < cellCount; ++i) {
    scene.cells.push_back(getCell(buf));
  }
  getSceneFields(buf, scene);
  return scene;
}

void serializeSceneFull(MessageBuffer& buf, const render::SceneModel& scene,
                        std::uint64_t epoch) {
  buf.putU8(static_cast<std::uint8_t>(ScenePacketKind::kFull));
  buf.putU64(epoch);
  serializeScene(buf, scene);
}

void serializeSceneDelta(MessageBuffer& buf, const render::SceneModel& scene,
                         const std::vector<std::uint32_t>& changed,
                         std::uint64_t epoch, std::uint64_t baseEpoch) {
  buf.putU8(static_cast<std::uint8_t>(ScenePacketKind::kDelta));
  buf.putU64(epoch);
  buf.putU64(baseEpoch);
  putSceneFields(buf, scene);
  buf.putU32(static_cast<std::uint32_t>(scene.cells.size()));
  buf.putU32(static_cast<std::uint32_t>(changed.size()));
  for (std::uint32_t index : changed) {
    buf.putU32(index);
    putCell(buf, scene.cells[index]);
  }
}

void serializeSceneNone(MessageBuffer& buf, std::uint64_t epoch) {
  buf.putU8(static_cast<std::uint8_t>(ScenePacketKind::kNone));
  buf.putU64(epoch);
}

ScenePacketKind SceneDeltaEncoder::encode(MessageBuffer& buf,
                                          const render::SceneModel& scene) {
  std::vector<std::uint64_t> newHashes = render::sceneCellHashes(scene);
  std::vector<std::uint32_t> changed;
  bool deltaSound = hasBase_ && newHashes.size() == hashes_.size();
  if (deltaSound) {
    for (std::size_t i = 0; i < newHashes.size(); ++i) {
      if (newHashes[i] != hashes_[i]) {
        changed.push_back(static_cast<std::uint32_t>(i));
      }
    }
    // A delta touching most cells costs more than a full packet (it
    // repeats the index overhead); scene-wide changes dirty everything and
    // land here too.
    if (changed.size() * 2 >= newHashes.size() && !newHashes.empty()) {
      deltaSound = false;
    }
  }
  ++epoch_;
  if (deltaSound) {
    serializeSceneDelta(buf, scene, changed, epoch_, epoch_ - 1);
  } else {
    serializeSceneFull(buf, scene, epoch_);
  }
  hashes_ = std::move(newHashes);
  hasBase_ = true;
  return deltaSound ? ScenePacketKind::kDelta : ScenePacketKind::kFull;
}

void SceneDeltaEncoder::encodeResync(MessageBuffer& buf,
                                     const render::SceneModel& scene) {
  serializeSceneFull(buf, scene, epoch_);
}

bool SceneReceiver::apply(MessageBuffer& buf) {
  const auto kind = static_cast<ScenePacketKind>(buf.getU8());
  const std::uint64_t epoch = buf.getU64();
  switch (kind) {
    case ScenePacketKind::kNone:
      return true;
    case ScenePacketKind::kFull:
      scene_ = deserializeScene(buf);
      epoch_ = epoch;
      hasScene_ = true;
      return true;
    case ScenePacketKind::kDelta: {
      const std::uint64_t baseEpoch = buf.getU64();
      if (!hasScene_ || epoch_ != baseEpoch) return false;
      // Decode the whole delta before touching the held scene, so a packet
      // that throws part-way leaves the scene and epoch as they were.
      render::SceneModel next;
      getSceneFields(buf, next);
      const std::uint32_t cellCount = buf.getU32();
      if (cellCount != scene_.cells.size()) {
        throw net::MessageError("scene delta cell-count mismatch");
      }
      const std::uint32_t changed = buf.getCount(4 + kMinCellBytes);
      std::vector<std::pair<std::uint32_t, render::CellView>> cells;
      cells.reserve(changed);
      for (std::uint32_t i = 0; i < changed; ++i) {
        const std::uint32_t index = buf.getU32();
        if (index >= cellCount) {
          throw net::MessageError("scene delta cell index out of range");
        }
        cells.emplace_back(index, getCell(buf));
      }
      next.cells = std::move(scene_.cells);
      for (auto& [index, cell] : cells) next.cells[index] = std::move(cell);
      scene_ = std::move(next);
      epoch_ = epoch;
      return true;
    }
  }
  throw net::MessageError("unknown scene packet kind");
}

void serializeFramebuffer(MessageBuffer& buf, const render::Framebuffer& fb) {
  buf.putI32(fb.width());
  buf.putI32(fb.height());
  // Raw RGBA bytes.
  static_assert(sizeof(Color) == 4);
  buf.putBytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(fb.pixels().data()),
      fb.pixelCount() * 4));
}

render::Framebuffer deserializeFramebuffer(MessageBuffer& buf) {
  const std::int32_t w = buf.getI32();
  const std::int32_t h = buf.getI32();
  const std::span<const std::uint8_t> bytes = buf.getBytesView();
  // Validate before allocating: forged dimensions must not size a buffer.
  if (w < 0 || h < 0) {
    throw net::MessageError("framebuffer dimensions negative");
  }
  if (bytes.size() != static_cast<std::uint64_t>(w) *
                          static_cast<std::uint64_t>(h) * sizeof(Color)) {
    throw net::MessageError("framebuffer payload size mismatch");
  }
  // The copy writes every pixel, so the storage needs no fill first.
  render::Framebuffer fb(w, h, render::Framebuffer::ForOverwrite{});
  if (!bytes.empty()) std::memcpy(&fb.at(0, 0), bytes.data(), bytes.size());
  return fb;
}

void serializeTilePacket(MessageBuffer& buf,
                         std::span<const TileImage> tiles) {
  buf.putU32(static_cast<std::uint32_t>(tiles.size()));
  for (const TileImage& t : tiles) {
    buf.putI32(t.tileIndex);
    serializeFramebuffer(buf, t.image);
  }
}

std::vector<TileImage> deserializeTilePacket(MessageBuffer& buf) {
  const std::uint32_t n = buf.getCount(kMinTileBytes);
  std::vector<TileImage> tiles;
  tiles.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TileImage t;
    t.tileIndex = buf.getI32();
    t.image = deserializeFramebuffer(buf);
    tiles.push_back(std::move(t));
  }
  return tiles;
}

}  // namespace svq::cluster
