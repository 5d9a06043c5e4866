// scene_serde.h — wire format for scene models and framebuffers.
//
// Sort-first distribution ships the SceneModel to every render node each
// frame (state broadcast, the way distributed display environments like
// SAGE/CGLX drive walls), and gathers tile framebuffers back for
// composition/verification. Both directions round-trip through
// MessageBuffer here.
//
// Two broadcast encodings exist:
//   * full — the whole scene (serializeScene), sent on the first frame,
//     after a layout change, and for resync;
//   * delta — scene-wide fields plus only the cells whose content hash
//     (render::cellContentHash) changed since the base epoch. Interactive
//     edits dirty a handful of cells, so the per-frame payload drops from
//     O(scene) to O(dirty).
// Every packet carries an epoch; a delta also names the base epoch it
// patches. A receiver holding a different epoch (fresh rank, dropped
// cache, missed frame) rejects the delta and the master resyncs it with a
// full packet — correctness never depends on the delta path.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "net/message.h"
#include "render/framebuffer.h"
#include "render/scene.h"

namespace svq::cluster {

void serializeScene(net::MessageBuffer& buf, const render::SceneModel& scene);
render::SceneModel deserializeScene(net::MessageBuffer& buf);

// --- delta scene broadcast ---------------------------------------------------

/// Broadcast packet discriminator (first byte on the wire).
enum class ScenePacketKind : std::uint8_t {
  kFull = 0,   ///< complete scene, replaces the receiver's cache
  kDelta = 1,  ///< changed cells patched onto the base epoch's scene
  kNone = 2,   ///< control packet: no scene change (resync round answer)
};

/// Complete scene stamped with `epoch`.
void serializeSceneFull(net::MessageBuffer& buf,
                        const render::SceneModel& scene, std::uint64_t epoch);

/// Scene-wide fields plus the cells listed in `changed` (indices into
/// scene.cells), patching the scene a receiver holds at `baseEpoch`.
void serializeSceneDelta(net::MessageBuffer& buf,
                         const render::SceneModel& scene,
                         const std::vector<std::uint32_t>& changed,
                         std::uint64_t epoch, std::uint64_t baseEpoch);

/// Control packet carrying no scene payload.
void serializeSceneNone(net::MessageBuffer& buf, std::uint64_t epoch);

/// Master-side encoder: tracks per-cell content hashes frame over frame
/// and emits the cheapest sound packet — a delta when a base epoch exists,
/// the cell count is unchanged and fewer than half the cells are dirty;
/// a full packet otherwise.
class SceneDeltaEncoder {
 public:
  /// Encodes the next frame's packet into `buf`; returns the kind chosen.
  ScenePacketKind encode(net::MessageBuffer& buf,
                         const render::SceneModel& scene);

  /// Re-encodes the current frame as a full packet (same epoch) for a
  /// receiver that rejected the delta.
  void encodeResync(net::MessageBuffer& buf, const render::SceneModel& scene);

  std::uint64_t epoch() const { return epoch_; }

 private:
  std::vector<std::uint64_t> hashes_;
  std::uint64_t epoch_ = 0;
  bool hasBase_ = false;
};

/// Receiver-side scene cache: applies full and delta packets in epoch
/// order. apply() returns false when a delta's base epoch does not match
/// the held scene — the caller must nack and wait for a full resync.
class SceneReceiver {
 public:
  /// Decodes one broadcast packet. kFull replaces the cache, kDelta
  /// patches it, kNone is a no-op. Returns false (cache unchanged) iff a
  /// delta could not be applied. A malformed packet throws
  /// net::MessageError and also leaves the scene and epoch unchanged.
  bool apply(net::MessageBuffer& buf);

  /// Drops the cached scene (fault injection: a rank that lost its render
  /// state). The next delta will be rejected, forcing a full resync.
  void dropCache() {
    hasScene_ = false;
    scene_ = render::SceneModel{};
  }

  bool hasScene() const { return hasScene_; }
  std::uint64_t epoch() const { return epoch_; }
  const render::SceneModel& scene() const { return scene_; }

 private:
  render::SceneModel scene_;
  std::uint64_t epoch_ = 0;
  bool hasScene_ = false;
};

void serializeFramebuffer(net::MessageBuffer& buf,
                          const render::Framebuffer& fb);
render::Framebuffer deserializeFramebuffer(net::MessageBuffer& buf);

/// One rendered tile, tagged with its wall tile index. Under fault
/// tolerance a surviving rank renders (and ships) more than one tile per
/// frame — its own plus any reassigned from dead ranks — so the gather
/// payload carries explicit tile indices instead of relying on source
/// rank == tile index.
struct TileImage {
  int tileIndex = 0;
  render::Framebuffer image;
};

void serializeTilePacket(net::MessageBuffer& buf,
                         std::span<const TileImage> tiles);
/// A braced list of tiles is serialized in place, not first copied into
/// a vector.
inline void serializeTilePacket(net::MessageBuffer& buf,
                                std::initializer_list<TileImage> tiles) {
  serializeTilePacket(buf,
                      std::span<const TileImage>(tiles.begin(), tiles.size()));
}
std::vector<TileImage> deserializeTilePacket(net::MessageBuffer& buf);

}  // namespace svq::cluster
