// brush.h — the coordinated paintbrush canvas.
//
// The user paints on the background of a *single* trajectory cell, but the
// paint lands in shared arena coordinates — that is the whole trick of
// Coordinated Brushing (§IV.C.2): one gesture defines a spatial region
// that every displayed trajectory is tested against simultaneously.
//
// Two representations:
//   * the stroke list — the editable gesture history (discs per brush);
//   * the BrushGrid — a rasterized arena-space mask (like the pixels the
//     real app painted), giving O(1) point lookups during query
//     evaluation. Later strokes overwrite earlier ones, like paint.
//
// Every mutation reports the arena-space rect it touched. The incremental
// query engine (core/queryengine) feeds those dirty rects into its
// invalidation pass so a localized dab re-classifies only trajectories
// that visit the edited region.
#pragma once

#include <cstdint>
#include <vector>

#include "traj/stats.h"
#include "util/geometry.h"

namespace svq::core {

/// No brush covers this point/cell. Also the *only* wildcard accepted by
/// BrushCanvas::clear ("clear everything").
inline constexpr std::int8_t kNoBrush = -1;

/// One painted dab.
struct BrushStroke {
  std::int8_t brushIndex = 0;
  Vec2 centerCm;
  float radiusCm = 5.0f;
};

/// Kernel-facing POD view of a BrushGrid: everything the point-in-brush
/// SIMD kernels (core/querykernel.h) need to classify arena points, with
/// no indirection through the owning grid. Valid as long as the grid is
/// alive and unmodified.
struct BrushGridView {
  const std::int8_t* texels = nullptr;
  int resolution = 0;
  float arenaRadiusCm = 0.0f;
  float texelSizeCm = 0.0f;
};

/// Rasterized arena-space paint mask.
class BrushGrid {
 public:
  /// Grid covering [-radiusCm, +radiusCm]^2 at `resolution`^2 texels.
  BrushGrid(float arenaRadiusCm = 50.0f, int resolution = 256);

  float arenaRadiusCm() const { return arenaRadiusCm_; }
  int resolution() const { return resolution_; }

  /// Arena-space extent of the whole grid.
  AABB2 bounds() const {
    return AABB2::of({-arenaRadiusCm_, -arenaRadiusCm_},
                     {arenaRadiusCm_, arenaRadiusCm_});
  }

  /// Clears every texel. Returns the dirty rect: the whole grid if any
  /// paint was removed, an invalid AABB if the grid was already clean.
  AABB2 clearAll();

  /// Clears one brush's texels. Returns the tight arena-space rect of the
  /// removed texels (invalid AABB if the brush had no paint).
  AABB2 clearBrush(std::int8_t brushIndex);

  /// Paints one disc (later paint overwrites earlier). Returns the
  /// arena-space rect of the touched texels, clipped to the grid (invalid
  /// AABB when the stroke lands entirely outside).
  AABB2 paint(const BrushStroke& stroke);

  /// Brush index covering an arena point, or kNoBrush. Points outside the
  /// grid return kNoBrush.
  std::int8_t brushAt(Vec2 arenaCm) const;

  /// True iff any texel carries the given brush.
  bool hasPaint(std::int8_t brushIndex) const;

  /// Painted area (cm^2) of one brush.
  float paintedAreaCm2(std::int8_t brushIndex) const;

  /// Raw texel access for serialization / tests.
  const std::vector<std::int8_t>& texels() const { return texels_; }

  /// Kernel-facing view (see BrushGridView).
  BrushGridView view() const {
    return {texels_.data(), resolution_, arenaRadiusCm_, texelSizeCm_};
  }

 private:
  friend class BrushCanvas;  // clear() reports what paint() touched

  /// Inclusive texel bounds; empty when x0 > x1 or y0 > y1.
  struct TexelBox {
    int x0, y0, x1, y1;
  };

  int toTexel(float cm) const;
  /// Texels a stroke's disc may cover, clipped to the grid.
  TexelBox strokeTexels(const BrushStroke& stroke) const;
  /// Arena-cm rect covering a texel box (invalid AABB when it is empty).
  AABB2 texelRect(const TexelBox& box) const;
  /// The rect paint(stroke) returns, without painting.
  AABB2 strokeRect(const BrushStroke& stroke) const {
    return texelRect(strokeTexels(stroke));
  }

  float arenaRadiusCm_;
  int resolution_;
  float texelSizeCm_;
  std::vector<std::int8_t> texels_;
};

/// Editable canvas = stroke history + rasterized grid, kept in sync.
class BrushCanvas {
 public:
  explicit BrushCanvas(float arenaRadiusCm = 50.0f, int resolution = 256)
      : grid_(arenaRadiusCm, resolution) {}

  const BrushGrid& grid() const { return grid_; }
  const std::vector<BrushStroke>& strokes() const { return strokes_; }

  /// Adds one stroke and rasterizes it. Returns the arena-space dirty rect
  /// (invalid AABB when the stroke lands entirely outside the grid).
  AABB2 addStroke(const BrushStroke& stroke);

  /// Removes strokes and re-rasterizes the survivors.
  ///
  /// Wildcard contract: kNoBrush (and only kNoBrush) means "all brushes".
  /// Any other negative index is out of range — no stroke can carry it —
  /// and the call is an explicit no-op. A valid index with no strokes is
  /// likewise a no-op. Returns the arena-space dirty rect: the union of
  /// the texel rects the removed strokes painted (invalid AABB for a
  /// no-op).
  AABB2 clear(std::int8_t brushIndex = kNoBrush);

  bool empty() const { return strokes_.empty(); }

  /// Explicit deep copy: the clone owns fresh texel and stroke buffers
  /// sharing no storage with this canvas. This is the detach path of
  /// copy-on-write sessions (core/session.h) — spelled out as a named
  /// operation so call sites state the (O(resolution^2)) cost.
  BrushCanvas clone() const;

 private:
  void rebuild();

  BrushGrid grid_;
  std::vector<BrushStroke> strokes_;
};

// --- convenience region painters for scripted queries ---------------------

/// Paints the half of the arena on the given compass side (e.g. "west half"
/// for the Fig. 5 query). Implemented as rows of dabs.
void paintArenaHalf(BrushCanvas& canvas, std::int8_t brushIndex,
                    traj::ArenaSide side, float arenaRadiusCm,
                    float dabRadiusCm = 4.0f);

/// Paints a centred disc of `radiusCm` (the §V.B "centre search" query).
void paintArenaCenter(BrushCanvas& canvas, std::int8_t brushIndex,
                      float radiusCm, float dabRadiusCm = 4.0f);

}  // namespace svq::core
