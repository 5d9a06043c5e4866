// scene.h — the renderable scene model, the cell renderer and cell keys.
//
// A SceneModel is the complete, serializable description of one frame of
// the application: which trajectory sits in which small-multiple cell,
// each cell's group background, per-segment highlight state from the
// query engine, the temporal window and the stereo settings. The cluster
// master broadcasts this model; each render node draws it through a
// Canvas restricted to its own tile (sort-first), with a
// CellRenderPipeline (render/pipeline.h) that calls renderCell per cell.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "render/camera.h"
#include "render/color.h"
#include "render/framebuffer.h"
#include "render/rasterizer.h"
#include "render/spacetime.h"
#include "traj/dataset.h"

namespace svq::render {

/// One small-multiple cell: a trajectory placed in a pixel rect.
struct CellView {
  std::uint32_t trajectoryIndex = 0;  ///< index into the dataset
  RectI rect;                         ///< global wall pixels
  Color background = colors::kDarkBg;
  /// Per-segment highlight (brush index or kNoHighlight); empty = none.
  std::vector<std::int8_t> segmentHighlights;
  /// Optional label drawn in the cell's top-left corner.
  std::string label;
  /// Fraction of this cell's backing data with an exact verdict (anytime
  /// query refinement, core/progressive.h). 1.0 = exact/converged — the
  /// common case, drawn (and hashed) exactly as before this field
  /// existed; < 1.0 draws a coverage strip along the cell's bottom edge.
  float coverage = 1.0f;
};

/// Full frame description.
struct SceneModel {
  std::vector<CellView> cells;
  StereoSettings stereo;
  float arenaRadiusCm = 50.0f;
  /// Temporal filter [t0, t1]; {0, +inf} means no filtering.
  Vec2 timeWindow{0.0f, 1e9f};
  TrajectoryStyle style;
  /// Generation of the query result the highlights came from (0 = none /
  /// one-shot). Lets render nodes detect highlight-only frame changes.
  std::uint64_t queryGeneration = 0;
  bool drawArenaOutline = true;
  bool drawCellBorder = true;
  Color wallBackground = colors::kBlack;
};

/// Render statistics, accumulated per cell by renderCell.
struct RenderStats {
  std::size_t cellsDrawn = 0;
  std::size_t cellsCulled = 0;
  std::size_t segmentsDrawn = 0;
};

/// Where a cell's overlay draws, inside cell.rect: the label's text box
/// (textTinyWidth x textTinyHeight at (x+3, y+3), clipped to the cell) and
/// the coverage strip's 2-px track along the bottom edge. A part that
/// draws nothing has an empty rect. renderCell draws the overlay with
/// these rects, and the pipeline repaints them when only the overlay
/// changed, so every overlay pixel lies inside one of them.
struct CellOverlay {
  RectI label;
  RectI strip;
};
CellOverlay cellOverlay(const CellView& cell);

/// Renders one cell (no background clear). The dataset provides
/// trajectory geometry; the cell references it by index.
void renderCell(const SceneModel& scene, const CellView& cell,
                const traj::TrajectoryDataset& dataset, Canvas canvas,
                Eye eye, RenderStats& stats);

// --- content hashing ---------------------------------------------------------
// The dirty-cell pipeline (render/pipeline.h) and the delta scene
// broadcast (cluster/scene_serde.h) both need to answer "did this cell's
// pixels change?" without rasterizing. These 64-bit keys cover every
// input that renderCell reads, so key equality implies pixel equality.
// They fold one xxHash64-style round per 8-byte word of input (DESIGN.md
// §10): two equal-length inputs that differ in one word never collide.

/// Hash of the scene-wide fields that affect every cell's pixels (stereo,
/// window, style, flags, arena radius, wall background). Deliberately
/// excludes `queryGeneration`: it identifies the highlight *source*, not
/// the pixels, and would dirty every cell every frame.
std::uint64_t sceneStateHash(const SceneModel& scene);

/// One cell's keys, from one pass over its inputs. `body` folds
/// `sceneHash` with everything renderCell reads outside the overlay:
/// trajectory index, rect, background and per-segment highlights. `full`
/// folds `body` with the overlay: the label, and the coverage where it
/// draws (< 1.0). Equal bodies with different fulls differ in pixels only
/// inside the two cells' cellOverlay rects.
struct CellKeys {
  std::uint64_t body = 0;
  std::uint64_t full = 0;
};
CellKeys cellKeys(const CellView& cell, std::uint64_t sceneHash);

/// The full key: cellKeys(cell, sceneHash).full.
std::uint64_t cellContentHash(const CellView& cell, std::uint64_t sceneHash);

/// cellContentHash for every cell of the scene (shared sceneStateHash).
std::vector<std::uint64_t> sceneCellHashes(const SceneModel& scene);

}  // namespace svq::render
