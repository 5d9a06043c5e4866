// kernels.h — vectorized pixel primitives behind render::Canvas.
//
// The rasterizer's hot loops reduce to three dense row operations and one
// box walk:
//
//   * blendSpan — source-over blend of one translucent color onto a pixel
//     run (the alpha path of Canvas::fillSpan);
//   * fillRow — store one opaque color across a run (the fast path of
//     Canvas::fillSpan);
//   * copyRow — copy a run between framebuffers (Canvas::blitRows);
//   * thickLineBox — the per-pixel capsule coverage and blend of
//     drawThickLine over its clipped box, which draws every trajectory
//     segment.
//
// The row operations ship scalar/SSE2/AVX2 variants; thickLineBox ships
// scalar/AVX2 only, because SSE2 has no masked load/store or blendv, so
// under kSse2 it runs scalar. The variant is selected once per process
// via util::activeIsa() (SVQ_FORCE_SCALAR pins scalar). Variants are
// BIT-IDENTICAL to the scalar path: they evaluate the scalar expression
// tree — Color::over's d*(1-sa) + s*sa + 0.5f with truncating u8
// conversion, and thickLineBox's IEEE divides and sqrt — using discrete
// mul/add (never FMA) so the float results match lane for lane.
// Framebuffer content hashes, the pipeline's cache keys and the
// delta-broadcast determinism gates all depend on this;
// tests/simd_kernel_test.cpp fuzzes the equivalence.
#pragma once

#include <cstddef>

#include "render/color.h"
#include "util/geometry.h"
#include "util/simd.h"

namespace svq::render {

/// dst[i] = Color::over(dst[i], src) for i < n. Caller handles the
/// src.a == 255 (opaque) and src.a == 0 (no-op) fast paths; variants
/// assume 0 < src.a < 255 (they still produce Color::over's result for
/// the extremes, just not as fast).
void blendSpan(Color* dst, std::size_t n, Color src);
void blendSpanScalar(Color* dst, std::size_t n, Color src);
void blendSpanSse2(Color* dst, std::size_t n, Color src);
void blendSpanAvx2(Color* dst, std::size_t n, Color src);
void blendSpanVariant(util::Isa isa, Color* dst, std::size_t n, Color src);

/// dst[i] = src for i < n (opaque store, no blending).
void fillRow(Color* dst, std::size_t n, Color src);
void fillRowScalar(Color* dst, std::size_t n, Color src);
void fillRowSse2(Color* dst, std::size_t n, Color src);
void fillRowAvx2(Color* dst, std::size_t n, Color src);
void fillRowVariant(util::Isa isa, Color* dst, std::size_t n, Color src);

/// dst[i] = src[i] for i < n. Runs must not overlap.
void copyRow(Color* dst, const Color* src, std::size_t n);
void copyRowScalar(Color* dst, const Color* src, std::size_t n);
void copyRowSse2(Color* dst, const Color* src, std::size_t n);
void copyRowAvx2(Color* dst, const Color* src, std::size_t n);
void copyRowVariant(util::Isa isa, Color* dst, const Color* src,
                    std::size_t n);

/// Blends `c` over every pixel (x, y) of `box` (global pixels) with the
/// coverage, at the pixel centre, of the capsule of half-width `halfWidth`
/// around segment a->b, fading linearly over the last `feather` pixels:
/// drawThickLine's pixel walk. `origin` is the framebuffer pixel of
/// (box.x, box.y) and rows are `stride` pixels apart; the caller clips the
/// box to the framebuffer. Pixels outside the capsule, and those whose
/// coverage rounds to alpha 0, keep every byte.
void thickLineBox(Color* origin, std::size_t stride, const RectI& box, Vec2 a,
                  Vec2 b, float halfWidth, float feather, Color c);
void thickLineBoxScalar(Color* origin, std::size_t stride, const RectI& box,
                        Vec2 a, Vec2 b, float halfWidth, float feather,
                        Color c);
void thickLineBoxAvx2(Color* origin, std::size_t stride, const RectI& box,
                      Vec2 a, Vec2 b, float halfWidth, float feather,
                      Color c);
void thickLineBoxVariant(util::Isa isa, Color* origin, std::size_t stride,
                         const RectI& box, Vec2 a, Vec2 b, float halfWidth,
                         float feather, Color c);

}  // namespace svq::render
