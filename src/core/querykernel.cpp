#include "core/querykernel.h"

#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SVQ_X86 1
#endif

namespace svq::core {

void pointBrushScalar(const BrushGridView& grid, const float* x,
                      const float* y, std::int8_t* out, std::size_t n) {
  const float radius = grid.arenaRadiusCm;
  const float texel = grid.texelSizeCm;
  const int res = grid.resolution;
  for (std::size_t i = 0; i < n; ++i) {
    const int tx = static_cast<int>(std::floor((x[i] + radius) / texel));
    const int ty = static_cast<int>(std::floor((y[i] + radius) / texel));
    out[i] = (tx < 0 || ty < 0 || tx >= res || ty >= res)
                 ? kNoBrush
                 : grid.texels[static_cast<std::size_t>(ty) *
                                   static_cast<std::size_t>(res) +
                               static_cast<std::size_t>(tx)];
  }
}

#ifdef SVQ_X86

namespace {

/// Byte fetch for one lane after the vector index computation. Bounds are
/// checked per lane exactly like BrushGrid::brushAt — including lanes whose
/// float→int conversion saturated out of range.
inline std::int8_t fetchTexel(const BrushGridView& grid, int tx, int ty) {
  if (tx < 0 || ty < 0 || tx >= grid.resolution || ty >= grid.resolution) {
    return kNoBrush;
  }
  return grid.texels[static_cast<std::size_t>(ty) *
                         static_cast<std::size_t>(grid.resolution) +
                     static_cast<std::size_t>(tx)];
}

/// floor() for SSE2, which has no roundps: truncate, then subtract 1 where
/// truncation rounded up (negative non-integral inputs). Saturated lanes
/// land out of the grid's [0, res) range either way, matching scalar.
inline __m128i floorToInt32Sse2(__m128 v) {
  const __m128i trunc = _mm_cvttps_epi32(v);
  const __m128 truncF = _mm_cvtepi32_ps(trunc);
  // cmpgt mask is all-ones (== -1) where trunc > v, so adding it floors.
  return _mm_add_epi32(trunc, _mm_castps_si128(_mm_cmpgt_ps(truncF, v)));
}

}  // namespace

void pointBrushSse2(const BrushGridView& grid, const float* x, const float* y,
                    std::int8_t* out, std::size_t n) {
  const __m128 radius = _mm_set1_ps(grid.arenaRadiusCm);
  const __m128 texel = _mm_set1_ps(grid.texelSizeCm);
  alignas(16) int tx[4];
  alignas(16) int ty[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 qx =
        _mm_div_ps(_mm_add_ps(_mm_loadu_ps(x + i), radius), texel);
    const __m128 qy =
        _mm_div_ps(_mm_add_ps(_mm_loadu_ps(y + i), radius), texel);
    _mm_store_si128(reinterpret_cast<__m128i*>(tx), floorToInt32Sse2(qx));
    _mm_store_si128(reinterpret_cast<__m128i*>(ty), floorToInt32Sse2(qy));
    for (int l = 0; l < 4; ++l) out[i + l] = fetchTexel(grid, tx[l], ty[l]);
  }
  if (i < n) pointBrushScalar(grid, x + i, y + i, out + i, n - i);
}

__attribute__((target("avx2")))
void pointBrushAvx2(const BrushGridView& grid, const float* x, const float* y,
                    std::int8_t* out, std::size_t n) {
  if (grid.resolution <= 0) {
    pointBrushScalar(grid, x, y, out, n);
    return;
  }
  const __m256 radius = _mm256_set1_ps(grid.arenaRadiusCm);
  const __m256 texel = _mm256_set1_ps(grid.texelSizeCm);
  const __m256i res = _mm256_set1_epi32(grid.resolution);
  const __m256i minusOne = _mm256_set1_epi32(-1);
  alignas(32) int idx[8];
  alignas(32) int valid[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 qx =
        _mm256_div_ps(_mm256_add_ps(_mm256_loadu_ps(x + i), radius), texel);
    const __m256 qy =
        _mm256_div_ps(_mm256_add_ps(_mm256_loadu_ps(y + i), radius), texel);
    // floor_ps yields an integral float, so truncation converts exactly;
    // out-of-range lanes saturate to INT_MIN and fail the bounds mask
    // below exactly like the scalar range check.
    const __m256i tx = _mm256_cvttps_epi32(_mm256_floor_ps(qx));
    const __m256i ty = _mm256_cvttps_epi32(_mm256_floor_ps(qy));
    // ok[l] = all-ones iff 0 <= tx,ty < res (the scalar bounds check).
    __m256i ok = _mm256_and_si256(_mm256_cmpgt_epi32(tx, minusOne),
                                  _mm256_cmpgt_epi32(ty, minusOne));
    ok = _mm256_and_si256(ok, _mm256_cmpgt_epi32(res, tx));
    ok = _mm256_and_si256(ok, _mm256_cmpgt_epi32(res, ty));
    // Linear index, zeroed on invalid lanes so the byte fetch below is
    // always in-bounds (the grid has res*res >= 1 texels).
    const __m256i lin = _mm256_add_epi32(_mm256_mullo_epi32(ty, res), tx);
    _mm256_store_si256(reinterpret_cast<__m256i*>(idx),
                       _mm256_and_si256(lin, ok));
    _mm256_store_si256(reinterpret_cast<__m256i*>(valid), ok);
    for (int l = 0; l < 8; ++l) {
      // Branchless select: valid lanes keep the texel, invalid lanes
      // collapse to all-ones == kNoBrush.
      const int t = grid.texels[static_cast<std::uint32_t>(idx[l])];
      out[i + l] = static_cast<std::int8_t>((t & valid[l]) | ~valid[l]);
    }
  }
  if (i < n) {
    // GCC emits this tail call as a jump that skips the function's own
    // vzeroupper, so clear the upper YMM state before non-AVX code runs.
    _mm256_zeroupper();
    pointBrushScalar(grid, x + i, y + i, out + i, n - i);
  }
}

#else  // !SVQ_X86

void pointBrushSse2(const BrushGridView& grid, const float* x, const float* y,
                    std::int8_t* out, std::size_t n) {
  pointBrushScalar(grid, x, y, out, n);
}

void pointBrushAvx2(const BrushGridView& grid, const float* x, const float* y,
                    std::int8_t* out, std::size_t n) {
  pointBrushScalar(grid, x, y, out, n);
}

#endif  // SVQ_X86

void pointBrushVariant(util::Isa isa, const BrushGridView& grid,
                       const float* x, const float* y, std::int8_t* out,
                       std::size_t n) {
  switch (isa) {
    case util::Isa::kAvx2: pointBrushAvx2(grid, x, y, out, n); return;
    case util::Isa::kSse2: pointBrushSse2(grid, x, y, out, n); return;
    case util::Isa::kScalar: break;
  }
  pointBrushScalar(grid, x, y, out, n);
}

void pointBrushKernel(const BrushGridView& grid, const float* x,
                      const float* y, std::int8_t* out, std::size_t n) {
  pointBrushVariant(util::activeIsa(), grid, x, y, out, n);
}

void segmentMidpoints(const float* c, float* mid, std::size_t nSegments) {
  for (std::size_t s = 0; s < nSegments; ++s) {
    mid[s] = (c[s] + c[s + 1]) * 0.5f;
  }
}

}  // namespace svq::core
