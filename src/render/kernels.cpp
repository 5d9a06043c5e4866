#include "render/kernels.h"

#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SVQ_X86 1
#endif

namespace svq::render {

// ---- blendSpan -----------------------------------------------------------

void blendSpanScalar(Color* dst, std::size_t n, Color src) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = Color::over(dst[i], src);
}

#ifdef SVQ_X86

namespace {

/// Per-span constants of the source-over blend, computed with the exact
/// float ops Color::over performs so vector lanes reproduce its bits:
/// sa = a/255, then per channel s*sa is a constant of the span.
struct BlendConsts {
  float oneMinusSa;
  float rSa, gSa, bSa;

  explicit BlendConsts(Color src) {
    const float sa = static_cast<float>(src.a) / 255.0f;
    oneMinusSa = 1.0f - sa;
    rSa = static_cast<float>(src.r) * sa;
    gSa = static_cast<float>(src.g) * sa;
    bSa = static_cast<float>(src.b) * sa;
  }
};

}  // namespace

void blendSpanSse2(Color* dst, std::size_t n, Color src) {
  if (src.a == 255) { fillRowScalar(dst, n, src); return; }
  if (src.a == 0) return;
  const BlendConsts k(src);
  const __m128 oneMinusSa = _mm_set1_ps(k.oneMinusSa);
  const __m128 half = _mm_set1_ps(0.5f);
  const __m128 sSa[3] = {_mm_set1_ps(k.rSa), _mm_set1_ps(k.gSa),
                         _mm_set1_ps(k.bSa)};
  const __m128i byteMask = _mm_set1_epi32(0xFF);
  const __m128i alpha = _mm_set1_epi32(static_cast<int>(0xFF000000u));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    auto* p = reinterpret_cast<__m128i*>(dst + i);
    const __m128i px = _mm_loadu_si128(p);
    __m128i out = alpha;
    for (int c = 0; c < 3; ++c) {
      const __m128i ch =
          _mm_and_si128(_mm_srli_epi32(px, 8 * c), byteMask);
      // d*(1-sa) + s*sa + 0.5f, left-associated, discrete mul/add —
      // Color::over's expression tree, then truncating conversion.
      const __m128 blended = _mm_add_ps(
          _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(ch), oneMinusSa), sSa[c]),
          half);
      out = _mm_or_si128(
          out, _mm_slli_epi32(_mm_cvttps_epi32(blended), 8 * c));
    }
    _mm_storeu_si128(p, out);
  }
  if (i < n) blendSpanScalar(dst + i, n - i, src);
}

__attribute__((target("avx2")))
void blendSpanAvx2(Color* dst, std::size_t n, Color src) {
  if (src.a == 255) { fillRowScalar(dst, n, src); return; }
  if (src.a == 0) return;
  const BlendConsts k(src);
  const __m256 oneMinusSa = _mm256_set1_ps(k.oneMinusSa);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 sSa[3] = {_mm256_set1_ps(k.rSa), _mm256_set1_ps(k.gSa),
                         _mm256_set1_ps(k.bSa)};
  const __m256i byteMask = _mm256_set1_epi32(0xFF);
  const __m256i alpha = _mm256_set1_epi32(static_cast<int>(0xFF000000u));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    auto* p = reinterpret_cast<__m256i*>(dst + i);
    const __m256i px = _mm256_loadu_si256(p);
    __m256i out = alpha;
    for (int c = 0; c < 3; ++c) {
      const __m256i ch =
          _mm256_and_si256(_mm256_srli_epi32(px, 8 * c), byteMask);
      const __m256 blended = _mm256_add_ps(
          _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(ch), oneMinusSa),
                        sSa[c]),
          half);
      out = _mm256_or_si256(
          out, _mm256_slli_epi32(_mm256_cvttps_epi32(blended), 8 * c));
    }
    _mm256_storeu_si256(p, out);
  }
  if (i < n) blendSpanScalar(dst + i, n - i, src);
}

#else  // !SVQ_X86

void blendSpanSse2(Color* dst, std::size_t n, Color src) {
  blendSpanScalar(dst, n, src);
}
void blendSpanAvx2(Color* dst, std::size_t n, Color src) {
  blendSpanScalar(dst, n, src);
}

#endif  // SVQ_X86

void blendSpanVariant(util::Isa isa, Color* dst, std::size_t n, Color src) {
  switch (isa) {
    case util::Isa::kAvx2: blendSpanAvx2(dst, n, src); return;
    case util::Isa::kSse2: blendSpanSse2(dst, n, src); return;
    case util::Isa::kScalar: break;
  }
  blendSpanScalar(dst, n, src);
}

void blendSpan(Color* dst, std::size_t n, Color src) {
  blendSpanVariant(util::activeIsa(), dst, n, src);
}

// ---- fillRow -------------------------------------------------------------

void fillRowScalar(Color* dst, std::size_t n, Color src) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src;
}

#ifdef SVQ_X86

namespace {

inline int packColor(Color c) {
  int bits;
  static_assert(sizeof(Color) == sizeof(int));
  std::memcpy(&bits, &c, sizeof bits);
  return bits;
}

}  // namespace

void fillRowSse2(Color* dst, std::size_t n, Color src) {
  const __m128i v = _mm_set1_epi32(packColor(src));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), v);
  }
  for (; i < n; ++i) dst[i] = src;
}

__attribute__((target("avx2")))
void fillRowAvx2(Color* dst, std::size_t n, Color src) {
  const __m256i v = _mm256_set1_epi32(packColor(src));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  for (; i < n; ++i) dst[i] = src;
}

#else  // !SVQ_X86

void fillRowSse2(Color* dst, std::size_t n, Color src) {
  fillRowScalar(dst, n, src);
}
void fillRowAvx2(Color* dst, std::size_t n, Color src) {
  fillRowScalar(dst, n, src);
}

#endif  // SVQ_X86

void fillRowVariant(util::Isa isa, Color* dst, std::size_t n, Color src) {
  switch (isa) {
    case util::Isa::kAvx2: fillRowAvx2(dst, n, src); return;
    case util::Isa::kSse2: fillRowSse2(dst, n, src); return;
    case util::Isa::kScalar: break;
  }
  fillRowScalar(dst, n, src);
}

void fillRow(Color* dst, std::size_t n, Color src) {
  fillRowVariant(util::activeIsa(), dst, n, src);
}

// ---- copyRow -------------------------------------------------------------

void copyRowScalar(Color* dst, const Color* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

#ifdef SVQ_X86

void copyRowSse2(Color* dst, const Color* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + i),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
  }
  for (; i < n; ++i) dst[i] = src[i];
}

__attribute__((target("avx2")))
void copyRowAvx2(Color* dst, const Color* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
  }
  for (; i < n; ++i) dst[i] = src[i];
}

#else  // !SVQ_X86

void copyRowSse2(Color* dst, const Color* src, std::size_t n) {
  copyRowScalar(dst, src, n);
}
void copyRowAvx2(Color* dst, const Color* src, std::size_t n) {
  copyRowScalar(dst, src, n);
}

#endif  // SVQ_X86

void copyRowVariant(util::Isa isa, Color* dst, const Color* src,
                    std::size_t n) {
  switch (isa) {
    case util::Isa::kAvx2: copyRowAvx2(dst, src, n); return;
    case util::Isa::kSse2: copyRowSse2(dst, src, n); return;
    case util::Isa::kScalar: break;
  }
  copyRowScalar(dst, src, n);
}

void copyRow(Color* dst, const Color* src, std::size_t n) {
  copyRowVariant(util::activeIsa(), dst, src, n);
}

// ---- thickLineBox --------------------------------------------------------

void thickLineBoxScalar(Color* origin, std::size_t stride, const RectI& box,
                        Vec2 a, Vec2 b, float halfWidth, float feather,
                        Color c) {
  const Vec2 ab = b - a;
  const float len2 = ab.norm2();
  for (int y = box.y; y < box.y + box.h; ++y) {
    Color* row = origin + static_cast<std::size_t>(y - box.y) * stride;
    for (int x = box.x; x < box.x + box.w; ++x, ++row) {
      const Vec2 p{static_cast<float>(x) + 0.5f, static_cast<float>(y) + 0.5f};
      float dist;
      if (len2 <= 0.0f) {
        dist = (p - a).norm();
      } else {
        const float u = svq::clamp((p - a).dot(ab) / len2, 0.0f, 1.0f);
        dist = (p - (a + ab * u)).norm();
      }
      if (dist >= halfWidth + feather) continue;
      float coverage = 1.0f;
      if (dist > halfWidth) coverage = 1.0f - (dist - halfWidth) / feather;
      const auto alpha = static_cast<std::uint8_t>(
          svq::clamp(coverage * static_cast<float>(c.a), 0.0f, 255.0f));
      *row = Color::over(*row, c.withAlpha(alpha));
    }
  }
}

#ifdef SVQ_X86

__attribute__((target("avx2")))
void thickLineBoxAvx2(Color* origin, std::size_t stride, const RectI& box,
                      Vec2 a, Vec2 b, float halfWidth, float feather,
                      Color c) {
  const Vec2 ab = b - a;
  const float len2 = ab.norm2();
  const bool pointLike = len2 <= 0.0f;
  const __m256 ax = _mm256_set1_ps(a.x);
  const __m256 ay = _mm256_set1_ps(a.y);
  const __m256 abx = _mm256_set1_ps(ab.x);
  const __m256 aby = _mm256_set1_ps(ab.y);
  const __m256 vlen2 = _mm256_set1_ps(len2);
  const __m256 hw = _mm256_set1_ps(halfWidth);
  const __m256 fea = _mm256_set1_ps(feather);
  const __m256 reach = _mm256_set1_ps(halfWidth + feather);
  const __m256 ca = _mm256_set1_ps(static_cast<float>(c.a));
  const __m256 s[3] = {_mm256_set1_ps(static_cast<float>(c.r)),
                       _mm256_set1_ps(static_cast<float>(c.g)),
                       _mm256_set1_ps(static_cast<float>(c.b))};
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 k255 = _mm256_set1_ps(255.0f);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i byteMask = _mm256_set1_epi32(0xFF);
  const __m256i opaque = _mm256_set1_epi32(static_cast<int>(0xFF000000u));

  for (int y = 0; y < box.h; ++y) {
    Color* row = origin + static_cast<std::size_t>(y) * stride;
    // Row terms of the scalar expression tree, computed once per row.
    const float py = static_cast<float>(box.y + y) + 0.5f;
    const __m256 vpy = _mm256_set1_ps(py);
    const __m256 pay = _mm256_set1_ps(py - a.y);
    const __m256 payAby = _mm256_set1_ps((py - a.y) * ab.y);
    for (int i = 0; i < box.w; i += 8) {
      // Lanes past the row's end are masked out of the load and the store.
      const __m256i inRow =
          _mm256_cmpgt_epi32(_mm256_set1_epi32(box.w - i), lane);
      int* px32 = reinterpret_cast<int*>(row + i);
      const __m256i dst = _mm256_maskload_epi32(px32, inRow);

      const __m256 px = _mm256_add_ps(
          _mm256_cvtepi32_ps(
              _mm256_add_epi32(_mm256_set1_epi32(box.x + i), lane)),
          half);
      const __m256 pax = _mm256_sub_ps(px, ax);
      __m256 dist;
      if (pointLike) {
        dist = _mm256_sqrt_ps(_mm256_add_ps(_mm256_mul_ps(pax, pax),
                                            _mm256_mul_ps(pay, pay)));
      } else {
        // clamp(v, 0, 1) as max(0, min(1, v)): the operand order keeps
        // svq::clamp's result for every input, NaN included.
        const __m256 u = _mm256_max_ps(
            zero,
            _mm256_min_ps(
                one, _mm256_div_ps(
                         _mm256_add_ps(_mm256_mul_ps(pax, abx), payAby),
                         vlen2)));
        const __m256 dx =
            _mm256_sub_ps(px, _mm256_add_ps(ax, _mm256_mul_ps(abx, u)));
        const __m256 dy =
            _mm256_sub_ps(vpy, _mm256_add_ps(ay, _mm256_mul_ps(aby, u)));
        dist = _mm256_sqrt_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)));
      }

      // Lanes beyond the capsule keep their pixel. When that is every
      // lane in the row, there is nothing to blend.
      const __m256i outside =
          _mm256_castps_si256(_mm256_cmp_ps(dist, reach, _CMP_GE_OQ));
      if (_mm256_testc_si256(outside, inRow)) continue;

      const __m256 fade = _mm256_sub_ps(
          one, _mm256_div_ps(_mm256_sub_ps(dist, hw), fea));
      const __m256 coverage = _mm256_blendv_ps(
          one, fade, _mm256_cmp_ps(dist, hw, _CMP_GT_OQ));
      const __m256 alphaF = _mm256_max_ps(
          zero, _mm256_min_ps(k255, _mm256_mul_ps(coverage, ca)));
      // The scalar loop narrows to u8: keep the low byte of the int.
      const __m256i alpha =
          _mm256_and_si256(_mm256_cvttps_epi32(alphaF), byteMask);

      // Color::over per lane with sa = alpha / 255.
      const __m256 sa = _mm256_div_ps(_mm256_cvtepi32_ps(alpha), k255);
      const __m256 oneMinusSa = _mm256_sub_ps(one, sa);
      __m256i out = opaque;
      for (int ch = 0; ch < 3; ++ch) {
        const __m256 d = _mm256_cvtepi32_ps(
            _mm256_and_si256(_mm256_srli_epi32(dst, 8 * ch), byteMask));
        const __m256 blended = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(d, oneMinusSa),
                          _mm256_mul_ps(s[ch], sa)),
            half);
        out = _mm256_or_si256(
            out, _mm256_slli_epi32(_mm256_cvttps_epi32(blended), 8 * ch));
      }

      // Lanes beyond the capsule or with alpha 0 keep their pixel, alpha
      // byte included: they are left out of the store.
      const __m256i keep = _mm256_or_si256(
          outside, _mm256_cmpeq_epi32(alpha, _mm256_setzero_si256()));
      _mm256_maskstore_epi32(px32, _mm256_andnot_si256(keep, inRow), out);
    }
  }
}

#else  // !SVQ_X86

void thickLineBoxAvx2(Color* origin, std::size_t stride, const RectI& box,
                      Vec2 a, Vec2 b, float halfWidth, float feather,
                      Color c) {
  thickLineBoxScalar(origin, stride, box, a, b, halfWidth, feather, c);
}

#endif  // SVQ_X86

void thickLineBoxVariant(util::Isa isa, Color* origin, std::size_t stride,
                         const RectI& box, Vec2 a, Vec2 b, float halfWidth,
                         float feather, Color c) {
  switch (isa) {
    case util::Isa::kAvx2:
      thickLineBoxAvx2(origin, stride, box, a, b, halfWidth, feather, c);
      return;
    case util::Isa::kSse2:  // no SSE2 variant (kernels.h)
    case util::Isa::kScalar: break;
  }
  thickLineBoxScalar(origin, stride, box, a, b, halfWidth, feather, c);
}

void thickLineBox(Color* origin, std::size_t stride, const RectI& box, Vec2 a,
                  Vec2 b, float halfWidth, float feather, Color c) {
  thickLineBoxVariant(util::activeIsa(), origin, stride, box, a, b, halfWidth,
                      feather, c);
}

}  // namespace svq::render
