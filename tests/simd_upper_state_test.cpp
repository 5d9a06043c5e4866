// simd_upper_state_test.cpp — every AVX2 kernel returns with a clean upper
// YMM state.
//
// A 256-bit instruction leaves the upper halves of ymm0–15 in use until a
// vzeroupper clears them. While they are in use, every legacy-SSE
// instruction on the thread pays a state-transition penalty on Intel
// cores, and glibc's EVEX string functions never clear the state for the
// thread. The compiler puts a vzeroupper on a kernel's return path, but a
// scalar tail call that it emits as a jump can skip it. Each test runs one
// AVX2 kernel from a clean state at every length 0–40 and at 1000, then
// reads the state back with XGETBV(1): bit 2 of XINUSE is set while the
// upper halves are in use. The kernels are called by ISA, not through the
// dispatcher, so the check holds under SVQ_FORCE_SCALAR too.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/brush.h"
#include "core/querykernel.h"
#include "render/kernels.h"
#include "util/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define SVQ_X86 1
#endif

namespace svq {
namespace {

using render::Color;

#ifdef SVQ_X86

/// XGETBV with ECX = 1 is usable: OSXSAVE and CPUID.(EAX=0DH,ECX=1):EAX[2].
bool hasXgetbvEcx1() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d) || (c & bit_OSXSAVE) == 0) return false;
  if (!__get_cpuid_count(0xD, 1, &a, &b, &c, &d)) return false;
  return (a & (1u << 2)) != 0;
}

/// XINUSE bit 2: the upper halves of ymm0–15 are in use.
bool upperYmmInUse() {
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & (1u << 2)) != 0;
}

__attribute__((target("avx"))) void clearUpperYmm() { _mm256_zeroupper(); }

/// The state a kernel that skips its vzeroupper leaves behind.
void dirtyUpperYmm() {
  __asm__ volatile("vpcmpeqd %%ymm0, %%ymm0, %%ymm0" ::: "xmm0");
}

std::vector<std::size_t> testLengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  lengths.push_back(1000);
  return lengths;
}

#endif  // SVQ_X86

std::string join(const std::vector<std::size_t>& values) {
  std::ostringstream out;
  for (std::size_t v : values) out << ' ' << v;
  return out.str();
}

class UpperYmmStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef SVQ_X86
    if (util::detectIsa() < util::Isa::kAvx2) GTEST_SKIP() << "no AVX2";
    if (!hasXgetbvEcx1()) GTEST_SKIP() << "no XGETBV with ECX=1";
    // The probe proves nothing unless it reads both states.
    dirtyUpperYmm();
    const bool seesDirty = upperYmmInUse();
    clearUpperYmm();
    if (!seesDirty || upperYmmInUse()) {
      GTEST_SKIP() << "XINUSE does not track the upper YMM state here";
    }
#else
    GTEST_SKIP() << "not an x86 build";
#endif
  }

  /// Lengths after which `kernel(n)`, started from a clean state, left
  /// the upper halves in use.
  template <typename Kernel>
  static std::vector<std::size_t> dirtyLengths(Kernel&& kernel) {
    std::vector<std::size_t> dirty;
#ifdef SVQ_X86
    for (std::size_t n : testLengths()) {
      clearUpperYmm();
      kernel(n);
      if (upperYmmInUse()) dirty.push_back(n);
    }
#else
    (void)kernel;
#endif
    return dirty;
  }
};

TEST_F(UpperYmmStateTest, PointBrushAvx2ReturnsClean) {
  core::BrushGrid grid(50.0f, 256);
  grid.paint({1, {-10.0f, 5.0f}, 20.0f});
  const core::BrushGridView view = grid.view();
  std::vector<float> x(1000), y(1000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = -60.0f + 0.12f * static_cast<float>(i);
    y[i] = 40.0f - 0.09f * static_cast<float>(i);
  }
  std::vector<std::int8_t> out(1000);
  const auto dirty = dirtyLengths([&](std::size_t n) {
    core::pointBrushVariant(util::Isa::kAvx2, view, x.data(), y.data(),
                            out.data(), n);
  });
  EXPECT_TRUE(dirty.empty()) << "dirty after lengths:" << join(dirty);
}

TEST_F(UpperYmmStateTest, BlendSpanAvx2ReturnsClean) {
  // Alpha 0 and 255 take the kernel's early exits; 128 its vector loop.
  for (std::uint8_t alpha : {std::uint8_t{0}, std::uint8_t{128},
                             std::uint8_t{255}}) {
    std::vector<Color> dst(1000, Color{10, 20, 30, 255});
    const Color src{200, 100, 50, alpha};
    const auto dirty = dirtyLengths(
        [&](std::size_t n) { render::blendSpanAvx2(dst.data(), n, src); });
    EXPECT_TRUE(dirty.empty())
        << "alpha " << int{alpha} << ", dirty after lengths:" << join(dirty);
  }
}

TEST_F(UpperYmmStateTest, FillRowAvx2ReturnsClean) {
  std::vector<Color> dst(1000);
  const auto dirty = dirtyLengths([&](std::size_t n) {
    render::fillRowAvx2(dst.data(), n, Color{1, 2, 3, 4});
  });
  EXPECT_TRUE(dirty.empty()) << "dirty after lengths:" << join(dirty);
}

TEST_F(UpperYmmStateTest, CopyRowAvx2ReturnsClean) {
  const std::vector<Color> src(1000, Color{9, 8, 7, 6});
  std::vector<Color> dst(1000);
  const auto dirty = dirtyLengths([&](std::size_t n) {
    render::copyRowAvx2(dst.data(), src.data(), n);
  });
  EXPECT_TRUE(dirty.empty()) << "dirty after lengths:" << join(dirty);
}

TEST_F(UpperYmmStateTest, ThickLineBoxAvx2ReturnsClean) {
  // A 3-row box `n` pixels wide, crossed lengthwise by the segment.
  constexpr std::size_t kStride = 1000;
  std::vector<Color> pixels(kStride * 3, Color{0, 0, 0, 255});
  const auto dirty = dirtyLengths([&](std::size_t n) {
    const RectI box{0, 0, static_cast<int>(n), 3};
    render::thickLineBoxAvx2(pixels.data(), kStride, box, Vec2{0.0f, 1.5f},
                             Vec2{static_cast<float>(n), 1.5f}, 1.0f, 1.0f,
                             Color{255, 0, 0, 200});
  });
  EXPECT_TRUE(dirty.empty()) << "dirty after lengths:" << join(dirty);
}

}  // namespace
}  // namespace svq
