// Tests for render/color.h and render/framebuffer.h.
#include "render/framebuffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

namespace svq::render {
namespace {

TEST(ColorTest, LerpEndpoints) {
  const Color a{0, 0, 0, 255};
  const Color b{255, 255, 255, 255};
  EXPECT_EQ(Color::lerp(a, b, 0.0f), a);
  EXPECT_EQ(Color::lerp(a, b, 1.0f), b);
  const Color mid = Color::lerp(a, b, 0.5f);
  EXPECT_NEAR(mid.r, 128, 1);
}

TEST(ColorTest, LerpClampsT) {
  const Color a{10, 20, 30, 255};
  const Color b{200, 100, 50, 255};
  EXPECT_EQ(Color::lerp(a, b, -2.0f), a);
  EXPECT_EQ(Color::lerp(a, b, 5.0f), b);
}

TEST(ColorTest, OverOpaqueReplaces) {
  const Color dst{10, 10, 10, 255};
  const Color src{200, 100, 50, 255};
  EXPECT_EQ(Color::over(dst, src), src);
}

TEST(ColorTest, OverTransparentKeepsDst) {
  const Color dst{10, 10, 10, 255};
  const Color src{200, 100, 50, 0};
  EXPECT_EQ(Color::over(dst, src), dst);
}

TEST(ColorTest, OverHalfAlphaBlends) {
  const Color dst{0, 0, 0, 255};
  const Color src{255, 255, 255, 128};
  const Color out = Color::over(dst, src);
  EXPECT_NEAR(out.r, 128, 2);
  EXPECT_EQ(out.a, 255);
}

TEST(ColorTest, ScaledDarkensAndClamps) {
  const Color c{100, 200, 50, 255};
  const Color half = c.scaled(0.5f);
  EXPECT_EQ(half.r, 50);
  EXPECT_EQ(half.g, 100);
  const Color bright = c.scaled(10.0f);
  EXPECT_EQ(bright.g, 255);  // clamped
}

TEST(ColorTest, PackedIsStable) {
  EXPECT_EQ((Color{1, 2, 3, 4}).packed(), 0x01020304u);
}

TEST(PaletteTest, GroupBackgroundsCycleWithoutCrashing) {
  for (std::size_t i = 0; i < 20; ++i) {
    const Color c = groupBackground(i);
    EXPECT_EQ(c.a, 255);
  }
  EXPECT_EQ(groupBackground(0), groupBackground(8));  // 8-entry cycle
}

TEST(PaletteTest, BrushColorsAreSaturatedAndDistinct) {
  EXPECT_EQ(brushColor(0), colors::kRed);
  EXPECT_EQ(brushColor(1), colors::kGreen);
  EXPECT_EQ(brushColor(2), colors::kBlue);
  EXPECT_NE(brushColor(3), brushColor(4));
}

TEST(FramebufferTest, ConstructionAndFill) {
  Framebuffer fb(16, 8, colors::kRed);
  EXPECT_EQ(fb.width(), 16);
  EXPECT_EQ(fb.height(), 8);
  EXPECT_EQ(fb.pixelCount(), 128u);
  EXPECT_FALSE(fb.empty());
  EXPECT_EQ(fb.at(0, 0), colors::kRed);
  EXPECT_EQ(fb.at(15, 7), colors::kRed);
  EXPECT_EQ(fb.countPixels(colors::kRed), 128u);
}

TEST(FramebufferTest, DefaultIsEmpty) {
  Framebuffer fb;
  EXPECT_TRUE(fb.empty());
  EXPECT_EQ(fb.pixelCount(), 0u);
}

TEST(FramebufferTest, SetRespectsBounds) {
  Framebuffer fb(4, 4);
  fb.set(2, 2, colors::kWhite);
  EXPECT_EQ(fb.at(2, 2), colors::kWhite);
  fb.set(-1, 0, colors::kWhite);  // must not crash
  fb.set(4, 0, colors::kWhite);
  fb.set(0, 100, colors::kWhite);
  EXPECT_EQ(fb.countPixels(colors::kWhite), 1u);
}

TEST(FramebufferTest, GetFallbackOutsideBounds) {
  Framebuffer fb(2, 2, colors::kBlack);
  EXPECT_EQ(fb.get(5, 5, colors::kRed), colors::kRed);
  EXPECT_EQ(fb.get(1, 1, colors::kRed), colors::kBlack);
}

TEST(FramebufferTest, BlendUsesAlpha) {
  Framebuffer fb(2, 2, colors::kBlack);
  fb.blend(0, 0, Color{255, 255, 255, 128});
  EXPECT_NEAR(fb.at(0, 0).r, 128, 2);
}

TEST(FramebufferTest, ClearOverwritesEverything) {
  Framebuffer fb(4, 4, colors::kRed);
  fb.clear(colors::kBlue);
  EXPECT_EQ(fb.countPixels(colors::kBlue), 16u);
}

TEST(FramebufferTest, BlitCopiesAtOffset) {
  Framebuffer dst(8, 8, colors::kBlack);
  Framebuffer src(2, 2, colors::kGreen);
  dst.blit(src, 3, 4);
  EXPECT_EQ(dst.at(3, 4), colors::kGreen);
  EXPECT_EQ(dst.at(4, 5), colors::kGreen);
  EXPECT_EQ(dst.at(2, 4), colors::kBlack);
  EXPECT_EQ(dst.countPixels(colors::kGreen), 4u);
}

TEST(FramebufferTest, BlitClipsAtEdges) {
  Framebuffer dst(4, 4, colors::kBlack);
  Framebuffer src(3, 3, colors::kGreen);
  dst.blit(src, 2, 2);   // bottom-right corner, partially off
  dst.blit(src, -1, -1); // top-left, partially off
  EXPECT_EQ(dst.at(3, 3), colors::kGreen);
  EXPECT_EQ(dst.at(0, 0), colors::kGreen);
  dst.blit(src, 10, 10);  // fully off: no crash
  SUCCEED();
}

TEST(FramebufferTest, ContentHashDetectsChanges) {
  Framebuffer a(8, 8, colors::kBlack);
  Framebuffer b(8, 8, colors::kBlack);
  EXPECT_EQ(a.contentHash(), b.contentHash());
  b.set(3, 3, colors::kWhite);
  EXPECT_NE(a.contentHash(), b.contentHash());
}

TEST(FramebufferTest, PpmHeaderAndSize) {
  Framebuffer fb(3, 2, colors::kRed);
  const std::string ppm = fb.toPpm();
  EXPECT_EQ(ppm.rfind("P6\n3 2\n255\n", 0), 0u);
  EXPECT_EQ(ppm.size(), std::string("P6\n3 2\n255\n").size() + 3u * 2u * 3u);
}

TEST(FramebufferTest, SavePpmWritesFile) {
  Framebuffer fb(4, 4, colors::kBlue);
  const std::string path =
      (std::filesystem::temp_directory_path() / "svq_fb_test.ppm").string();
  ASSERT_TRUE(fb.savePpm(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "P6");
  std::remove(path.c_str());
}

TEST(FramebufferTest, SavePpmFailsOnBadPath) {
  Framebuffer fb(2, 2);
  EXPECT_FALSE(fb.savePpm("/nonexistent_dir_xyz/file.ppm"));
}

// --- pixel-storage recycling ------------------------------------------------
// Storage of 1 MiB or more is parked when released and handed to the next
// framebuffer of the same size. These run at the paper wall's tile size.

constexpr int kTileW = 1366;
constexpr int kTileH = 768;

Framebuffer patterned(int w, int h, std::uint8_t seed) {
  Framebuffer fb(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      fb.at(x, y) = Color{static_cast<std::uint8_t>(x + seed),
                          static_cast<std::uint8_t>(y * 3 + seed), seed, 255};
    }
  }
  return fb;
}

TEST(FramebufferRecycleTest, CopyMoveAndSelfAssignmentKeepContents) {
  for (const auto& [w, h] : {std::pair{kTileW, kTileH}, std::pair{17, 9}}) {
    const Framebuffer source = patterned(w, h, 7);
    const std::uint64_t hash = source.contentHash();

    Framebuffer copied(source);
    EXPECT_EQ(copied.contentHash(), hash);
    Framebuffer sameSize(w, h, colors::kRed);
    sameSize = source;
    EXPECT_EQ(sameSize.contentHash(), hash);
    Framebuffer otherSize(3, 5, colors::kRed);
    otherSize = source;
    EXPECT_EQ(otherSize.width(), w);
    EXPECT_EQ(otherSize.height(), h);
    EXPECT_EQ(otherSize.contentHash(), hash);

    Framebuffer moved(std::move(copied));
    EXPECT_EQ(moved.contentHash(), hash);
    EXPECT_TRUE(copied.empty());  // a moved-from framebuffer is empty
    EXPECT_EQ(copied.pixelCount(), copied.pixels().size());
    Framebuffer target(w, h, colors::kBlue);
    target = std::move(moved);
    EXPECT_EQ(target.contentHash(), hash);
    EXPECT_TRUE(moved.empty());

    Framebuffer& alias = target;
    target = alias;
    EXPECT_EQ(target.contentHash(), hash);
    target = std::move(alias);
    EXPECT_EQ(target.width(), w);
    EXPECT_EQ(target.height(), h);
    EXPECT_EQ(target.contentHash(), hash);
  }
}

TEST(FramebufferRecycleTest, RecycledStorageReadsAsItsOwnFill) {
  const Color* released = nullptr;
  {
    const Framebuffer old = patterned(kTileW, kTileH, 99);
    released = old.pixels().data();
  }
  const Framebuffer filled(kTileW, kTileH, colors::kBlue);
  EXPECT_EQ(filled.pixels().data(), released) << "storage was not reused";
  EXPECT_EQ(filled.countPixels(colors::kBlue), filled.pixelCount());

  { const Framebuffer old = patterned(kTileW, kTileH, 42); }
  const Framebuffer copy(filled);
  EXPECT_EQ(copy.countPixels(colors::kBlue), copy.pixelCount());
}

TEST(FramebufferRecycleTest, ConcurrentChurnKeepsContents) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 1000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      for (int round = 0; round < kRounds; ++round) {
        const Color fill{static_cast<std::uint8_t>(t * 60),
                         static_cast<std::uint8_t>(round),
                         static_cast<std::uint8_t>(round >> 8), 255};
        const Color mark{255, static_cast<std::uint8_t>(t),
                         static_cast<std::uint8_t>(round), 254};
        const int mx = 1 + round % (kTileW - 2);
        const int my = 1 + (round * 7) % (kTileH - 2);
        Framebuffer made(kTileW, kTileH, fill);
        made.at(mx, my) = mark;
        Framebuffer copy(made);
        Framebuffer moved(std::move(made));
        Framebuffer assigned;
        assigned = std::move(copy);
        // Corners, the mark, and one whole row that moves every round.
        const int row = (round * 13) % kTileH;
        for (const Framebuffer* fb : {&moved, &assigned}) {
          const Color* r = &fb->at(0, row);
          const auto rowFill = std::count(r, r + kTileW, fill);
          if (fb->at(0, 0) != fill || fb->at(kTileW - 1, kTileH - 1) != fill ||
              fb->at(mx, my) != mark ||
              rowFill != kTileW - (row == my ? 1 : 0)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace svq::render
