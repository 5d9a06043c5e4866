// framebuffer.h — CPU framebuffer: the render target of the software
// rasterizer. One instance per eye per tile in the cluster renderer; the
// wall compositor stitches tile framebuffers into a full wall image.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "render/color.h"
#include "util/geometry.h"

namespace svq::render {

/// Dense row-major RGBA8 image with bounds-checked pixel helpers.
///
/// Pixel storage of 1 MiB or more is recycled: a framebuffer that lets go
/// of it (destroyed, moved onto, or copy-assigned another size) parks it
/// in a process-wide, byte-capped free list, and the next framebuffer
/// constructed at exactly that size takes it instead of faulting in fresh
/// pages. Storage is always fully overwritten before anyone reads it, so
/// no stale pixel is visible: the filled and copy constructors overwrite
/// it themselves; a ForOverwrite framebuffer leaves that to its caller.
class Framebuffer {
 public:
  /// Constructor tag for a caller that writes every pixel before the
  /// framebuffer leaves it (a decoder's copy, a compose whose tiles cover
  /// the image): recycled storage is taken as it is, without the fill.
  /// Fresh storage is still value-initialized once.
  struct ForOverwrite {};

  Framebuffer() = default;
  Framebuffer(int width, int height, Color fill = colors::kBlack);
  Framebuffer(int width, int height, ForOverwrite);
  Framebuffer(const Framebuffer& other);
  Framebuffer(Framebuffer&& other) noexcept;
  Framebuffer& operator=(const Framebuffer& other);
  Framebuffer& operator=(Framebuffer&& other) noexcept;
  ~Framebuffer();

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }
  RectI rect() const { return {0, 0, width_, height_}; }
  std::size_t pixelCount() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }

  void clear(Color c);

  /// Unchecked access; caller guarantees 0<=x<width, 0<=y<height.
  Color& at(int x, int y) { return pixels_[index(x, y)]; }
  const Color& at(int x, int y) const { return pixels_[index(x, y)]; }

  /// Checked set: silently ignores out-of-bounds writes (clipping net).
  void set(int x, int y, Color c) {
    if (x >= 0 && x < width_ && y >= 0 && y < height_) at(x, y) = c;
  }

  /// Checked alpha blend.
  void blend(int x, int y, Color c) {
    if (x >= 0 && x < width_ && y >= 0 && y < height_) {
      at(x, y) = Color::over(at(x, y), c);
    }
  }

  /// Checked read; returns `fallback` outside bounds.
  Color get(int x, int y, Color fallback = colors::kBlack) const {
    if (x >= 0 && x < width_ && y >= 0 && y < height_) return at(x, y);
    return fallback;
  }

  const std::vector<Color>& pixels() const { return pixels_; }

  /// Copies `src` so that its (0,0) lands at (dstX, dstY); clips.
  void blit(const Framebuffer& src, int dstX, int dstY);

  /// Row-wise copy of src's `srcRect` so its top-left lands at
  /// (dstX, dstY); clips against both framebuffers.
  void copyRect(const Framebuffer& src, const RectI& srcRect, int dstX,
                int dstY);

  /// FNV-1a hash over raw pixel bytes — used by determinism tests to
  /// compare cluster-rendered frames against single-rank references.
  std::uint64_t contentHash() const;

  /// Count of pixels exactly matching `c`.
  std::size_t countPixels(Color c) const;

  /// Binary PPM (P6) serialization; alpha is dropped.
  std::string toPpm() const;
  bool savePpm(const std::string& path) const;

 private:
  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<Color> pixels_;
};

}  // namespace svq::render
