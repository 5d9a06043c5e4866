#include "render/framebuffer.h"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <utility>

#include "util/logging.h"

namespace svq::render {

namespace {

// Pixel-storage recycler. The wall master decodes 24 tiles and composes
// two 50 MB eye images every frame. A fresh buffer that size comes from
// mmap and faults in 4 KiB at a time, which cost more than the pixel
// copies themselves. Large buffers are therefore parked here when their
// framebuffer lets go of them and handed to the next framebuffer of
// exactly the same pixel count. The byte cap bounds what stays mapped;
// 256 MiB holds one paper-wall frame's tiles and composites.
constexpr std::size_t kRecycleMinBytes = std::size_t{1} << 20;
constexpr std::size_t kRecycleCapBytes = std::size_t{256} << 20;

struct PixelRecycler {
  std::mutex mutex;
  std::vector<std::vector<Color>> parked;  // oldest first
  std::size_t bytes = 0;
};

PixelRecycler& recycler() {
  // Never destroyed: framebuffers owned by other statics may outlive it.
  static auto* instance = new PixelRecycler;
  return *instance;
}

std::size_t storageBytes(const std::vector<Color>& pixels) {
  return pixels.capacity() * sizeof(Color);
}

/// Parked storage for exactly `count` pixels, with unspecified contents,
/// or an empty vector when none is parked.
std::vector<Color> takePixels(std::size_t count) {
  std::vector<Color> out;
  if (count * sizeof(Color) < kRecycleMinBytes) return out;
  PixelRecycler& r = recycler();
  std::lock_guard lock(r.mutex);
  // Newest first: the most recently released buffer is the warmest.
  for (auto it = r.parked.end(); it != r.parked.begin();) {
    --it;
    if (it->capacity() == count) {
      out = std::move(*it);
      r.parked.erase(it);
      r.bytes -= storageBytes(out);
      break;
    }
  }
  return out;
}

/// Parks large storage for reuse, evicting the oldest past the byte cap.
/// Storage that is not parked stays with `pixels` and is freed with it.
void releasePixels(std::vector<Color>& pixels) noexcept {
  const std::size_t bytes = storageBytes(pixels);
  if (bytes < kRecycleMinBytes || bytes > kRecycleCapBytes) return;
  try {
    PixelRecycler& r = recycler();
    std::lock_guard lock(r.mutex);
    r.parked.push_back(std::move(pixels));
    r.bytes += bytes;
    while (r.bytes > kRecycleCapBytes) {
      r.bytes -= storageBytes(r.parked.front());
      r.parked.erase(r.parked.begin());
    }
  } catch (...) {
    // No room to park it (allocation or lock failure): free it instead.
  }
}

}  // namespace

// assign() reuses taken storage in place: it only allocates when
// takePixels() found none.
Framebuffer::Framebuffer(int width, int height, Color fill)
    : width_(std::max(0, width)),
      height_(std::max(0, height)),
      pixels_(takePixels(pixelCount())) {
  pixels_.assign(pixelCount(), fill);
}

// Taken storage keeps its stale pixels for the caller to overwrite;
// resize() only value-initializes what takePixels() could not supply.
Framebuffer::Framebuffer(int width, int height, ForOverwrite)
    : width_(std::max(0, width)),
      height_(std::max(0, height)),
      pixels_(takePixels(pixelCount())) {
  pixels_.resize(pixelCount());
}

Framebuffer::Framebuffer(const Framebuffer& other)
    : width_(other.width_),
      height_(other.height_),
      pixels_(takePixels(other.pixels_.size())) {
  pixels_.assign(other.pixels_.begin(), other.pixels_.end());
}

Framebuffer::Framebuffer(Framebuffer&& other) noexcept
    : width_(std::exchange(other.width_, 0)),
      height_(std::exchange(other.height_, 0)),
      pixels_(std::move(other.pixels_)) {}

Framebuffer& Framebuffer::operator=(const Framebuffer& other) {
  if (this == &other) return *this;
  if (pixels_.size() != other.pixels_.size()) {
    // Other size: swap in storage of the right size, parking this one.
    return *this = Framebuffer(other);
  }
  std::copy(other.pixels_.begin(), other.pixels_.end(), pixels_.begin());
  width_ = other.width_;
  height_ = other.height_;
  return *this;
}

Framebuffer& Framebuffer::operator=(Framebuffer&& other) noexcept {
  if (this == &other) return *this;
  releasePixels(pixels_);
  pixels_ = std::move(other.pixels_);
  width_ = std::exchange(other.width_, 0);
  height_ = std::exchange(other.height_, 0);
  return *this;
}

Framebuffer::~Framebuffer() { releasePixels(pixels_); }

void Framebuffer::clear(Color c) {
  std::fill(pixels_.begin(), pixels_.end(), c);
}

void Framebuffer::blit(const Framebuffer& src, int dstX, int dstY) {
  copyRect(src, src.rect(), dstX, dstY);
}

void Framebuffer::copyRect(const Framebuffer& src, const RectI& srcRect,
                           int dstX, int dstY) {
  const RectI from = srcRect.clipped(src.rect());
  if (from.empty()) return;
  // Destination rect for the clipped source, then clip to this buffer.
  const int offX = dstX + (from.x - srcRect.x);
  const int offY = dstY + (from.y - srcRect.y);
  const RectI target = RectI{offX, offY, from.w, from.h}.clipped(rect());
  if (target.empty()) return;
  for (int y = 0; y < target.h; ++y) {
    const int sy = from.y + (target.y - offY) + y;
    const int sx = from.x + (target.x - offX);
    const Color* srcRow = &src.pixels_[src.index(sx, sy)];
    Color* dstRow = &pixels_[index(target.x, target.y + y)];
    std::copy(srcRow, srcRow + target.w, dstRow);
  }
}

std::uint64_t Framebuffer::contentHash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const Color& c : pixels_) {
    mix(c.r);
    mix(c.g);
    mix(c.b);
    mix(c.a);
  }
  return h;
}

std::size_t Framebuffer::countPixels(Color c) const {
  return static_cast<std::size_t>(
      std::count(pixels_.begin(), pixels_.end(), c));
}

std::string Framebuffer::toPpm() const {
  std::string out = "P6\n" + std::to_string(width_) + " " +
                    std::to_string(height_) + "\n255\n";
  out.reserve(out.size() + pixelCount() * 3);
  for (const Color& c : pixels_) {
    out.push_back(static_cast<char>(c.r));
    out.push_back(static_cast<char>(c.g));
    out.push_back(static_cast<char>(c.b));
  }
  return out;
}

bool Framebuffer::savePpm(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    SVQ_ERROR << "cannot open " << path << " for writing";
    return false;
  }
  const std::string data = toPpm();
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

}  // namespace svq::render
