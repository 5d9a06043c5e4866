// message.h — binary message serialization.
//
// The cluster protocol ships scene models, events and framebuffer tiles
// between ranks. MessageBuffer is a simple explicit-layout writer/reader:
// little-endian fixed-width scalars, length-prefixed strings and bytes.
// Explicit serialization (rather than memcpy of structs) keeps the wire
// format independent of padding and lets tests fuzz round-trips.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/geometry.h"

namespace svq::net {

/// Thrown by read operations that run past the end of the buffer.
class MessageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only writer / cursor-based reader over a byte vector.
class MessageBuffer {
 public:
  MessageBuffer() = default;
  explicit MessageBuffer(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - cursor_; }
  void rewind() { cursor_ = 0; }

  // --- writing -----------------------------------------------------------

  void putU8(std::uint8_t v) { bytes_.push_back(v); }
  void putU32(std::uint32_t v) { putScalar(v); }
  void putU64(std::uint64_t v) { putScalar(v); }
  void putI32(std::int32_t v) { putScalar(v); }
  void putF32(float v) { putScalar(v); }
  void putBool(bool v) { putU8(v ? 1 : 0); }

  void putString(const std::string& s) {
    putU32(static_cast<std::uint32_t>(s.size()));
    append(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  void putVec2(Vec2 v) {
    putF32(v.x);
    putF32(v.y);
  }

  void putRect(const RectI& r) {
    putI32(r.x);
    putI32(r.y);
    putI32(r.w);
    putI32(r.h);
  }

  void putBytes(std::span<const std::uint8_t> data) {
    putU32(static_cast<std::uint32_t>(data.size()));
    append(data.data(), data.size());
  }

  // --- reading -----------------------------------------------------------

  std::uint8_t getU8() { return getScalar<std::uint8_t>(); }
  std::uint32_t getU32() { return getScalar<std::uint32_t>(); }
  std::uint64_t getU64() { return getScalar<std::uint64_t>(); }
  std::int32_t getI32() { return getScalar<std::int32_t>(); }
  float getF32() { return getScalar<float>(); }
  bool getBool() { return getU8() != 0; }

  std::string getString() {
    const std::uint32_t n = getU32();
    require(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + cursor_), n);
    cursor_ += n;
    return s;
  }

  Vec2 getVec2() {
    Vec2 v;
    v.x = getF32();
    v.y = getF32();
    return v;
  }

  RectI getRect() {
    RectI r;
    r.x = getI32();
    r.y = getI32();
    r.w = getI32();
    r.h = getI32();
    return r;
  }

  /// Reads a length-prefixed byte run without copying it. The view points
  /// into this buffer and is valid until the buffer is next written to or
  /// destroyed.
  std::span<const std::uint8_t> getBytesView() {
    const std::uint32_t n = getU32();
    require(n);
    const std::span<const std::uint8_t> out(bytes_.data() + cursor_, n);
    cursor_ += n;
    return out;
  }

 private:
  template <typename T>
  void putScalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    append(raw, sizeof(T));
  }

  template <typename T>
  T getScalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return v;
  }

  void append(const std::uint8_t* data, std::size_t n) {
    // Growing ahead of insert (geometrically, as insert would) keeps
    // insert off its reallocating path, which GCC 12 misreads as a write
    // into zero bytes when the vector starts empty (-Wstringop-overflow).
    if (bytes_.capacity() - bytes_.size() < n) {
      bytes_.reserve(std::max(2 * bytes_.capacity(), bytes_.size() + n));
    }
    bytes_.insert(bytes_.end(), data, data + n);
  }

  void require(std::size_t n) const {
    if (cursor_ + n > bytes_.size()) {
      throw MessageError("message buffer underrun");
    }
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace svq::net
