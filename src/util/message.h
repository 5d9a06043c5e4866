// message.h — the one byte codec.
//
// Every byte stream in the repo is written and read through MessageBuffer:
// SVQT datasets, SVQS shard-store headers, footers and tails, SVQR
// recordings, session snapshots, UI events, and the cluster's scene and
// tile packets. It is an explicit-layout writer/reader of fixed-width
// scalars in host byte order (little-endian on every supported target),
// length-prefixed strings and bytes, and unprefixed raw runs. Explicit
// serialization (rather than memcpy of structs) keeps each format
// independent of padding and lets tests fuzz round-trips.
//
// Error contract: every read that would run past the end, and every count
// that the bytes left could not hold, throws MessageError. Each public
// decoder turns that into its own result (std::nullopt, false, or a thrown
// MessageError for packets), so a hostile length field never sizes an
// allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/geometry.h"

namespace svq::util {

/// Thrown by read operations that run past the end of the buffer, and by
/// getCount() for a count the buffer could not hold.
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
    putBytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
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

  /// Appends `data` as is, with no length prefix: the reader must know
  /// the length (a fixed-size record, or a count read before it).
  void putRaw(std::span<const std::uint8_t> data) {
    // Growing ahead of insert (geometrically, as insert would) keeps
    // insert off its reallocating path, which GCC 12 misreads as a write
    // into zero bytes when the vector starts empty (-Wstringop-overflow).
    if (bytes_.capacity() - bytes_.size() < data.size()) {
      bytes_.reserve(
          std::max(2 * bytes_.capacity(), bytes_.size() + data.size()));
    }
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  void putBytes(std::span<const std::uint8_t> data) {
    putU32(static_cast<std::uint32_t>(data.size()));
    putRaw(data);
  }

  // --- reading -----------------------------------------------------------

  std::uint8_t getU8() { return getScalar<std::uint8_t>(); }
  std::uint32_t getU32() { return getScalar<std::uint32_t>(); }
  std::uint64_t getU64() { return getScalar<std::uint64_t>(); }
  std::int32_t getI32() { return getScalar<std::int32_t>(); }
  float getF32() { return getScalar<float>(); }
  bool getBool() { return getU8() != 0; }

  std::string getString() {
    const std::span<const std::uint8_t> s = getBytesView();
    return {reinterpret_cast<const char*>(s.data()), s.size()};
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

  /// Reads an element count and rejects one that the bytes left could not
  /// hold at `minElemBytes` (> 0) each, so a forged count never sizes a
  /// reserve() or drives a loop past the payload.
  std::uint32_t getCount(std::size_t minElemBytes) {
    const std::uint32_t n = getU32();
    if (n > remaining() / minElemBytes) {
      throw MessageError("element count exceeds the message");
    }
    return n;
  }

  /// Consumes the next `n` bytes without copying them. The view points into
  /// this buffer and is valid until the buffer is next written to or
  /// destroyed.
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > remaining()) throw MessageError("message buffer underrun");
    const std::span<const std::uint8_t> out(bytes_.data() + cursor_, n);
    cursor_ += n;
    return out;
  }

  /// Reads a length-prefixed byte run without copying it (see take()).
  std::span<const std::uint8_t> getBytesView() { return take(getU32()); }

 private:
  template <typename T>
  void putScalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    putRaw(raw);
  }

  template <typename T>
  T getScalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    std::memcpy(&v, take(sizeof(T)).data(), sizeof(T));
    return v;
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace svq::util
