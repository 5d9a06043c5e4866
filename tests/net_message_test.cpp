// Tests for the byte codec (util/message.h, which net/message.h names for
// the cluster protocol) — serialization round-trips, underrun safety and
// payload-bounded counts.
#include "net/message.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "util/rng.h"

// Largest single operator-new request since the last reset: shows that a
// forged count never reaches the allocator.
namespace {
std::atomic<std::size_t> gLargestAlloc{0};
}  // namespace

// The new and both deletes stay out of line, so the compiler never pairs
// a malloc or free it can see with the matching delete or new.
[[gnu::noinline]] void* operator new(std::size_t n) {
  std::size_t seen = gLargestAlloc.load(std::memory_order_relaxed);
  while (n > seen && !gLargestAlloc.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace svq::net {
namespace {

/// A count field followed by `payload` filler bytes, cursor at the start.
MessageBuffer countedPayload(std::uint32_t count, std::size_t payload) {
  MessageBuffer buf;
  buf.putU32(count);
  buf.putRaw(std::vector<std::uint8_t>(payload, 0xAB));
  buf.rewind();
  return buf;
}

TEST(MessageBufferTest, ScalarRoundTrip) {
  MessageBuffer buf;
  buf.putU8(7);
  buf.putU32(123456789u);
  buf.putU64(0xDEADBEEFCAFEBABEULL);
  buf.putI32(-42);
  buf.putF32(3.5f);
  buf.putBool(true);
  buf.putBool(false);

  buf.rewind();
  EXPECT_EQ(buf.getU8(), 7);
  EXPECT_EQ(buf.getU32(), 123456789u);
  EXPECT_EQ(buf.getU64(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(buf.getI32(), -42);
  EXPECT_FLOAT_EQ(buf.getF32(), 3.5f);
  EXPECT_TRUE(buf.getBool());
  EXPECT_FALSE(buf.getBool());
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(MessageBufferTest, StringRoundTrip) {
  MessageBuffer buf;
  buf.putString("hello, wall");
  buf.putString("");
  buf.putString(std::string(1000, 'x'));
  buf.rewind();
  EXPECT_EQ(buf.getString(), "hello, wall");
  EXPECT_EQ(buf.getString(), "");
  EXPECT_EQ(buf.getString(), std::string(1000, 'x'));
}

TEST(MessageBufferTest, StringWithEmbeddedNull) {
  MessageBuffer buf;
  std::string s = "a";
  s.push_back('\0');
  s += "b";
  buf.putString(s);
  buf.rewind();
  EXPECT_EQ(buf.getString(), s);
}

TEST(MessageBufferTest, Vec2AndRectRoundTrip) {
  MessageBuffer buf;
  buf.putVec2({1.5f, -2.25f});
  buf.putRect({10, -20, 300, 400});
  buf.rewind();
  EXPECT_EQ(buf.getVec2(), (Vec2{1.5f, -2.25f}));
  EXPECT_EQ(buf.getRect(), (RectI{10, -20, 300, 400}));
}

TEST(MessageBufferTest, BytesRoundTrip) {
  MessageBuffer buf;
  const std::vector<std::uint8_t> data{1, 2, 3, 255, 0, 128};
  buf.putBytes(data);
  buf.putU8(7);
  buf.rewind();
  const std::span<const std::uint8_t> view = buf.getBytesView();
  EXPECT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()), data);
  // Zero-copy: the view aliases the buffer's storage, and the cursor moves
  // past the run.
  EXPECT_EQ(view.data(), buf.bytes().data() + sizeof(std::uint32_t));
  EXPECT_EQ(buf.getU8(), 7u);
}

TEST(MessageBufferTest, UnderrunThrows) {
  MessageBuffer buf;
  buf.putU8(1);
  buf.rewind();
  buf.getU8();
  EXPECT_THROW(buf.getU32(), MessageError);
}

TEST(MessageBufferTest, StringUnderrunThrows) {
  MessageBuffer buf;
  buf.putU32(100);  // claims 100 bytes follow; none do
  buf.rewind();
  EXPECT_THROW(buf.getString(), MessageError);
}

TEST(MessageBufferTest, BytesUnderrunThrows) {
  MessageBuffer buf;
  buf.putU32(50);
  buf.putU8(1);
  buf.rewind();
  EXPECT_THROW(buf.getBytesView(), MessageError);
}

TEST(MessageBufferTest, GetCountAcceptsExactlyWhatTheBytesLeftHold) {
  for (const std::size_t elem : {1u, 3u, 12u, 36u}) {
    for (const std::size_t payload : {1000u, 1001u, 1011u, 4096u}) {
      SCOPED_TRACE(testing::Message() << "elem " << elem << " payload "
                                      << payload);
      const auto fits = static_cast<std::uint32_t>(payload / elem);
      MessageBuffer ok = countedPayload(fits, payload);
      EXPECT_EQ(ok.getCount(elem), fits);
      EXPECT_EQ(ok.remaining(), payload);  // the cursor is past the count

      MessageBuffer over = countedPayload(fits + 1, payload);
      gLargestAlloc.store(0);
      EXPECT_THROW(over.getCount(elem), MessageError);
      EXPECT_LE(gLargestAlloc.load(), over.size());
    }
  }
  MessageBuffer hostile = countedPayload(0xFFFFFFFFu, 1000);
  gLargestAlloc.store(0);
  EXPECT_THROW(hostile.getCount(1), MessageError);
  EXPECT_LE(gLargestAlloc.load(), hostile.size());
  MessageBuffer empty = countedPayload(0, 0);
  EXPECT_EQ(empty.getCount(8), 0u);
  EXPECT_THROW(empty.getCount(8), MessageError);  // no count left to read
}

TEST(MessageBufferTest, TakeAtTheEndAndPastIt) {
  MessageBuffer buf;
  buf.putU32(5);
  buf.rewind();
  buf.getU32();
  EXPECT_TRUE(buf.take(0).empty());
  EXPECT_THROW(buf.take(buf.remaining() + 1), MessageError);

  MessageBuffer some = countedPayload(0, 6);
  some.getU32();
  EXPECT_THROW(some.take(some.remaining() + 1), MessageError);
  EXPECT_EQ(some.remaining(), 6u);  // a failed take consumes nothing
  EXPECT_EQ(some.take(6).size(), 6u);
  EXPECT_TRUE(some.take(0).empty());
}

TEST(MessageBufferTest, PutRawTakeRoundTripAndMixWithLengthPrefixedRuns) {
  const std::vector<std::uint8_t> raw{9, 0, 255, 17};
  const std::vector<std::uint8_t> run{1, 2, 3};
  MessageBuffer buf;
  buf.putRaw(raw);
  buf.putBytes(run);
  buf.putRaw({});
  buf.putRaw(run);
  EXPECT_EQ(buf.size(), raw.size() + 4 + 2 * run.size());
  buf.rewind();
  const std::span<const std::uint8_t> a = buf.take(raw.size());
  EXPECT_EQ(std::vector<std::uint8_t>(a.begin(), a.end()), raw);
  EXPECT_EQ(a.data(), buf.bytes().data());  // a view, not a copy
  const std::span<const std::uint8_t> b = buf.getBytesView();
  EXPECT_EQ(std::vector<std::uint8_t>(b.begin(), b.end()), run);
  const std::span<const std::uint8_t> c = buf.take(run.size());
  EXPECT_EQ(std::vector<std::uint8_t>(c.begin(), c.end()), run);
  EXPECT_EQ(buf.remaining(), 0u);

  // A length-prefixed run read back as a raw u32 length plus take().
  buf.rewind();
  buf.take(raw.size());
  const std::uint32_t n = buf.getU32();
  EXPECT_EQ(n, run.size());
  const std::span<const std::uint8_t> d = buf.take(n);
  EXPECT_EQ(std::vector<std::uint8_t>(d.begin(), d.end()), run);
}

TEST(MessageBufferTest, RewindAllowsRereading) {
  MessageBuffer buf;
  buf.putU32(9);
  buf.rewind();
  EXPECT_EQ(buf.getU32(), 9u);
  buf.rewind();
  EXPECT_EQ(buf.getU32(), 9u);
}

TEST(MessageBufferTest, ConstructFromBytes) {
  MessageBuffer src;
  src.putU32(77);
  MessageBuffer copy(src.bytes());
  EXPECT_EQ(copy.getU32(), 77u);
}

TEST(MessageBufferTest, FuzzMixedRoundTrip) {
  Rng rng(0xABCD);
  for (int iter = 0; iter < 50; ++iter) {
    MessageBuffer buf;
    std::vector<int> kinds;
    std::vector<std::uint64_t> u64s;
    std::vector<std::string> strings;
    std::vector<float> floats;
    for (int i = 0; i < 40; ++i) {
      const int kind = rng.rangeInt(0, 2);
      kinds.push_back(kind);
      switch (kind) {
        case 0: {
          const std::uint64_t v = rng.next();
          u64s.push_back(v);
          buf.putU64(v);
          break;
        }
        case 1: {
          std::string s;
          const int len = rng.rangeInt(0, 20);
          for (int c = 0; c < len; ++c) {
            s.push_back(static_cast<char>(rng.rangeInt(32, 126)));
          }
          strings.push_back(s);
          buf.putString(s);
          break;
        }
        case 2: {
          const float f = rng.uniform(-1e6f, 1e6f);
          floats.push_back(f);
          buf.putF32(f);
          break;
        }
      }
    }
    buf.rewind();
    std::size_t iu = 0, is = 0, ifl = 0;
    for (int kind : kinds) {
      switch (kind) {
        case 0: EXPECT_EQ(buf.getU64(), u64s[iu++]); break;
        case 1: EXPECT_EQ(buf.getString(), strings[is++]); break;
        case 2: EXPECT_FLOAT_EQ(buf.getF32(), floats[ifl++]); break;
      }
    }
    EXPECT_EQ(buf.remaining(), 0u);
  }
}

}  // namespace
}  // namespace svq::net
