// Tests for net/message.h — serialization round-trips and underrun safety.
#include "net/message.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace svq::net {
namespace {

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
