// util/binio is the framing layer under every binary format in the repo
// (schema snapshots, full-state snapshots, changefeed records, session
// state files), so its bounds-checking discipline is tested directly: a
// length prefix must never be trusted before SaneCount clamps it, a failed
// read must latch, and a flipped bit inside a framed section must be caught
// by the CRC before any structure is built from the payload.

#include "util/binio.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace pghive::util {
namespace {

TEST(BinioTest, FixedWidthRoundTrip) {
  std::string buf;
  PutU8(&buf, 0xab);
  PutU32(&buf, 0xdeadbeefu);
  PutU64(&buf, 0x0123456789abcdefull);
  PutF32(&buf, 1.5f);
  PutF64(&buf, -2.25);
  ASSERT_EQ(buf.size(), 1u + 4u + 8u + 4u + 8u);

  ByteReader in(buf);
  EXPECT_EQ(in.ReadU8(), 0xab);
  EXPECT_EQ(in.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(in.ReadU64(), 0x0123456789abcdefull);
  EXPECT_EQ(in.ReadF32(), 1.5f);
  EXPECT_EQ(in.ReadF64(), -2.25);
  EXPECT_TRUE(in.ok());
  EXPECT_TRUE(in.AtEnd());
}

TEST(BinioTest, LittleEndianLayoutIsPinned) {
  // The formats are files, so the byte layout is ABI: little-endian,
  // independent of the host.
  std::string buf;
  PutU32(&buf, 0x01020304u);
  EXPECT_EQ(buf, std::string("\x04\x03\x02\x01", 4));
}

TEST(BinioTest, FloatRoundTripIsBitExact) {
  // Checkpoint/resume byte-identity depends on floats surviving bit-for-bit,
  // including values that would change under a decimal round trip.
  for (double v : {0.0, -0.0, 1.0 / 3.0, std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::infinity()}) {
    std::string buf;
    PutF64(&buf, v);
    ByteReader in(buf);
    double back = in.ReadF64();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << v;
  }
  std::string buf;
  PutF64(&buf, std::numeric_limits<double>::quiet_NaN());
  ByteReader in(buf);
  EXPECT_TRUE(std::isnan(in.ReadF64()));
}

TEST(BinioTest, VarintRoundTripAtBoundaries) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (uint64_t v : cases) PutVarint(&buf, v);
  ByteReader in(buf);
  for (uint64_t v : cases) EXPECT_EQ(in.ReadVarint(), v);
  EXPECT_TRUE(in.ok());
  EXPECT_TRUE(in.AtEnd());
}

TEST(BinioTest, StringRoundTripKeepsEmbeddedNul) {
  std::string payload("a\0b", 3);
  std::string buf;
  PutString(&buf, payload);
  PutString(&buf, "");
  ByteReader in(buf);
  std::string a, b;
  ASSERT_TRUE(in.ReadString(&a));
  ASSERT_TRUE(in.ReadString(&b));
  EXPECT_EQ(a, payload);
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(in.AtEnd());
}

TEST(BinioTest, VectorAndSetRoundTrip) {
  std::vector<uint32_t> u32s = {0, 1, 0xffffffffu};
  std::vector<uint64_t> u64s = {42, std::numeric_limits<uint64_t>::max()};
  std::set<uint64_t> set = {7, 9, 11};
  std::vector<float> f32s = {0.0f, -1.5f, 3.25f};
  std::string buf;
  PutU32Vector(&buf, u32s);
  // ReadU64Vector reads the fixed-width layout older writers used.
  PutU64(&buf, u64s.size());
  for (uint64_t x : u64s) PutU64(&buf, x);
  PutU64Set(&buf, set);
  PutF32Vector(&buf, f32s);

  ByteReader in(buf);
  std::vector<uint32_t> u32s_back;
  std::vector<uint64_t> u64s_back;
  std::set<uint64_t> set_back;
  std::vector<float> f32s_back;
  ASSERT_TRUE(in.ReadU32Vector(&u32s_back));
  ASSERT_TRUE(in.ReadU64Vector(&u64s_back));
  ASSERT_TRUE(in.ReadU64Set(&set_back));
  ASSERT_TRUE(in.ReadF32Vector(&f32s_back));
  EXPECT_EQ(u32s_back, u32s);
  EXPECT_EQ(u64s_back, u64s);
  EXPECT_EQ(set_back, set);
  EXPECT_EQ(f32s_back, f32s);
  EXPECT_TRUE(in.AtEnd());
}

TEST(BinioTest, VarintVectorRoundTrip) {
  const std::vector<uint64_t> values = {
      0, 127, 128, 1ull << 32, std::numeric_limits<uint64_t>::max()};
  std::string buf;
  PutVarintVector(&buf, values);
  PutVarintVector(&buf, {});
  // Count, then 1 + 1 + 2 + 5 + 10 bytes of values; then an empty vector.
  EXPECT_EQ(buf.size(), 1u + 19u + 1u);
  ByteReader in(buf);
  std::vector<uint64_t> back, empty;
  ASSERT_TRUE(in.ReadVarintVector(&back));
  ASSERT_TRUE(in.ReadVarintVector(&empty));
  EXPECT_EQ(back, values);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(in.AtEnd());
}

TEST(BinioTest, VarintVectorRejectsMalformedInput) {
  std::string whole;
  PutVarintVector(&whole, {5, 300});
  // A truncated last element: 300 is two bytes, the second one cut off.
  {
    ByteReader in(std::string_view(whole).substr(0, whole.size() - 1));
    std::vector<uint64_t> v;
    EXPECT_FALSE(in.ReadVarintVector(&v));
    EXPECT_FALSE(in.ok());
  }
  // An over-long element: eleven continuation bytes are no 64-bit varint.
  {
    std::string buf;
    PutVarint(&buf, 1);
    buf += std::string(11, '\x80');
    buf += '\x01';
    ByteReader in(buf);
    std::vector<uint64_t> v;
    EXPECT_FALSE(in.ReadVarintVector(&v));
    EXPECT_FALSE(in.ok());
  }
  // A count above the remaining bytes (every element takes at least one) is
  // refused before anything is reserved, even one that would fit in memory.
  for (uint64_t count : {uint64_t{3}, uint64_t{1} << 40,
                         std::numeric_limits<uint64_t>::max()}) {
    std::string buf;
    PutVarint(&buf, count);
    PutVarint(&buf, 7);
    PutVarint(&buf, 8);
    ByteReader in(buf);
    std::vector<uint64_t> v;
    EXPECT_FALSE(in.ReadVarintVector(&v)) << count;
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(v.capacity(), 0u) << count;
  }
}

TEST(BinioTest, ReadPastEndLatchesFailure) {
  std::string buf;
  PutU32(&buf, 7);
  ByteReader in(buf);
  EXPECT_EQ(in.ReadU64(), 0u);  // 4 bytes short.
  EXPECT_FALSE(in.ok());
  // Latched: later reads keep failing and never advance.
  EXPECT_EQ(in.ReadU8(), 0u);
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(BinioTest, SaneCountClampsHostileLengthPrefix) {
  // A hostile count must fail BEFORE any allocation sized by it: a valid
  // count can never exceed the remaining payload.
  std::string buf;
  PutU64(&buf, 123);
  ByteReader in(buf);
  EXPECT_FALSE(in.SaneCount(std::numeric_limits<uint64_t>::max(), 8));
  EXPECT_FALSE(in.ok());

  ByteReader in2(buf);
  EXPECT_FALSE(in2.SaneCount(2, 8));  // 16 bytes claimed, 8 remain.
  EXPECT_FALSE(in2.ok());

  ByteReader in3(buf);
  EXPECT_TRUE(in3.SaneCount(1, 8));
  EXPECT_TRUE(in3.ok());
}

TEST(BinioTest, HostileVectorLengthFailsWithoutAllocating) {
  // A u64 count of 2^61 with a 4-byte element width would overflow n*width
  // arithmetic naively and OOM a trusting reader.
  std::string buf;
  PutVarint(&buf, 1ull << 61);
  PutU32(&buf, 0);
  ByteReader in(buf);
  std::vector<uint32_t> v;
  EXPECT_FALSE(in.ReadU32Vector(&v));
  EXPECT_FALSE(in.ok());
  EXPECT_TRUE(v.empty());
}

TEST(BinioTest, HostileStringLengthFails) {
  std::string buf;
  PutVarint(&buf, 1ull << 40);
  buf += "abc";
  ByteReader in(buf);
  std::string s;
  EXPECT_FALSE(in.ReadString(&s));
  EXPECT_FALSE(in.ok());
}

TEST(BinioTest, Crc32MatchesKnownVector) {
  // The IEEE reflected polynomial's canonical check value.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

/// The plain bit-at-a-time CRC-32 with the same polynomial and seed
/// chaining: the reference the sliced table loop must match exactly.
uint32_t ReferenceCrc32(const uint8_t* p, size_t size, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xffffffffu;
}

std::vector<uint8_t> PseudoRandomBytes(size_t n) {
  std::vector<uint8_t> bytes(n);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint8_t& b : bytes) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<uint8_t>(x >> 56);
  }
  return bytes;
}

TEST(BinioTest, Crc32MatchesReferenceAtEveryLengthAndOffset) {
  // Every tail length of the 8-byte stride, at every alignment.
  const std::vector<uint8_t> bytes = PseudoRandomBytes(1024 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len, 0))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(BinioTest, Crc32ChainsAcrossSplitCalls) {
  // Crc32(b, Crc32(a)) == Crc32(a + b) for every split, and a seeded call
  // matches the reference seeded the same way.
  const std::vector<uint8_t> bytes = PseudoRandomBytes(77);
  const uint32_t whole = ReferenceCrc32(bytes.data(), bytes.size(), 0);
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, 0x1234u),
              ReferenceCrc32(bytes.data() + split, bytes.size() - split,
                             0x1234u));
  }
}

TEST(BinioTest, SectionRoundTrip) {
  std::string out;
  AppendSection(&out, /*id=*/3, "hello");
  AppendSection(&out, /*id=*/9, "");
  ByteReader in(out);
  uint32_t id = 0;
  std::string_view payload;
  ASSERT_TRUE(ReadSection(&in, &id, &payload));
  EXPECT_EQ(id, 3u);
  EXPECT_EQ(payload, "hello");
  ASSERT_TRUE(ReadSection(&in, &id, &payload));
  EXPECT_EQ(id, 9u);
  EXPECT_TRUE(payload.empty());
  EXPECT_TRUE(in.AtEnd());
}

TEST(BinioTest, SectionCatchesEverySingleBitFlip) {
  std::string out;
  AppendSection(&out, /*id=*/1, "payload bytes under test");
  // Flip every bit of the payload region in turn: the CRC must catch each
  // one. (Header flips may also surface as truncation; either way the read
  // fails.)
  for (size_t byte = 0; byte < out.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = out;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      ByteReader in(corrupt);
      uint32_t id = 0;
      std::string_view payload;
      bool read_ok = ReadSection(&in, &id, &payload);
      // The id field is not CRC-protected — a flip there still yields a
      // structurally valid (unknown) section; everything else must fail.
      if (byte < 4) {
        EXPECT_TRUE(read_ok) << "byte " << byte << " bit " << bit;
        EXPECT_NE(id, 1u);
      } else {
        EXPECT_FALSE(read_ok) << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(BinioTest, SectionFailsAtEveryTruncationPoint) {
  std::string out;
  AppendSection(&out, /*id=*/2, "0123456789");
  for (size_t len = 0; len < out.size(); ++len) {
    ByteReader in(std::string_view(out).substr(0, len));
    uint32_t id = 0;
    std::string_view payload;
    EXPECT_FALSE(ReadSection(&in, &id, &payload)) << "len " << len;
    EXPECT_FALSE(in.ok()) << "len " << len;
  }
}

TEST(BinioTest, SectionWithHostileLengthFails) {
  // Hand-build a section claiming a huge payload length.
  std::string out;
  PutU32(&out, 1);
  PutU64(&out, 1ull << 62);
  out += "tiny";
  ByteReader in(out);
  uint32_t id = 0;
  std::string_view payload;
  EXPECT_FALSE(ReadSection(&in, &id, &payload));
  EXPECT_FALSE(in.ok());
}

}  // namespace
}  // namespace pghive::util
