#include "util/serde.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace amac::util {
namespace {

TEST(Serde, UvarintRoundTripSmall) {
  Writer w;
  w.put_uvarint(0);
  w.put_uvarint(1);
  w.put_uvarint(127);
  Reader r(w.buffer());
  EXPECT_EQ(r.get_uvarint(), 0u);
  EXPECT_EQ(r.get_uvarint(), 1u);
  EXPECT_EQ(r.get_uvarint(), 127u);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, UvarintSingleByteBelow128) {
  // The O(log n) message-size accounting depends on small ids being small.
  Writer w;
  w.put_uvarint(127);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.put_uvarint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Serde, UvarintRoundTripBoundaries) {
  const std::uint64_t cases[] = {
      127, 128, 16383, 16384, (1ULL << 32) - 1, 1ULL << 32,
      std::numeric_limits<std::uint64_t>::max()};
  Writer w;
  for (const auto c : cases) w.put_uvarint(c);
  Reader r(w.buffer());
  for (const auto c : cases) EXPECT_EQ(r.get_uvarint(), c);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, SvarintRoundTrip) {
  const std::int64_t cases[] = {0, -1, 1, -64, 63, -65, 64,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  Writer w;
  for (const auto c : cases) w.put_svarint(c);
  Reader r(w.buffer());
  for (const auto c : cases) EXPECT_EQ(r.get_svarint(), c);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, ZigzagKeepsSmallMagnitudesSmall) {
  Writer w;
  w.put_svarint(-1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Serde, BytesAndStrings) {
  Writer w;
  w.put_bytes(Buffer{1, 2, 3});
  w.put_string("hello");
  w.put_bytes(Buffer{});
  w.put_string("");
  Reader r(w.buffer());
  EXPECT_EQ(r.get_bytes(), (Buffer{1, 2, 3}));
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_bytes(), Buffer{});
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, BoolAndU8) {
  Writer w;
  w.put_bool(true);
  w.put_bool(false);
  w.put_u8(0xAB);
  Reader r(w.buffer());
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_u8(), 0xAB);
}

TEST(Serde, MixedSequenceRoundTrip) {
  Writer w;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    w.put_uvarint(i * i);
    w.put_svarint(-static_cast<std::int64_t>(i));
    w.put_bool(i % 3 == 0);
  }
  Reader r(w.buffer());
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(r.get_uvarint(), i * i);
    EXPECT_EQ(r.get_svarint(), -static_cast<std::int64_t>(i));
    EXPECT_EQ(r.get_bool(), i % 3 == 0);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, RemainingTracksPosition) {
  Writer w;
  w.put_u8(1);
  w.put_u8(2);
  Reader r(w.buffer());
  EXPECT_EQ(r.remaining(), 2u);
  (void)r.get_u8();
  EXPECT_EQ(r.remaining(), 1u);
  (void)r.get_u8();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serde, ViewReadsLengthPrefixedBytesInPlace) {
  Writer w;
  w.put_bytes(Buffer{0x05, 0x81, 0x01});
  w.put_bytes(Buffer{});
  w.put_u8(9);
  Reader r(w.buffer());
  EXPECT_EQ(r.remaining(), 6u);

  Reader view = r.get_view();
  EXPECT_EQ(view.remaining(), 3u);
  EXPECT_EQ(r.remaining(), 2u);  // the parent skipped prefix and bytes
  EXPECT_EQ(view.get_u8(), 5u);
  EXPECT_EQ(view.get_uvarint(), 129u);
  EXPECT_EQ(view.remaining(), 0u);
  EXPECT_TRUE(view.exhausted());

  Reader empty = r.get_view();
  EXPECT_TRUE(empty.exhausted());
  EXPECT_EQ(empty.remaining(), 0u);
  EXPECT_EQ(r.get_u8(), 9u);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeDeathTest, ViewLengthPastTheEndAsserts) {
  // Same bounds assertion as get_bytes: a prefix longer than the bytes
  // that remain is malformed input.
  const Buffer truncated{3, 0xAA, 0xBB};
  EXPECT_DEATH(
      {
        Reader r(truncated);
        (void)r.get_view();
      },
      "len <= remaining");
  EXPECT_DEATH(
      {
        Reader r(truncated);
        (void)r.get_bytes();
      },
      "len <= remaining");
}

TEST(SerdeDeathTest, ViewNeverReadsPastItsOwnEnd) {
  // The bytes after a view belong to its parent, not to the view.
  Writer w;
  w.put_bytes(Buffer{7});
  w.put_u8(8);
  EXPECT_DEATH(
      {
        Reader r(w.buffer());
        Reader view = r.get_view();
        (void)view.get_u8();
        (void)view.get_u8();
      },
      "pos_ < size_");
}

TEST(Serde, TakeMovesBuffer) {
  Writer w;
  w.put_uvarint(42);
  Buffer b = std::move(w).take();
  Reader r(b);
  EXPECT_EQ(r.get_uvarint(), 42u);
}

}  // namespace
}  // namespace amac::util
