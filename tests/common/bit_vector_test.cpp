#include "common/bit_vector.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tmsim {
namespace {

TEST(BitVector, StartsAllZero) {
  BitVector v(130);
  EXPECT_EQ(v.width(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < 130; ++i) {
    EXPECT_FALSE(v.get_bit(i));
  }
}

TEST(BitVector, SetAndGetSingleBits) {
  BitVector v(70);
  v.set_bit(0, true);
  v.set_bit(63, true);
  v.set_bit(64, true);
  v.set_bit(69, true);
  EXPECT_TRUE(v.get_bit(0));
  EXPECT_TRUE(v.get_bit(63));
  EXPECT_TRUE(v.get_bit(64));
  EXPECT_TRUE(v.get_bit(69));
  EXPECT_FALSE(v.get_bit(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.set_bit(63, false);
  EXPECT_FALSE(v.get_bit(63));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVector, FieldRoundTripWithinWord) {
  BitVector v(64);
  v.set_field(3, 11, 0x5a5u);
  EXPECT_EQ(v.get_field(3, 11), 0x5a5u);
  EXPECT_EQ(v.get_field(0, 3), 0u);
  EXPECT_EQ(v.get_field(14, 8), 0u);
}

TEST(BitVector, FieldSpanningWordBoundary) {
  BitVector v(128);
  v.set_field(60, 10, 0x2ffu);
  EXPECT_EQ(v.get_field(60, 10), 0x2ffu);
  // Neighbouring bits untouched.
  EXPECT_EQ(v.get_field(50, 10), 0u);
  EXPECT_EQ(v.get_field(70, 10), 0u);
  // Overwrite across the boundary.
  v.set_field(60, 10, 0x155u);
  EXPECT_EQ(v.get_field(60, 10), 0x155u);
}

TEST(BitVector, FullWidth64Field) {
  BitVector v(200);
  const std::uint64_t pattern = 0xdeadbeefcafebabeull;
  v.set_field(64, 64, pattern);
  EXPECT_EQ(v.get_field(64, 64), pattern);
  v.set_field(1, 64, pattern);
  EXPECT_EQ(v.get_field(1, 64), pattern);
}

TEST(BitVector, RejectsOutOfRangeAccess) {
  BitVector v(20);
  EXPECT_THROW(v.get_bit(20), Error);
  EXPECT_THROW(v.set_bit(20, true), Error);
  EXPECT_THROW(v.get_field(15, 6), Error);
  EXPECT_THROW(v.set_field(15, 6, 0), Error);
  EXPECT_THROW(v.get_field(0, 0), Error);
  EXPECT_THROW((void)v.get_field(0, 65), Error);
}

TEST(BitVector, RejectsValueWiderThanField) {
  BitVector v(32);
  EXPECT_THROW(v.set_field(0, 4, 0x10u), Error);
  v.set_field(0, 4, 0xfu);  // max value fits
  EXPECT_EQ(v.get_field(0, 4), 0xfu);
}

TEST(BitVector, EqualityComparesWidthAndBits) {
  BitVector a(65);
  BitVector b(65);
  EXPECT_EQ(a, b);
  b.set_bit(64, true);
  EXPECT_NE(a, b);
  EXPECT_NE(BitVector(64), BitVector(65));
}

TEST(BitVector, CopyBitsMovesArbitraryRanges) {
  BitVector src(100);
  src.set_field(10, 30, 0x2aaaaaaau);
  BitVector dst(100);
  dst.copy_bits(50, src, 10, 30);
  EXPECT_EQ(dst.get_field(50, 30), 0x2aaaaaaau);
  EXPECT_EQ(dst.get_field(0, 50), 0u);
}

TEST(BitVector, ClearZeroesEverything) {
  BitVector v(90);
  v.set_field(80, 10, 0x3ffu);
  v.clear();
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, HexString) {
  BitVector v(12);
  v.set_field(0, 12, 0xabcu);
  EXPECT_EQ(v.to_hex(), "abc");
  EXPECT_EQ(BitVector(8).to_hex(), "00");
  EXPECT_EQ(BitVector(0).to_hex(), "0");
}

TEST(BitVector, RandomizedFieldRoundTrip) {
  // Property: any (offset, width, value) written is read back exactly and
  // never clobbers other bits (checked via a shadow model).
  SplitMix64 rng(42);
  BitVector v(300);
  std::vector<bool> shadow(300, false);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t width = 1 + rng.next_below(64);
    const std::size_t offset = rng.next_below(300 - width + 1);
    std::uint64_t value = rng.next();
    if (width < 64) value &= (1ull << width) - 1;
    v.set_field(offset, width, value);
    for (std::size_t i = 0; i < width; ++i) {
      shadow[offset + i] = (value >> i) & 1;
    }
    EXPECT_EQ(v.get_field(offset, width), value);
    if (iter % 100 == 0) {
      for (std::size_t i = 0; i < 300; ++i) {
        ASSERT_EQ(v.get_bit(i), shadow[i]) << "bit " << i;
      }
    }
  }
}

TEST(BitVector, StoreWordsReplacesEveryWord) {
  BitVector v(100);
  v.set_field(0, 64, 0xffffffffffffffffull);
  const std::vector<std::uint64_t> src = {0x0123456789abcdefull,
                                          0xfffffffffull};
  v.store_words(src);
  EXPECT_EQ(v.get_field(0, 64), 0x0123456789abcdefull);
  EXPECT_EQ(v.get_field(64, 36), 0xfffffffffull);
}

TEST(BitVector, StoreWordsRejectsWrongCountAndPaddingBits) {
  BitVector v(100);
  const std::vector<std::uint64_t> one = {1};
  EXPECT_THROW(v.store_words(one), Error);
  // Bit 100 is the first padding bit of the second word.
  const std::vector<std::uint64_t> padded = {0, std::uint64_t{1} << 36};
  EXPECT_THROW(v.store_words(padded), Error);
  EXPECT_EQ(v.popcount(), 0u);
  BitVector full(128);
  const std::vector<std::uint64_t> all = {~std::uint64_t{0}, ~std::uint64_t{0}};
  full.store_words(all);
  EXPECT_EQ(full.popcount(), 128u);
}

TEST(BitVector, MakeBitVectorHelper) {
  const BitVector v = make_bit_vector(10, 0x2ffu);
  EXPECT_EQ(v.get_field(0, 10), 0x2ffu);
  EXPECT_THROW(make_bit_vector(4, 0x1fu), Error);
}

}  // namespace
}  // namespace tmsim
