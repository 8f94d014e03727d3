#include <gtest/gtest.h>

#include "support/bits.hpp"
#include "support/text.hpp"

namespace pscp {
namespace {

TEST(Bits, MaskBits) {
  EXPECT_EQ(maskBits(0), 0u);
  EXPECT_EQ(maskBits(1), 1u);
  EXPECT_EQ(maskBits(8), 0xFFu);
  EXPECT_EQ(maskBits(32), 0xFFFFFFFFu);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(signExtend(0xFF, 8), -1);
  EXPECT_EQ(signExtend(0x7F, 8), 127);
  EXPECT_EQ(signExtend(0x80, 8), -128);
  EXPECT_EQ(signExtend(1, 1), -1);
}

TEST(Bits, BitsFor) {
  EXPECT_EQ(bitsFor(1), 1);
  EXPECT_EQ(bitsFor(2), 1);
  EXPECT_EQ(bitsFor(3), 2);
  EXPECT_EQ(bitsFor(256), 8);
  EXPECT_EQ(bitsFor(257), 9);
}

TEST(BitVec, SetTestResetAcrossWordBoundary) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130);
  EXPECT_EQ(v.wordCount(), 3u);
  EXPECT_TRUE(v.none());
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(129);
  EXPECT_TRUE(v.test(0) && v.test(63) && v.test(64) && v.test(129));
  EXPECT_FALSE(v.test(1) || v.test(65) || v.test(128));
  EXPECT_TRUE(v.any());
  v.set(63, false);
  EXPECT_FALSE(v.test(63));
  v.reset(129);
  EXPECT_FALSE(v.test(129));
  v.clear();
  EXPECT_TRUE(v.none());
}

TEST(BitVec, ExtractReadsFieldsAcrossWords) {
  BitVec v(128);
  // Place 0b1011 at bit 62 — straddles the word 0 / word 1 boundary.
  v.set(62);
  v.set(63);
  v.set(65);
  EXPECT_EQ(v.extract(62, 4), 0b1011u);
  EXPECT_EQ(v.extract(0, 8), 0u);
  EXPECT_EQ(v.extract(62, 1), 1u);
}

TEST(BitVec, ForEachSetBitAscending) {
  BitVec v(200);
  for (int b : {5, 63, 64, 127, 128, 199}) v.set(b);
  std::vector<int> seen;
  v.forEachSetBit([&](int b) { seen.push_back(b); });
  EXPECT_EQ(seen, (std::vector<int>{5, 63, 64, 127, 128, 199}));
}

TEST(BitVec, IntersectsAndOrWithAnd) {
  BitVec a(70), b(70), acc(70);
  a.set(3);
  a.set(69);
  b.set(69);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(acc.intersects(a));
  acc.orWithAnd(a, b);  // acc |= a & b
  EXPECT_TRUE(acc.test(69));
  EXPECT_FALSE(acc.test(3));
}

TEST(BitVec, BoolsRoundTripAndEquality) {
  const std::vector<bool> bools = {true, false, true, true, false};
  const BitVec v = BitVec::fromBools(bools);
  EXPECT_EQ(v.toBools(), bools);
  EXPECT_EQ(v, BitVec::fromBools(bools));
  BitVec w = v;
  w.set(1);
  EXPECT_FALSE(v == w);
}

TEST(Text, TrimSplitJoin) {
  EXPECT_EQ(trim("  a b  "), "a b");
  auto parts = splitOn("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(joinWith({"a", "b"}, ", "), "a, b");
}

TEST(Text, Identifier) {
  EXPECT_TRUE(isIdentifier("X_PULSE"));
  EXPECT_FALSE(isIdentifier("9x"));
  EXPECT_FALSE(isIdentifier(""));
}

TEST(Diag, ErrorCarriesLocation) {
  try {
    failAt({"m.chart", 3, 7}, "boom %d", 42);
    FAIL();
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "m.chart:3:7: boom 42");
    EXPECT_EQ(e.where().line, 3);
  }
}

}  // namespace
}  // namespace pscp
