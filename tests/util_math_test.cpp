#include "util/math.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.hpp"

namespace bgl {
namespace {

TEST(Math, DivisorsOfTwelve) {
  EXPECT_EQ(divisors(12), (std::vector<int>{1, 2, 3, 4, 6, 12}));
}

TEST(Math, DivisorsOfPrime) {
  EXPECT_EQ(divisors(13), (std::vector<int>{1, 13}));
}

TEST(Math, DivisorsOfOne) { EXPECT_EQ(divisors(1), (std::vector<int>{1})); }

TEST(Math, DivisorsOfPerfectSquare) {
  EXPECT_EQ(divisors(36), (std::vector<int>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
}

TEST(Math, DivisorsRejectsNonPositive) {
  EXPECT_THROW(divisors(0), ContractViolation);
  EXPECT_THROW(divisors(-4), ContractViolation);
}

TEST(Math, DivisorTriplesVolumeAndBounds) {
  for (const int s : {1, 2, 8, 12, 32, 64, 128}) {
    for (const Triple& t : divisor_triples(s, 4, 4, 8)) {
      EXPECT_EQ(t.x * t.y * t.z, s);
      EXPECT_LE(t.x, 4);
      EXPECT_LE(t.y, 4);
      EXPECT_LE(t.z, 8);
      EXPECT_GE(t.x, 1);
    }
  }
}

TEST(Math, DivisorTriplesCountForBglSizes) {
  // On the 4x4x8 scheduler torus, size 128 has exactly one shape: 4x4x8.
  EXPECT_EQ(divisor_triples(128, 4, 4, 8).size(), 1u);
  // Size 1: only 1x1x1.
  EXPECT_EQ(divisor_triples(1, 4, 4, 8).size(), 1u);
  // Size 13 is prime and > 8: no shape fits.
  EXPECT_TRUE(divisor_triples(13, 4, 4, 8).empty());
  // Size 5: only 1x1x5.
  EXPECT_EQ(divisor_triples(5, 4, 4, 8).size(), 1u);
}

TEST(Math, DivisorTriplesAreUnique) {
  const auto triples = divisor_triples(32, 4, 4, 8);
  for (std::size_t i = 0; i < triples.size(); ++i) {
    for (std::size_t j = i + 1; j < triples.size(); ++j) {
      EXPECT_FALSE(triples[i] == triples[j]);
    }
  }
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 128), 1);
}

TEST(Math, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_FALSE(is_pow2(-8));
}

}  // namespace
}  // namespace bgl
