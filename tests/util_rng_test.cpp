#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace bgl {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntWithinBoundsAndCoversRange) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 9);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeProbabilities) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, WeibullShapeOneIsExponential) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.weibull(1.0, 3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(31);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng(41);
  int low = 0;
  int high = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t k = rng.zipf(8, 1.0);
    EXPECT_LT(k, 8u);
    if (k == 0) ++low;
    if (k == 7) ++high;
  }
  EXPECT_GT(low, high * 3);
}

TEST(Rng, HashCombineOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
}

TEST(Rng, SplitMixAdvancesState) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace bgl
