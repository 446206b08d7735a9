#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace bgl {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37 - 3.0;
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Percentile, ExactQuartiles) {
  PercentileTracker p;
  for (int i = 1; i <= 5; ++i) p.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(p.percentile(25), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  PercentileTracker p;
  p.add(0.0);
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.percentile(50), 5.0);
}

TEST(Percentile, AddAfterQueryResorts) {
  PercentileTracker p;
  p.add(5.0);
  EXPECT_DOUBLE_EQ(p.percentile(50), 5.0);
  p.add(1.0);
  p.add(9.0);
  EXPECT_DOUBLE_EQ(p.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
}

}  // namespace
}  // namespace bgl
