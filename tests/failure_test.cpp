#include "failure/generator.hpp"
#include "failure/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace bgl {
namespace {

TEST(FailureTrace, SortsEventsOnConstruction) {
  FailureTrace trace({{5.0, 1}, {1.0, 2}, {3.0, 0}}, 4);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.events()[0].time, 1.0);
  EXPECT_DOUBLE_EQ(trace.events()[2].time, 5.0);
}

TEST(FailureTrace, RejectsOutOfRangeNode) {
  EXPECT_THROW(FailureTrace({{1.0, 4}}, 4), ContractViolation);
  EXPECT_THROW(FailureTrace({{1.0, -1}}, 4), ContractViolation);
}

TEST(FailureTrace, WindowQueryIsHalfOpenLeft) {
  // The predictors' window is (t0, t1]: an event exactly at t0 does not
  // count; at t1 it does.
  FailureTrace trace({{10.0, 0}}, 2);
  EXPECT_FALSE(trace.failing_nodes(10.0, 20.0).test(0));
  EXPECT_TRUE(trace.failing_nodes(9.999, 10.0).test(0));
  EXPECT_TRUE(trace.failing_nodes(5.0, 15.0).test(0));
  EXPECT_FALSE(trace.failing_nodes(10.5, 20.0).test(0));
  EXPECT_FALSE(trace.failing_nodes(0.0, 100.0).test(1));

  FailureTrace three({{10.0, 0}, {20.0, 1}, {30.0, 2}}, 4);
  const NodeSet mask = three.failing_nodes(10.0, 30.0);
  EXPECT_FALSE(mask.test(0));  // at t0: excluded
  EXPECT_TRUE(mask.test(1));
  EXPECT_TRUE(mask.test(2));   // at t1: included
  EXPECT_EQ(mask.count(), 2);
}

TEST(FailureTrace, FailingNodesMask) {
  FailureTrace trace({{10.0, 0}, {20.0, 3}, {30.0, 5}}, 8);
  const NodeSet mask = trace.failing_nodes(5.0, 25.0);
  EXPECT_TRUE(mask.test(0));
  EXPECT_TRUE(mask.test(3));
  EXPECT_FALSE(mask.test(5));
  EXPECT_EQ(mask.count(), 2);
}

TEST(FailureTrace, MeanRatePerDay) {
  FailureTrace trace({{0.0, 0}, {86400.0, 0}, {2.0 * 86400.0, 1}}, 2);
  EXPECT_NEAR(trace.mean_rate_per_day(), 1.5, 1e-9);
  EXPECT_DOUBLE_EQ(FailureTrace({}, 2).mean_rate_per_day(), 0.0);
}

TEST(FailureTrace, CsvRoundTrip) {
  FailureTrace trace({{1.5, 0}, {2.25, 3}}, 4);
  const std::string path = testing::TempDir() + "/bgl_failures.csv";
  write_failure_csv(path, trace);
  const FailureTrace parsed = read_failure_csv(path, 4);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.events()[0].time, 1.5);
  EXPECT_EQ(parsed.events()[1].node, 3);
}

TEST(FailureGenerator, ExactEventCount) {
  FailureModel model = FailureModel::bluegene_l(4000, 365.0 * 86400.0);
  const FailureTrace trace = generate_failures(model, 7);
  EXPECT_EQ(trace.size(), 4000u);
  EXPECT_EQ(trace.num_nodes(), 128);
}

TEST(FailureGenerator, ZeroEventsYieldsEmptyTrace) {
  FailureModel model = FailureModel::bluegene_l(0, 86400.0);
  EXPECT_TRUE(generate_failures(model, 1).empty());
}

TEST(FailureGenerator, Deterministic) {
  FailureModel model = FailureModel::bluegene_l(500, 30.0 * 86400.0);
  const FailureTrace a = generate_failures(model, 3);
  const FailureTrace b = generate_failures(model, 3);
  EXPECT_EQ(a.events(), b.events());
}

TEST(FailureGenerator, EventsWithinSpanAndNodeRange) {
  FailureModel model = FailureModel::bluegene_l(1000, 100.0 * 86400.0);
  const FailureTrace trace = generate_failures(model, 11);
  for (const FailureEvent& e : trace.events()) {
    EXPECT_GE(e.time, 0.0);
    EXPECT_LE(e.time, model.span_seconds + 1e-6);
    EXPECT_GE(e.node, 0);
    EXPECT_LT(e.node, 128);
  }
}

TEST(FailureGenerator, TraceIsBursty) {
  // The paper's saturation argument needs clusters of near-simultaneous
  // failures. Measure the coefficient of variation of inter-event gaps: a
  // Poisson process has CV ~ 1; a bursty one is clearly above.
  FailureModel model = FailureModel::bluegene_l(4000, 365.0 * 86400.0);
  const FailureTrace trace = generate_failures(model, 13);
  RunningStats gaps;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    gaps.add(trace.events()[i].time - trace.events()[i - 1].time);
  }
  const double cv = gaps.stddev() / gaps.mean();
  EXPECT_GT(cv, 1.5);
}

TEST(FailureGenerator, TopDecileOfNodesTakesOverAFifthOfEvents) {
  // Uniform flagging would give the top decile of nodes ~10% of events; the
  // skewed generator concentrates far more on repeat offenders.
  FailureModel model = FailureModel::bluegene_l(4000, 730.0 * 86400.0);
  const FailureTrace trace = generate_failures(model, 7);
  std::vector<std::size_t> per_node(static_cast<std::size_t>(trace.num_nodes()), 0);
  for (const FailureEvent& e : trace.events()) ++per_node[static_cast<std::size_t>(e.node)];
  std::sort(per_node.rbegin(), per_node.rend());
  const std::size_t decile = per_node.size() / 10;
  ASSERT_GT(decile, 0u);
  std::size_t top = 0;
  for (std::size_t i = 0; i < decile; ++i) top += per_node[i];
  EXPECT_GT(static_cast<double>(top) / static_cast<double>(trace.size()), 0.2);
}

TEST(FailureGenerator, BurstsShareTimestampsAcrossNodes) {
  FailureModel model = FailureModel::bluegene_l(2000, 200.0 * 86400.0);
  model.burst_prob = 0.6;
  const FailureTrace trace = generate_failures(model, 17);
  // Count events that have another event within the burst spread window.
  std::size_t clustered = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace.events()[i].time - trace.events()[i - 1].time <=
        model.burst_spread_seconds) {
      ++clustered;
    }
  }
  EXPECT_GT(clustered, trace.size() / 4);
}

}  // namespace
}  // namespace bgl
