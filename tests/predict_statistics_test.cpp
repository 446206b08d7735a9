// Statistical properties of the tie-breaking predictor across its whole
// accuracy range: the realised true-positive rate must track the accuracy
// parameter with no false positives; and of the balancing predictor: flags
// independent of the query key and monotone in the window.
#include <gtest/gtest.h>

#include "failure/generator.hpp"
#include "param_names.hpp"
#include "predict/predictor.hpp"

namespace bgl {
namespace {

const FailureTrace& big_trace() {
  static FailureTrace trace = [] {
    FailureModel model = FailureModel::bluegene_l(3000, 200.0 * 86400.0);
    return generate_failures(model, 99);
  }();
  return trace;
}

class TieBreakAccuracySweep : public ::testing::TestWithParam<double> {};

TEST_P(TieBreakAccuracySweep, TruePositiveRateTracksAccuracy) {
  const double accuracy = GetParam();
  TieBreakPredictor predictor(big_trace(), accuracy);
  std::size_t truths = 0;
  std::size_t hits = 0;
  for (std::uint64_t key = 0; key < 500; ++key) {
    const double t0 = static_cast<double>(key) * 30000.0;
    const NodeSet truth = big_trace().failing_nodes(t0, t0 + 43200.0);
    const NodeSet flagged = predictor.flagged_nodes(t0, t0 + 43200.0, key);
    EXPECT_EQ(flagged.intersect_count(truth), flagged.count());  // no false positives
    truths += static_cast<std::size_t>(truth.count());
    hits += static_cast<std::size_t>(flagged.count());
  }
  ASSERT_GT(truths, 300u);
  const double rate = static_cast<double>(hits) / static_cast<double>(truths);
  EXPECT_NEAR(rate, accuracy, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Accuracies, TieBreakAccuracySweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "Accuracy" + test::number_name(info.param);
                         });

TEST(PredictorStatistics, BalancingPredictorIsDeterministic) {
  BalancingPredictor predictor(big_trace(), 0.5);
  for (std::uint64_t key = 0; key < 50; ++key) {
    const double t0 = static_cast<double>(key) * 10000.0;
    EXPECT_EQ(predictor.flagged_nodes(t0, t0 + 3600.0, key),
              predictor.flagged_nodes(t0, t0 + 3600.0, key + 1))
        << "balancing flags must not depend on the query key";
  }
}

TEST(PredictorStatistics, WindowMonotonicity) {
  // A wider window can only flag more nodes (balancing predictor).
  BalancingPredictor predictor(big_trace(), 1.0);
  for (int i = 0; i < 50; ++i) {
    const double t0 = i * 50000.0;
    const NodeSet narrow = predictor.flagged_nodes(t0, t0 + 3600.0, 0);
    const NodeSet wide = predictor.flagged_nodes(t0, t0 + 86400.0, 0);
    EXPECT_EQ(narrow.intersect_count(wide), narrow.count());
  }
}

}  // namespace
}  // namespace bgl
