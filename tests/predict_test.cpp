#include "predict/predictor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "failure/generator.hpp"
#include "predict/registry.hpp"
#include "util/error.hpp"

namespace bgl {
namespace {

FailureTrace simple_trace() {
  return FailureTrace({{100.0, 3}, {200.0, 5}, {250.0, 5}, {300.0, 7}}, 16);
}

TEST(NullPredictor, NeverFlags) {
  NullPredictor p(16);
  EXPECT_TRUE(p.flagged_nodes(0.0, 1e9, 1).empty());
  EXPECT_DOUBLE_EQ(p.confidence(), 0.0);
}

TEST(BalancingPredictor, FlagsExactlyTrueFailures) {
  const FailureTrace trace = simple_trace();
  BalancingPredictor p(trace, 0.4);
  const NodeSet flagged = p.flagged_nodes(50.0, 250.0, 1);
  EXPECT_TRUE(flagged.test(3));
  EXPECT_TRUE(flagged.test(5));
  EXPECT_FALSE(flagged.test(7));
  EXPECT_DOUBLE_EQ(p.confidence(), 0.4);
}

TEST(BalancingPredictor, ZeroConfidenceFlagsNothing) {
  const FailureTrace trace = simple_trace();
  BalancingPredictor p(trace, 0.0);
  EXPECT_TRUE(p.flagged_nodes(0.0, 1000.0, 1).empty());
}

TEST(BalancingPredictor, ConfidenceValidated) {
  const FailureTrace trace = simple_trace();
  EXPECT_THROW(BalancingPredictor(trace, -0.1), ContractViolation);
  EXPECT_THROW(BalancingPredictor(trace, 1.1), ContractViolation);
}

TEST(TieBreakPredictor, PerfectAccuracyFlagsAllTrueFailures) {
  const FailureTrace trace = simple_trace();
  TieBreakPredictor p(trace, 1.0);
  const NodeSet flagged = p.flagged_nodes(0.0, 1000.0, 42);
  EXPECT_TRUE(flagged.test(3));
  EXPECT_TRUE(flagged.test(5));
  EXPECT_TRUE(flagged.test(7));
  // Every true failure and nothing else: the predictor has no false
  // positives (§4.2).
  EXPECT_EQ(flagged, trace.failing_nodes(0.0, 1000.0));
}

TEST(TieBreakPredictor, ZeroAccuracyFlagsNothing) {
  const FailureTrace trace = simple_trace();
  TieBreakPredictor p(trace, 0.0);
  EXPECT_TRUE(p.flagged_nodes(0.0, 1000.0, 42).empty());
}

TEST(TieBreakPredictor, NoFalsePositivesByDefault) {
  const FailureTrace trace = simple_trace();
  TieBreakPredictor p(trace, 0.5);
  for (std::uint64_t key = 0; key < 200; ++key) {
    const NodeSet flagged = p.flagged_nodes(0.0, 1000.0, key);
    const NodeSet truth = trace.failing_nodes(0.0, 1000.0);
    EXPECT_EQ(flagged.intersect_count(truth), flagged.count());
  }
}

TEST(TieBreakPredictor, RepeatedQueriesAreConsistent) {
  const FailureTrace trace = simple_trace();
  TieBreakPredictor p(trace, 0.5);
  const NodeSet a = p.flagged_nodes(0.0, 1000.0, 7);
  const NodeSet b = p.flagged_nodes(0.0, 1000.0, 7);
  EXPECT_EQ(a, b);
}

TEST(TieBreakPredictor, FalseNegativeRateMatchesAccuracy) {
  // A big trace, accuracy 0.7: ~30 % of (key, failing-node) queries should
  // miss.
  FailureModel model = FailureModel::bluegene_l(2000, 100.0 * 86400.0);
  const FailureTrace trace = generate_failures(model, 5);
  TieBreakPredictor p(trace, 0.7);
  std::size_t hits = 0;
  std::size_t total = 0;
  for (std::uint64_t key = 0; key < 400; ++key) {
    const double t0 = static_cast<double>(key) * 20000.0;
    const NodeSet truth = trace.failing_nodes(t0, t0 + 86400.0);
    const NodeSet flagged = p.flagged_nodes(t0, t0 + 86400.0, key);
    total += static_cast<std::size_t>(truth.count());
    hits += static_cast<std::size_t>(flagged.count());
  }
  ASSERT_GT(total, 200u);
  const double rate = static_cast<double>(hits) / static_cast<double>(total);
  EXPECT_NEAR(rate, 0.7, 0.06);
}

TEST(TieBreakPredictor, ParametersValidated) {
  const FailureTrace trace = simple_trace();
  EXPECT_THROW(TieBreakPredictor(trace, 1.5), ContractViolation);
}

TEST(PerfectPredictor, MatchesGroundTruth) {
  const FailureTrace trace = simple_trace();
  PerfectPredictor p(trace);
  EXPECT_EQ(p.flagged_nodes(50.0, 350.0, 0), trace.failing_nodes(50.0, 350.0));
  EXPECT_DOUBLE_EQ(p.confidence(), 1.0);
}

TEST(Predictors, DifferentJobsGetIndependentCoins) {
  const FailureTrace trace = simple_trace();
  TieBreakPredictor p(trace, 0.5);
  int differing = 0;
  NodeSet prev = p.flagged_nodes(0.0, 1000.0, 0);
  for (std::uint64_t key = 1; key < 64; ++key) {
    const NodeSet cur = p.flagged_nodes(0.0, 1000.0, key);
    if (!(cur == prev)) ++differing;
    prev = cur;
  }
  EXPECT_GT(differing, 10);
}

TEST(Predictors, InPlaceQueryOverwritesAReusedBuffer) {
  // flagged_nodes_into is the one query each model implements: it must
  // size and clear whatever buffer the caller reuses, and flagged_nodes is
  // the same answer by value.
  const FailureTrace trace = simple_trace();
  NullPredictor null(16);
  BalancingPredictor balancing(trace, 0.4);
  TieBreakPredictor tiebreak(trace, 0.5);
  HistoryPredictor history(16, 200.0);
  history.observe_failure(3, 100.0, 0.0);
  history.advance(150.0);
  PerfectPredictor perfect(trace);
  const FaultPredictor* models[] = {&null, &balancing, &tiebreak, &history,
                                    &perfect};
  for (const FaultPredictor* p : models) {
    for (std::uint64_t key = 0; key < 8; ++key) {
      NodeSet stale(16);
      for (int n = 0; n < 16; n += 2) stale.set(n);
      p->flagged_nodes_into(stale, 150.0, 400.0, key);
      EXPECT_EQ(stale, p->flagged_nodes(150.0, 400.0, key)) << key;
      NodeSet unsized;
      p->flagged_nodes_into(unsized, 150.0, 400.0, key);
      EXPECT_EQ(unsized.bits(), 16);
      EXPECT_EQ(unsized, stale) << key;
    }
  }
}

// --- registry ---------------------------------------------------------------

TEST(PredictorRegistry, StringTableRoundTrips) {
  const PredictorModel models[] = {PredictorModel::kPaper,
                                   PredictorModel::kHistory,
                                   PredictorModel::kPerfect,
                                   PredictorModel::kNone};
  for (const PredictorModel m : models) {
    const auto parsed = parse_predictor_model(to_string(m));
    ASSERT_TRUE(parsed.has_value()) << to_string(m);
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(parse_predictor_model("oracle").has_value());
  EXPECT_FALSE(parse_predictor_model("").has_value());
  EXPECT_FALSE(parse_predictor_model("Paper").has_value());
}

TEST(PredictorRegistry, OracleModelsRequireATrace) {
  PredictorSpec spec;
  spec.model = PredictorModel::kPerfect;
  try {
    make_predictor(spec, 16, nullptr);
    FAIL() << "perfect predictor built without an oracle";
  } catch (const OracleRequiredError& e) {
    EXPECT_EQ(e.model(), PredictorModel::kPerfect);
  }

  spec.model = PredictorModel::kPaper;
  spec.paper_role = PaperRole::kBalancing;
  spec.alpha = 0.5;
  EXPECT_THROW(make_predictor(spec, 16, nullptr), OracleRequiredError);
  // kPaper under a fault-unaware scheduler degenerates to the null
  // predictor, which needs no trace.
  spec.paper_role = PaperRole::kNull;
  EXPECT_NE(make_predictor(spec, 16, nullptr), nullptr);
}

TEST(PredictorRegistry, HistoryNeedsNoOracleAndAlphaSetsConfidence) {
  for (const PaperRole role :
       {PaperRole::kNull, PaperRole::kBalancing, PaperRole::kTieBreak}) {
    EXPECT_FALSE(predictor_needs_oracle(PredictorModel::kHistory, role));
  }
  PredictorSpec spec;
  spec.model = PredictorModel::kHistory;
  spec.alpha = 0.8;
  spec.history_lookback = 3600.0;
  const auto built = make_predictor(spec, 16, nullptr);
  ASSERT_NE(built, nullptr);
  EXPECT_DOUBLE_EQ(built->confidence(), 0.8);
  const auto* history = dynamic_cast<const HistoryPredictor*>(built.get());
  ASSERT_NE(history, nullptr);
  EXPECT_DOUBLE_EQ(history->lookback(), 3600.0);
}

// --- evaluation ---------------------------------------------------------------

TEST(EvaluatePredictor, OracleScoresPerfectlyThroughTheFeed) {
  // The oracle ignores the feed, so its score is the ground truth's own.
  const FailureTrace trace =
      generate_failures(FailureModel::bluegene_l(400, 60.0 * 86400.0), 11);
  PerfectPredictor perfect(trace);
  const PredictionQuality q =
      evaluate_predictor(perfect, trace, 6.0 * 3600.0, 12.0 * 3600.0);
  EXPECT_EQ(q.windows, 120u);  // ~60 days sampled every 12 h
  EXPECT_EQ(q.flagged, q.failing);
  EXPECT_GT(q.failing, 0u);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
}

TEST(EvaluatePredictor, HistoryLearnsRepeatOffendersWithoutPeeking) {
  // Windows (t, t + 500] every 250 s from the first failure at 1000 to the
  // last at 16000: 59 of them.
  constexpr double kWindow = 500.0;
  constexpr double kStep = 250.0;

  // Every node fails once. A model fed only the past flags nodes that have
  // already failed and never one that is about to: no hit at all.
  std::vector<FailureEvent> once;
  for (int n = 0; n < 16; ++n) once.push_back({1000.0 * (n + 1), n});
  const FailureTrace distinct(once, 16);
  HistoryPredictor blind(16, 5000.0);
  const PredictionQuality none = evaluate_predictor(blind, distinct, kWindow, kStep);
  EXPECT_EQ(none.windows, 59u);
  EXPECT_GT(none.flagged, 0u);
  EXPECT_GT(none.failing, 0u);
  EXPECT_DOUBLE_EQ(none.precision, 0.0);
  EXPECT_DOUBLE_EQ(none.recall, 0.0);

  // Node 9 fails every 1000 s. From its first failure on it stays flagged,
  // so every failing window is caught; the 30 windows that close before
  // its next failure are its false positives.
  std::vector<FailureEvent> repeats;
  for (int k = 0; k < 16; ++k) repeats.push_back({1000.0 * (k + 1), 9});
  const FailureTrace offender(repeats, 16);
  HistoryPredictor learner(16, 5000.0);
  const PredictionQuality q = evaluate_predictor(learner, offender, kWindow, kStep);
  EXPECT_EQ(q.windows, 59u);
  EXPECT_EQ(q.flagged, 59u);
  EXPECT_EQ(q.failing, 29u);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  EXPECT_DOUBLE_EQ(q.precision, 29.0 / 59.0);
}

}  // namespace
}  // namespace bgl
