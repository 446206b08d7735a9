#include "sched/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bgl {
namespace {

const Dims kBgl = Dims::bluegene_l();

const PartitionCatalog& catalog() {
  static PartitionCatalog instance(kBgl);
  return instance;
}

/// Entry index of the canonical box, or -1.
int entry_of_box(const Box& box) {
  const Box canon = canonicalize(kBgl, box);
  for (int i = 0; i < catalog().num_entries(); ++i) {
    if (catalog().entry(i).box == canon) return i;
  }
  return -1;
}

int mfp_after_placing(const NodeSet& occ, int entry) {
  NodeSet with = occ;
  with |= catalog().entry(entry).mask;
  return catalog().mfp(with);
}

PlacementContext make_ctx(const NodeSet& occ, const NodeSet& flagged,
                          double confidence, int job_size,
                          PartitionFailureRule rule = PartitionFailureRule::kProduct) {
  PlacementContext ctx;
  ctx.catalog = &catalog();
  ctx.occupied = &occ;
  ctx.mfp_before_index = catalog().first_free_index(occ);
  ctx.mfp_before_size =
      ctx.mfp_before_index < 0 ? 0 : catalog().entry(ctx.mfp_before_index).size;
  ctx.flagged = &flagged;
  ctx.confidence = confidence;
  ctx.pf_rule = rule;
  ctx.job_size = job_size;
  static PlacementArena arena;  // tie-break's score buffer; never reset here
  ctx.arena = &arena;
  return ctx;
}

// Fragmented scenario discovered programmatically (torus wrap-around makes
// hand-built examples treacherous): half the machine is busy plus one stray
// node, and among the free 2x2x2 placements we pick one with the maximal
// resulting MFP ("clean") and one strictly worse ("splinter"), with a flag
// node that lies only in the clean placement.
struct FragScenario {
  NodeSet occ{128};
  int clean = -1;
  int splinter = -1;
  int gap = 0;        // mfp_after(clean) - mfp_after(splinter) > 0
  int flag_node = -1; // in clean's partition, not in splinter's

  FragScenario() {
    occ = box_mask(kBgl, Box{Coord{0, 0, 0}, Triple{2, 4, 8}});
    occ.set(node_id(kBgl, Coord{2, 0, 0}));

    std::vector<int> candidates;
    catalog().free_entries_of_size(occ, 8, candidates);
    int best_mfp = -1;
    int worst_mfp = 1 << 30;
    for (const int c : candidates) {
      const int m = mfp_after_placing(occ, c);
      if (m > best_mfp) {
        best_mfp = m;
        clean = c;
      }
      if (m < worst_mfp) {
        worst_mfp = m;
        splinter = c;
      }
    }
    gap = best_mfp - worst_mfp;
    // A node unique to the clean placement.
    NodeSet unique = catalog().entry(clean).mask;
    unique.subtract(catalog().entry(splinter).mask);
    const auto ids = unique.to_ids();
    if (!ids.empty()) flag_node = ids.front();
  }
};

TEST(PartitionFailureProbability, ProductRule) {
  EXPECT_DOUBLE_EQ(
      partition_failure_probability(0, 0.5, PartitionFailureRule::kProduct), 0.0);
  EXPECT_DOUBLE_EQ(
      partition_failure_probability(1, 0.5, PartitionFailureRule::kProduct), 0.5);
  EXPECT_DOUBLE_EQ(
      partition_failure_probability(2, 0.5, PartitionFailureRule::kProduct), 0.75);
  EXPECT_DOUBLE_EQ(
      partition_failure_probability(3, 1.0, PartitionFailureRule::kProduct), 1.0);
}

TEST(PartitionFailureProbability, MaxRule) {
  EXPECT_DOUBLE_EQ(partition_failure_probability(0, 0.5, PartitionFailureRule::kMax),
                   0.0);
  EXPECT_DOUBLE_EQ(partition_failure_probability(1, 0.5, PartitionFailureRule::kMax),
                   0.5);
  EXPECT_DOUBLE_EQ(partition_failure_probability(5, 0.5, PartitionFailureRule::kMax),
                   0.5);
}

TEST(PartitionFailureProbability, ZeroConfidence) {
  EXPECT_DOUBLE_EQ(
      partition_failure_probability(10, 0.0, PartitionFailureRule::kProduct), 0.0);
}

TEST(PartitionFailureProbability, NegativeCountThrows) {
  EXPECT_THROW(
      partition_failure_probability(-1, 0.5, PartitionFailureRule::kProduct),
      ContractViolation);
}

TEST(FragScenarioCheck, ScenarioIsWellFormed) {
  FragScenario s;
  ASSERT_GE(s.clean, 0);
  ASSERT_GE(s.splinter, 0);
  EXPECT_GT(s.gap, 0);
  ASSERT_GE(s.flag_node, 0);
  EXPECT_TRUE(catalog().entry(s.clean).mask.test(s.flag_node));
  EXPECT_FALSE(catalog().entry(s.splinter).mask.test(s.flag_node));
}

TEST(SingleBusyNode, MfpIsFourByFourBySeven) {
  NodeSet occ(128);
  occ.set(node_id(kBgl, Coord{0, 0, 0}));
  EXPECT_EQ(catalog().mfp(occ), 112);
}

TEST(MfpLossPolicy, PicksArgmaxMfpOnPairs) {
  FragScenario s;
  NodeSet flags(128);
  MfpLossPolicy policy;
  const auto ctx = make_ctx(s.occ, flags, 0.0, 8);
  EXPECT_EQ(policy.choose(ctx, {s.splinter, s.clean}), s.clean);
  EXPECT_EQ(policy.choose(ctx, {s.clean, s.splinter}), s.clean);
}

TEST(MfpLossPolicy, RandomizedArgmaxProperty) {
  // On random occupancies the policy must pick a candidate achieving the
  // maximal resulting MFP (reference computed without the scan-resume hint).
  Rng rng(321);
  for (int trial = 0; trial < 30; ++trial) {
    NodeSet occ(128);
    for (int i = 0; i < 128; ++i) {
      if (rng.bernoulli(0.4)) occ.set(i);
    }
    std::vector<int> candidates;
    catalog().free_entries_of_size(occ, 8, candidates);
    if (candidates.size() < 2) continue;
    if (candidates.size() > 12) candidates.resize(12);

    NodeSet flags(128);
    MfpLossPolicy policy;
    const auto ctx = make_ctx(occ, flags, 0.0, 8);
    const int chosen = policy.choose(ctx, candidates);
    int best = -1;
    for (const int c : candidates) best = std::max(best, mfp_after_placing(occ, c));
    EXPECT_EQ(mfp_after_placing(occ, chosen), best);
  }
}

TEST(MfpLossPolicy, EmptyCandidatesThrows) {
  NodeSet occ(128);
  NodeSet flags(128);
  MfpLossPolicy policy;
  const auto ctx = make_ctx(occ, flags, 0.0, 8);
  EXPECT_THROW(policy.choose(ctx, {}), ContractViolation);
}

TEST(BalancingPolicy, ZeroConfidenceMatchesMfpLoss) {
  FragScenario s;
  NodeSet flags(128);
  flags.set(s.flag_node);  // ignored at a = 0
  MfpLossPolicy krevat;
  BalancingPolicy balancing;
  const auto ctx = make_ctx(s.occ, flags, 0.0, 8);
  const std::vector<int> candidates = {s.splinter, s.clean};
  EXPECT_EQ(balancing.choose(ctx, candidates), krevat.choose(ctx, candidates));
}

TEST(BalancingPolicy, HighConfidenceAvoidsFlaggedEqualMfpPartition) {
  // Empty torus, two 4x4x4 halves with identical MFP loss; one is flagged.
  NodeSet occ(128);
  const int left = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 4}});
  const int right = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 4}});
  ASSERT_GE(left, 0);
  ASSERT_GE(right, 0);
  ASSERT_EQ(mfp_after_placing(occ, left), mfp_after_placing(occ, right));

  NodeSet flags(128);
  flags.set(node_id(kBgl, Coord{1, 1, 1}));  // inside `left`

  BalancingPolicy policy;
  const auto ctx = make_ctx(occ, flags, 0.9, 64);
  EXPECT_EQ(policy.choose(ctx, {left, right}), right);
  EXPECT_EQ(policy.choose(ctx, {right, left}), right);
}

TEST(BalancingPolicy, ConfidenceThresholdFlipsTheTradeOff) {
  // Figure 2(a)/(b) analog:
  //   E(clean)    = L_MFP(clean) + a * s   (flag inside the clean partition)
  //   E(splinter) = L_MFP(clean) + gap
  // With s = 4 * gap the flip threshold is exactly a = 0.25.
  FragScenario s;
  NodeSet flags(128);
  flags.set(s.flag_node);
  const int job_size = 4 * s.gap;

  BalancingPolicy policy;
  EXPECT_EQ(policy.choose(make_ctx(s.occ, flags, 0.10, job_size),
                          {s.clean, s.splinter}),
            s.clean);
  EXPECT_EQ(policy.choose(make_ctx(s.occ, flags, 0.20, job_size),
                          {s.clean, s.splinter}),
            s.clean);
  EXPECT_EQ(policy.choose(make_ctx(s.occ, flags, 0.30, job_size),
                          {s.clean, s.splinter}),
            s.splinter);
  EXPECT_EQ(policy.choose(make_ctx(s.occ, flags, 0.90, job_size),
                          {s.clean, s.splinter}),
            s.splinter);
}

TEST(BalancingPolicy, LargeJobTieUsesRelativeTolerance) {
  // Regression: E_loss comparisons used an absolute 1e-12 epsilon. L_PF
  // grows with the job size (up to 512 * confidence on an 8x8x8 machine),
  // so two placements in a mathematical tie evaluate to E_loss values that
  // differ by far more than 1e-12 in floating point — the absolute epsilon
  // declared a strict winner from rounding noise and dropped the
  // larger-MFP tie-break. The tolerance must scale with the operands.
  const Dims dims = Dims::cube(8);
  static const PartitionCatalog big(dims);

  // Half the machine busy plus a stray node; among size-8 placements pick
  // one with the maximal resulting MFP ("clean") and one strictly worse
  // ("splinter"), plus a flag node unique to the clean placement.
  NodeSet occ = box_mask(dims, Box{Coord{0, 0, 0}, Triple{4, 8, 8}});
  occ.set(node_id(dims, Coord{4, 0, 0}));
  std::vector<int> candidates;
  big.free_entries_of_size(occ, 8, candidates);
  ASSERT_GE(candidates.size(), 2u);
  if (candidates.size() > 30) candidates.resize(30);
  auto mfp_after = [&](int entry) {
    NodeSet with = occ;
    with |= big.entry(entry).mask;
    return big.mfp(with);
  };
  int clean = -1, splinter = -1, best = -1, worst = 1 << 30;
  for (const int c : candidates) {
    const int m = mfp_after(c);
    if (m > best) best = m, clean = c;
    if (m < worst) worst = m, splinter = c;
  }
  const int gap = best - worst;
  ASSERT_GT(gap, 0);
  NodeSet unique = big.entry(clean).mask;
  unique.subtract(big.entry(splinter).mask);
  ASSERT_FALSE(unique.empty());
  NodeSet flags(dims.volume());
  flags.set(unique.to_ids().front());

  // With the max rule and one flag inside `clean` only:
  //   E(clean)    = l_clean + a * s
  //   E(splinter) = l_clean + gap
  // Pick a so the two sides differ by a delta that is pure noise relative
  // to the operands — far above 1e-12, well inside the relative tolerance.
  const int mfp_before = big.mfp(occ);
  const int l_clean = mfp_before - best;
  const double e_splinter = static_cast<double>(l_clean + gap);
  const double delta = 0.5e-9 * e_splinter;
  ASSERT_GT(delta, 1e-11);  // the absolute epsilon would see a strict winner
  const int job_size = 512;
  const double a = (static_cast<double>(gap) + delta) / job_size;

  PlacementContext ctx;
  ctx.catalog = &big;
  ctx.occupied = &occ;
  ctx.mfp_before_index = big.first_free_index(occ);
  ctx.mfp_before_size = big.entry(ctx.mfp_before_index).size;
  ctx.flagged = &flags;
  ctx.confidence = a;
  ctx.pf_rule = PartitionFailureRule::kMax;
  ctx.job_size = job_size;

  // A noise-level E_loss edge must not override the MFP tie-break: the
  // clean placement wins from either candidate order.
  BalancingPolicy policy;
  EXPECT_EQ(policy.choose(ctx, {splinter, clean}), clean);
  EXPECT_EQ(policy.choose(ctx, {clean, splinter}), clean);
}

TEST(BalancingPolicy, ProductRulePenalizesMultipleFlags) {
  NodeSet occ(128);
  const int left = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 4}});
  const int right = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 4}});
  NodeSet flags(128);
  flags.set(node_id(kBgl, Coord{0, 0, 0}));  // left: 1 flag
  flags.set(node_id(kBgl, Coord{0, 0, 4}));  // right: 2 flags
  flags.set(node_id(kBgl, Coord{1, 1, 5}));

  BalancingPolicy policy;
  const auto ctx = make_ctx(occ, flags, 0.3, 64, PartitionFailureRule::kProduct);
  EXPECT_EQ(policy.choose(ctx, {right, left}), left);

  // Under the max rule both partitions score identically; the choice must at
  // least be deterministic.
  const auto ctx_max = make_ctx(occ, flags, 0.3, 64, PartitionFailureRule::kMax);
  const int first = policy.choose(ctx_max, {right, left});
  EXPECT_EQ(policy.choose(ctx_max, {right, left}), first);
}

TEST(TieBreakPolicy, BreaksTieTowardSafePartition) {
  NodeSet occ(128);
  const int left = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 4}});
  const int right = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 4}});
  NodeSet flags(128);
  flags.set(node_id(kBgl, Coord{2, 2, 2}));  // inside left

  TieBreakPolicy policy;
  const auto ctx = make_ctx(occ, flags, 1.0, 64);
  EXPECT_EQ(policy.choose(ctx, {left, right}), right);
  EXPECT_EQ(policy.choose(ctx, {right, left}), right);
}

TEST(TieBreakPolicy, AllFlaggedFallsBackToFirstOptimum) {
  NodeSet occ(128);
  const int left = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 4}});
  const int right = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 4}});
  NodeSet flags(128);
  flags.set(node_id(kBgl, Coord{0, 0, 0}));
  flags.set(node_id(kBgl, Coord{0, 0, 4}));

  TieBreakPolicy policy;
  const auto ctx = make_ctx(occ, flags, 1.0, 64);
  EXPECT_EQ(policy.choose(ctx, {left, right}), left);
  EXPECT_EQ(policy.choose(ctx, {right, left}), right);
}

TEST(TieBreakPolicy, NeverSacrificesMfpForSafety) {
  // Unlike the balancing policy, tie-breaking only consults the predictor
  // among equal-MFP optima: a flagged clean placement still beats a safe
  // splinter placement.
  FragScenario s;
  NodeSet flags(128);
  flags.set(s.flag_node);

  TieBreakPolicy policy;
  const auto ctx = make_ctx(s.occ, flags, 1.0, 8);
  EXPECT_EQ(policy.choose(ctx, {s.clean, s.splinter}), s.clean);
  EXPECT_EQ(policy.choose(ctx, {s.splinter, s.clean}), s.clean);
}

TEST(TieBreakPolicy, RequiresAScratchArena) {
  // The per-candidate MFP buffer lives in the decision arena; a context
  // without one is a caller bug, not a reason to fall back to the heap.
  NodeSet occ(128);
  NodeSet flags(128);
  PlacementContext ctx = make_ctx(occ, flags, 1.0, 64);
  ctx.arena = nullptr;
  TieBreakPolicy policy;
  const int whole = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 4}});
  EXPECT_THROW((void)policy.choose(ctx, {whole}), ContractViolation);
}

TEST(TieBreakPolicy, NoFlagsPicksAnMfpOptimum) {
  FragScenario s;
  NodeSet flags(128);
  TieBreakPolicy tiebreak;
  const auto ctx = make_ctx(s.occ, flags, 1.0, 8);
  const int chosen = tiebreak.choose(ctx, {s.splinter, s.clean});
  EXPECT_EQ(chosen, s.clean);
}

}  // namespace
}  // namespace bgl
