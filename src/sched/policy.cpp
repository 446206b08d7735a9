#include "sched/policy.hpp"

#include <algorithm>
#include <cmath>

#include "obs/counters.hpp"
#include "util/error.hpp"

namespace bgl {

namespace {
/// MFP size after hypothetically placing candidate `entry_index`.
int mfp_after(const PlacementContext& ctx, int entry_index) {
  const auto& entry = ctx.catalog->entry(entry_index);
  if (ctx.counters != nullptr) ctx.counters->add(obs::Counter::kMfpEvaluations);
  // Adding nodes can only shrink the MFP, so resume the size-descending scan
  // at the index of the pre-placement MFP.
  const int hint = ctx.mfp_before_index < 0 ? 0 : ctx.mfp_before_index;
  if (ctx.index != nullptr) return ctx.index->mfp_with(entry.mask, hint);
  return ctx.catalog->mfp_with(*ctx.occupied, entry.mask, hint);
}

/// E_loss comparisons must tolerate floating-point noise, and the noise
/// scales with the terms: L_PF = P_f * s_j grows with the job size, so an
/// absolute epsilon that is adequate for small jobs silently stops
/// detecting ties for large ones (one ulp of a ~5000-node-second loss
/// already exceeds 1e-12). Scale the tolerance with the operands.
double loss_tolerance(double a, double b) {
  return 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Fill `explain` for the chosen candidate. The loss terms are recomputed
/// here (once, off the comparison loop) so the disabled-tracing hot path
/// pays nothing.
void explain_choice(const PlacementContext& ctx, int chosen, int chosen_mfp,
                    PlacementExplain* explain) {
  if (explain == nullptr) return;
  explain->mfp_after = chosen_mfp;
  explain->l_mfp = static_cast<double>(ctx.mfp_before_size - chosen_mfp);
  const PartitionCatalog::Entry& entry = ctx.catalog->entry(chosen);
  explain->flags = ctx.flagged == nullptr
                       ? 0
                       : entry.mask.intersect_count(*ctx.flagged, entry.span());
  const double p_f =
      partition_failure_probability(explain->flags, ctx.confidence, ctx.pf_rule);
  explain->l_pf = p_f * static_cast<double>(ctx.job_size);
  explain->e_loss = explain->l_mfp + explain->l_pf;
}
}  // namespace

double partition_failure_probability(int flagged_in_partition, double confidence,
                                     PartitionFailureRule rule) {
  BGL_CHECK(flagged_in_partition >= 0, "flag count must be non-negative");
  if (flagged_in_partition == 0 || confidence <= 0.0) return 0.0;
  switch (rule) {
    case PartitionFailureRule::kMax:
      return confidence;
    case PartitionFailureRule::kProduct:
      return 1.0 - std::pow(1.0 - confidence, flagged_in_partition);
  }
  return confidence;
}

int MfpLossPolicy::choose(const PlacementContext& ctx,
                          std::span<const int> candidates,
                          PlacementExplain* explain) const {
  BGL_CHECK(!candidates.empty(), "policy invoked with no candidates");
  int best = candidates.front();
  int best_mfp = -1;
  for (const int c : candidates) {
    const int m = mfp_after(ctx, c);
    if (m > best_mfp) {
      best_mfp = m;
      best = c;
    }
  }
  explain_choice(ctx, best, best_mfp, explain);
  return best;
}

int BalancingPolicy::choose(const PlacementContext& ctx,
                            std::span<const int> candidates,
                            PlacementExplain* explain) const {
  BGL_CHECK(!candidates.empty(), "policy invoked with no candidates");
  BGL_CHECK(ctx.flagged != nullptr, "balancing policy requires predictor flags");
  int best = candidates.front();
  double best_loss = 0.0;
  int best_mfp = -1;
  bool first = true;
  for (const int c : candidates) {
    const auto& entry = ctx.catalog->entry(c);
    const int m = mfp_after(ctx, c);
    const double l_mfp = static_cast<double>(ctx.mfp_before_size - m);
    const int flags = entry.mask.intersect_count(*ctx.flagged, entry.span());
    const double p_f = partition_failure_probability(flags, ctx.confidence, ctx.pf_rule);
    const double l_pf = p_f * static_cast<double>(ctx.job_size);
    const double e_loss = l_mfp + l_pf;
    // Minimise E_loss; tie-break toward the larger resulting MFP, then the
    // catalog order (deterministic).
    const double tol = loss_tolerance(e_loss, best_loss);
    if (first || e_loss < best_loss - tol ||
        (std::abs(e_loss - best_loss) <= tol && m > best_mfp)) {
      best = c;
      best_loss = e_loss;
      best_mfp = m;
      first = false;
    }
  }
  explain_choice(ctx, best, best_mfp, explain);
  return best;
}

int TieBreakPolicy::choose(const PlacementContext& ctx,
                           std::span<const int> candidates,
                           PlacementExplain* explain) const {
  BGL_CHECK(!candidates.empty(), "policy invoked with no candidates");
  BGL_CHECK(ctx.flagged != nullptr, "tie-break policy requires predictor flags");
  BGL_CHECK(ctx.arena != nullptr, "tie-break policy requires a scratch arena");
  // Pass 1: the optimal (maximal) resulting MFP, exactly as Krevat's policy.
  int best_mfp = -1;
  ArenaVector<int> mfps(*ctx.arena);
  mfps.reserve(candidates.size());
  for (const int c : candidates) {
    const int m = mfp_after(ctx, c);
    mfps.push_back(m);
    if (m > best_mfp) best_mfp = m;
  }
  // Pass 2: among the tied optima, the first candidate the predictor does
  // not flag; if all are flagged, the first optimum (arbitrary choice).
  int fallback = -1;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (mfps[i] != best_mfp) continue;
    const auto& entry = ctx.catalog->entry(candidates[i]);
    if (!entry.mask.intersects(*ctx.flagged, entry.span())) {
      explain_choice(ctx, candidates[i], best_mfp, explain);
      return candidates[i];
    }
    if (fallback < 0) fallback = candidates[i];
  }
  explain_choice(ctx, fallback, best_mfp, explain);
  return fallback;
}

}  // namespace bgl
