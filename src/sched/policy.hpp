// Placement policies (§5 of the paper).
//
// Given the set of free candidate partitions for a job, a policy picks one:
//
//   * MfpLossPolicy   — Krevat's heuristic: keep the maximal free partition
//                       as large as possible after placement (equivalently,
//                       minimise L_MFP). Fault-unaware.
//   * BalancingPolicy — §5.2.1: minimise E_loss = L_MFP + L_PF where
//                       L_PF = P_f * s_j and P_f combines the predictor's
//                       per-node probabilities over the candidate.
//   * TieBreakPolicy  — §5.2.2: Krevat's heuristic, but among candidates
//                       tied at the optimal MFP prefer one the boolean
//                       predictor does not expect to fail; if every
//                       candidate is predicted to fail, fall back to an
//                       arbitrary (first) choice, as the paper specifies.
//
// All policies are deterministic given the context (stochastic predictors
// already folded their coins into ctx.flagged).
#pragma once

#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sched/arena.hpp"
#include "sched/types.hpp"
#include "torus/catalog.hpp"
#include "torus/index.hpp"

namespace bgl {

namespace obs {
class CounterRegistry;
}

struct PlacementContext {
  const PartitionCatalog* catalog = nullptr;
  const NodeSet* occupied = nullptr;   ///< Current occupancy (scratch view).
  /// Incremental free-partition view synced to *occupied (nullable). When
  /// set, policies answer mfp_after via the index's candidate overlay
  /// (only entries free under the base occupancy are tested against the
  /// candidate mask) instead of rescanning the catalog. Answers are
  /// bit-for-bit identical either way; the catalog scan stays as the
  /// reference path.
  const FreePartitionIndex* index = nullptr;
  int mfp_before_index = -1;           ///< first_free_index(occupied).
  int mfp_before_size = 0;             ///< MFP size before placing the job.
  const NodeSet* flagged = nullptr;    ///< Predictor flags for the job window.
  double confidence = 0.0;             ///< Per-node probability of flags.
  PartitionFailureRule pf_rule = PartitionFailureRule::kProduct;
  int job_size = 1;                    ///< s_j (requested, not rounded).
  obs::CounterRegistry* counters = nullptr;  ///< Hot-path stats (nullable).
  /// Per-decision scratch arena: TieBreakPolicy's score buffer comes from
  /// it (required there; the other policies keep no per-candidate state).
  PlacementArena* arena = nullptr;
};

/// Why a policy chose the candidate it chose: the loss terms of the chosen
/// partition under the balancing decomposition E_loss = L_MFP + L_PF (§5.2).
/// Policies that do not score a term report it as 0 (e.g. L_PF under the
/// fault-unaware MFP-loss policy). Consumed by the `sched_decision` trace
/// event (docs/OBSERVABILITY.md).
struct PlacementExplain {
  double l_mfp = 0.0;   ///< MFP shrinkage (nodes) caused by the placement.
  double l_pf = 0.0;    ///< Expected failure loss P_f * s_j.
  double e_loss = 0.0;  ///< The value the policy minimised.
  int mfp_after = 0;    ///< MFP size after the hypothetical placement.
  int flags = 0;        ///< Predictor-flagged nodes inside the chosen mask.
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Pick one of `candidates` (catalog entry indices, all free, non-empty).
  /// When `explain` is non-null, fill it for the chosen candidate (tracing
  /// path only; a null explain must not change the choice or its cost).
  /// The span form lets the engine pass arena-backed candidate arrays
  /// without copying into a std::vector.
  virtual int choose(const PlacementContext& ctx, std::span<const int> candidates,
                     PlacementExplain* explain = nullptr) const = 0;

  /// Brace-list convenience for tests and examples: choose(ctx, {a, b}).
  int choose(const PlacementContext& ctx, std::initializer_list<int> candidates,
             PlacementExplain* explain = nullptr) const {
    return choose(ctx, std::span<const int>(candidates.begin(), candidates.size()),
                  explain);
  }

  virtual std::string name() const = 0;
};

class MfpLossPolicy final : public PlacementPolicy {
 public:
  using PlacementPolicy::choose;
  int choose(const PlacementContext& ctx, std::span<const int> candidates,
             PlacementExplain* explain = nullptr) const override;
  std::string name() const override { return "mfp-loss"; }
};

class BalancingPolicy final : public PlacementPolicy {
 public:
  using PlacementPolicy::choose;
  int choose(const PlacementContext& ctx, std::span<const int> candidates,
             PlacementExplain* explain = nullptr) const override;
  std::string name() const override { return "balancing"; }
};

class TieBreakPolicy final : public PlacementPolicy {
 public:
  using PlacementPolicy::choose;
  int choose(const PlacementContext& ctx, std::span<const int> candidates,
             PlacementExplain* explain = nullptr) const override;
  std::string name() const override { return "tie-break"; }
};

/// Partition failure probability for a candidate with `flagged_in_partition`
/// predicted-faulty nodes of per-node probability `confidence`.
double partition_failure_probability(int flagged_in_partition, double confidence,
                                     PartitionFailureRule rule);

}  // namespace bgl
