// The scheduling engine (§5).
//
// One engine hosts every scheduling discipline; three orthogonal policies
// plug into it (docs/SCHEDULERS.md):
//
//   algorithm   ISchedulingAlgorithm (algorithm.hpp): queue traversal and
//               reservation discipline — krevat (the paper's engine, the
//               default), easy, conservative, easy-holdback.
//   scoring     PlacementPolicy: Krevat baseline = MfpLossPolicy (predictor
//               ignored), Balancing = BalancingPolicy + Balancing-
//               Predictor(confidence a), Tie-breaking = TieBreakPolicy +
//               TieBreakPredictor(accuracy a).
//   prediction  FaultPredictor (predict/): which nodes get flagged.
//
// The engine is stateless: schedule() is a pure function of (now, queue,
// running, occupancy). It prepares the pass scratch and the cloned index,
// hands a SchedulingPass to the configured algorithm, and accounts the
// pass-level timing. The caller (svc::SchedulerService) owns all mutable
// state and applies the returned decision, which keeps the engine trivially
// testable.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "predict/predictor.hpp"
#include "sched/policy.hpp"
#include "sched/types.hpp"
#include "torus/catalog.hpp"

namespace bgl {

struct SchedulerPassScratch;
class ISchedulingAlgorithm;

class Scheduler {
 public:
  Scheduler(const PartitionCatalog& catalog, std::unique_ptr<PlacementPolicy> policy,
            const FaultPredictor& predictor, SchedulerConfig config = {});
  ~Scheduler();

  /// Decide which jobs to start (and which running jobs to migrate) at time
  /// `now`. `queue` must be in FCFS priority order; `running` carries the
  /// current partition and estimated finish of every executing job;
  /// `occupied` is the current occupancy mask (consistent with `running`).
  ///
  /// `index` (nullable) is an incremental free-partition view that must be
  /// synced to `occupied` (checked). When provided, the engine clones it
  /// into a per-pass scratch — updated incrementally as the pass places
  /// jobs — and answers candidate enumeration and every MFP query through
  /// it instead of scanning the catalog. Decisions are bit-for-bit
  /// identical with and without the index (the scan path remains the
  /// reference implementation and the differential tests hold both up
  /// against each other).
  SchedulingDecision schedule(double now, const std::vector<WaitingJob>& queue,
                              const std::vector<RunningJob>& running,
                              const NodeSet& occupied,
                              const FreePartitionIndex* index = nullptr) const;

  const SchedulerConfig& config() const { return config_; }
  std::string name() const { return policy_->name(); }
  /// The discipline's registry name ("krevat", "easy", ...).
  std::string algorithm_name() const;

  /// Attach observability hooks (nullable; see src/obs/observer.hpp). With
  /// the default (disabled) observer, schedule() behaves and costs exactly
  /// as if this call never happened. The counters must outlive the engine.
  void set_observer(const obs::Observer& obs) { obs_ = obs; }
  const obs::Observer& observer() const { return obs_; }

 private:
  const PartitionCatalog* catalog_;
  std::unique_ptr<PlacementPolicy> policy_;
  const FaultPredictor* predictor_;
  SchedulerConfig config_;
  /// The configured discipline (config_.algorithm), stateless across passes.
  std::unique_ptr<ISchedulingAlgorithm> algorithm_;
  obs::Observer obs_{};
  /// Per-pass working copy of the caller's index. schedule() stays a pure
  /// function of its inputs — the scratch is reassigned from the caller's
  /// index at the top of every pass (reusing its buffers; the immutable
  /// CSR layout is shared) and never read across calls.
  mutable std::unique_ptr<FreePartitionIndex> scratch_index_;
  /// Pooled per-pass scratch (arena + occupancy/flag sets + live-job copy),
  /// reused across schedule() calls so the steady-state pass performs no
  /// heap allocation. Purely a cache: it is overwritten from the call's
  /// inputs before any read, so schedule() remains a pure function of its
  /// arguments.
  mutable std::unique_ptr<SchedulerPassScratch> pass_scratch_;
};

/// Factory helpers for the three paper schedulers.
std::unique_ptr<Scheduler> make_krevat_scheduler(const PartitionCatalog& catalog,
                                                 const FaultPredictor& predictor,
                                                 SchedulerConfig config = {});
std::unique_ptr<Scheduler> make_balancing_scheduler(const PartitionCatalog& catalog,
                                                    const FaultPredictor& predictor,
                                                    SchedulerConfig config = {});
std::unique_ptr<Scheduler> make_tiebreak_scheduler(const PartitionCatalog& catalog,
                                                   const FaultPredictor& predictor,
                                                   SchedulerConfig config = {});

}  // namespace bgl
