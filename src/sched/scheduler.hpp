// The scheduling engine (§5).
//
// One engine hosts every scheduling discipline; three orthogonal policies
// plug into it (docs/SCHEDULERS.md):
//
//   algorithm   SchedAlgorithm (types.hpp): queue traversal and reservation
//               discipline — krevat (the paper's engine, the default),
//               easy, conservative, easy-holdback. decide() switches on it
//               to run_krevat or run_conservative (algorithm.hpp).
//   scoring     PlacementPolicy: Krevat baseline = MfpLossPolicy (predictor
//               ignored), Balancing = BalancingPolicy + Balancing-
//               Predictor(confidence a), Tie-breaking = TieBreakPolicy +
//               TieBreakPredictor(accuracy a).
//   prediction  FaultPredictor (predict/): which nodes get flagged.
//
// The engine keeps no state across passes. It prepares the pass scratch,
// hands a SchedulingPass to the configured discipline, and accounts the
// pass-level timing. The caller (svc::SchedulerService) owns all mutable
// state, and the indexed schedule() works on it in place: it reads the
// caller's waiting queue through a span, and commits every start, and a
// compaction's re-packed layout, into the caller's one FreePartitionIndex
// (the machine's free-partition state) and running set. The caller applies
// the returned decision to its job bookkeeping only. The scan overload
// stays a pure function of (now, queue, running, occupancy), the reference
// the tests hold the indexed pass against; it alone copies its inputs. A
// failed check inside a pass leaves the index and running set
// half-applied; no rollback exists because a ContractViolation ends the
// session.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "predict/predictor.hpp"
#include "sched/policy.hpp"
#include "sched/types.hpp"
#include "torus/catalog.hpp"

namespace bgl {

struct SchedulerPassScratch;

class Scheduler {
 public:
  Scheduler(const PartitionCatalog& catalog, std::unique_ptr<PlacementPolicy> policy,
            const FaultPredictor& predictor, SchedulerConfig config = {});
  ~Scheduler();

  /// Decide which jobs to start (and which running jobs to migrate) at time
  /// `now`. `queue` must be in FCFS priority order; `running` carries the
  /// current partition and estimated finish of every executing job;
  /// `occupied` is the current occupancy mask (consistent with `running`).
  /// Every free-partition query scans the catalog, against a copy of
  /// `occupied` and `running`: this overload is the reference
  /// implementation the differential tests hold the indexed one against.
  SchedulingDecision schedule(double now, std::span<const WaitingJob> queue,
                              const std::vector<RunningJob>& running,
                              const NodeSet& occupied) const;

  /// The same pass on the caller's state in place: `index`'s occupied() is
  /// the occupancy, and candidate enumeration and every MFP query go
  /// through it. The pass commits into `index` and `running`: on return
  /// they hold the input occupancy and running set with the decision
  /// applied (each start's partition occupied and the started job in
  /// `running`; after a compaction, the re-packed layout, and `running` in
  /// the repack's order). Decisions are bit-for-bit those of the scan
  /// overload.
  SchedulingDecision schedule(double now, std::span<const WaitingJob> queue,
                              std::vector<RunningJob>& running,
                              FreePartitionIndex& index) const;

  const SchedulerConfig& config() const { return config_; }
  std::string name() const { return policy_->name(); }

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
  obs::Observer obs_{};
  /// The body both overloads share. `live` is the running set the pass
  /// commits into; `index` is null for the catalog scans, which read the
  /// scratch's occupancy copy.
  SchedulingDecision decide(double now, std::span<const WaitingJob> queue,
                            std::vector<RunningJob>& live,
                            FreePartitionIndex* index) const;

  /// Pooled per-pass scratch (arena + flag/obstacle sets, and the scan
  /// path's occupancy and running-set copies), reused across schedule()
  /// calls so the steady-state pass performs no heap allocation. Purely a
  /// cache: it is overwritten from the call's inputs before any read, so no
  /// pass sees another's state.
  std::unique_ptr<SchedulerPassScratch> pass_scratch_;
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
