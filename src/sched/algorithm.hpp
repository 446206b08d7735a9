// The scheduling pass and the disciplines that drive it
// (docs/SCHEDULERS.md).
//
// A pass of the engine has three orthogonal policy dimensions:
//
//   queue traversal + reservation discipline   run_krevat / run_conservative
//   placement scoring                          PlacementPolicy (policy.hpp)
//   fault prediction                           FaultPredictor (predict/)
//
// The Scheduler prepares one SchedulingPass — the queue prefix, the live
// set and the occupancy (the caller's own running set and free-partition
// index on the indexed path, pooled copies on the scan path), the decision
// being built, counters/trace plumbing — and Scheduler::decide switches on
// SchedulerConfig::algorithm to the function that drives it. That function
// owns only the *discipline*: which queued jobs to try, in what order, and
// under which reservation constraints. Every mutation goes through the pass
// (place / try_migration / reservation), so any discipline composes with any
// scorer, any predictor, the migration machinery, and the incremental index
// without re-implementing the bookkeeping or the observability contract.
//
// Four disciplines ship (SchedAlgorithm in types.hpp), run by two functions:
//
//   krevat        run_krevat (algo_krevat.cpp) — the paper's engine, frozen:
//                 decisions, counters and traces are byte-identical to the
//                 pre-seam scheduler (differential-tested and pinned by the
//                 golden figure-CSV hashes in bench/golden/).
//   easy          run_krevat — the same loop, which is EASY backfilling;
//                 the blocked head's reservation is recorded in the
//                 decision trail.
//   easy-holdback run_krevat — easy plus a free-node floor for fillers.
//   conservative  run_conservative (algo_conservative.cpp) — a queue-order
//                 reservation profile; fillers may delay no reserved job.
//
// To add an algorithm: add its SchedAlgorithm enumerator (types.hpp) and
// names (to_string/parse_sched_algorithm in algorithm.cpp), write
// run_<name>(SchedulingPass&), and add its case to Scheduler::decide's
// switch. docs/SCHEDULERS.md walks through it.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "obs/observer.hpp"
#include "obs/profiler.hpp"
#include "predict/predictor.hpp"
#include "sched/arena.hpp"
#include "sched/backfill.hpp"
#include "sched/policy.hpp"
#include "sched/types.hpp"
#include "torus/catalog.hpp"
#include "torus/index.hpp"

namespace bgl {

/// Everything one scheduling pass needs that would otherwise be allocated
/// fresh per decision: the bump arena feeding the int/job scratch arrays,
/// the full-width node sets, and the pooled reservation vector. `occ` and
/// `live` serve the scan path only, which copies its const inputs into
/// them; the indexed path works on the caller's index and running set.
/// The engine keeps one of these across passes.
struct SchedulerPassScratch {
  PlacementArena arena;
  NodeSet occ;        ///< Scan path: occupancy (input + this pass's starts).
  NodeSet flagged;    ///< Predictor verdict for the job under consideration.
  NodeSet obstacles;  ///< Non-job occupancy seeded into migration re-packs.
  std::vector<RunningJob> live;  ///< Scan path: the running-set copy.
  std::vector<Reservation> reservations;
};

/// One scheduling pass: the state an algorithm drives. All mutation of the
/// decision / occupancy / index / live set happens through the methods
/// here, which also keep the observability contract (counters, histograms,
/// audit records) identical across algorithms. The index, when present, is
/// the caller's and is the pass's only occupancy: place() and
/// try_migration() commit into it, and into `live`, directly.
class SchedulingPass {
 public:
  SchedulingPass(const PartitionCatalog& catalog, PlacementPolicy& policy,
                 const FaultPredictor& predictor, const SchedulerConfig& config,
                 const obs::Observer& obs, double now,
                 std::span<const WaitingJob> queue,
                 std::vector<RunningJob>& live, SchedulerPassScratch& scratch,
                 FreePartitionIndex* index, SchedulingDecision& decision);

  SchedulingPass(const SchedulingPass&) = delete;
  SchedulingPass& operator=(const SchedulingPass&) = delete;

  // --- read-only views ---
  double now() const { return now_; }
  std::span<const WaitingJob> queue() const { return queue_; }
  const PartitionCatalog& catalog() const { return *catalog_; }
  const SchedulerConfig& config() const { return *config_; }
  /// Running jobs plus everything started earlier in this pass.
  const std::vector<RunningJob>& live() const { return *live_; }
  /// Occupancy: the index's, or the scan path's copy, with this pass's
  /// starts applied.
  const NodeSet& occupied() const;
  /// occupied().count(): the index's running count, or a popcount on the
  /// catalog-scan path without an index.
  int occupied_count() const;

  /// The per-decision bump arena backing short-lived algorithm scratch (and
  /// the buffers of compute_reservation / try_repack / the policy).
  PlacementArena& scratch_arena();
  /// Pooled reservation scratch, a std::vector reused across passes.
  std::vector<Reservation>& reservation_scratch();

  /// The pass's phase profiler (null when profiling is off). Algorithms use
  /// it to open the one span the engine cannot place for them — their own
  /// backfill section (obs::Phase::kBackfill) — so enumerate/place/
  /// reservation spans nest under it in the tree.
  obs::PhaseProfiler* profiler() const { return obs_->profiler; }

  // --- actions ---
  /// The first phase of every discipline: start queued jobs in order until
  /// one does not fit, giving that job the pass's one compaction attempt
  /// and a retry after it. Returns the blocked job's queue position, or
  /// queue().size() when every job started. Later phases place only jobs
  /// behind the returned position.
  std::size_t start_in_order();

  /// Enumerate the free partitions of `alloc_size` into an internal scratch
  /// list (via the incremental index when present, catalog scans otherwise)
  /// and account the scan. The span is valid until the next call.
  std::span<const int> free_candidates(int alloc_size);

  /// Score `candidates` with the placement policy and commit the winner for
  /// the job at queue position `q`: occupancy (the index when present),
  /// live set, counters, histogram, audit record. `res`, when non-null, is
  /// the binding reservation the placement was admitted against (recorded
  /// on the PlacementRecord so the trace carries reservation provenance).
  void place(std::size_t q, std::span<const int> candidates, bool backfill,
             const Reservation* res = nullptr);

  /// One compaction attempt for a blocked job of `alloc_size` — at most one
  /// per pass, and only when config().migration is on and jobs are live.
  /// An attempt whose head exceeds the free-node count is refused without
  /// repacking (counted in sched.migration_over_capacity). On success the
  /// occupancy and live set are rewritten (and same-pass starts re-pointed);
  /// the caller should retry the blocked job.
  bool try_migration(int alloc_size);

  /// Earliest-start reservation for `alloc_size` against the live set.
  std::optional<Reservation> reservation(int alloc_size) const;

  /// Record a granted reservation in the decision audit trail (no-op unless
  /// tracing; never called under algorithm krevat — see types.hpp).
  void note_reservation(std::uint64_t job_id, const Reservation& r);

 private:
  const NodeSet& query_predictor(const WaitingJob& job);

  const PartitionCatalog* catalog_;
  PlacementPolicy* policy_;
  const FaultPredictor* predictor_;
  const SchedulerConfig* config_;
  const obs::Observer* obs_;
  bool tracing_;
  double now_;
  std::span<const WaitingJob> queue_;
  std::vector<RunningJob>* live_;
  SchedulerPassScratch* s_;
  FreePartitionIndex* idx_;
  SchedulingDecision* decision_;
  ArenaVector<int> candidates_;
  bool migration_tried_ = false;
};

// The disciplines, one per algo_*.cpp. Each reads and writes only the pass.

/// FCFS + spatial backfill behind the blocked head, with the pass's one
/// compaction attempt: algorithms krevat, easy and easy-holdback.
void run_krevat(SchedulingPass& pass);

/// Conservative backfilling over a queue-order reservation profile.
void run_conservative(SchedulingPass& pass);

}  // namespace bgl
