// Shared scheduler data types.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace bgl {

/// How per-node failure probabilities combine into a partition probability.
/// The paper states both rules (§4.1 uses max, §5.2.1 uses the product
/// complement); they differ only when several predicted-faulty nodes fall in
/// one candidate. kProduct is the rule the balancing algorithm's E_loss
/// derivation uses and is the default.
enum class PartitionFailureRule { kProduct, kMax };

/// A job waiting in the FCFS queue, in priority order (oldest first).
struct WaitingJob {
  std::uint64_t id = 0;
  int size = 1;        ///< Requested nodes s_j (used in L_PF = P_f * s_j).
  int alloc_size = 1;  ///< Rounded-up allocatable partition size.
  double estimate = 0.0;
};

/// A job currently running on the torus.
struct RunningJob {
  std::uint64_t id = 0;
  int entry_index = -1;     ///< Catalog entry of its partition.
  double est_finish = 0.0;  ///< start + user estimate (backfill horizon).
};

/// Decision: start job `id` on catalog entry `entry_index` now.
struct Start {
  std::uint64_t id = 0;
  int entry_index = -1;
};

/// Decision: move running job `id` between partitions (checkpoint-free in
/// the paper's study, so it is instantaneous).
struct Migration {
  std::uint64_t id = 0;
  int from_entry = -1;
  int to_entry = -1;
};

/// Decision audit record for one placement, captured only when tracing is
/// enabled (obs::Observer::trace). Field semantics match the
/// `sched_decision` trace event in docs/OBSERVABILITY.md.
struct PlacementRecord {
  std::uint64_t id = 0;       ///< Scheduler-facing job id.
  int entry_index = -1;       ///< Chosen catalog entry.
  int candidates = 0;         ///< Free candidates offered to the policy.
  int flags_in_chosen = 0;    ///< Predictor-flagged nodes in the chosen mask.
  double l_mfp = 0.0;         ///< MFP shrinkage caused by the placement.
  double l_pf = 0.0;          ///< Expected failure loss P_f * s_j.
  double e_loss = 0.0;        ///< Combined loss the policy minimised.
  int mfp_after = 0;          ///< MFP size after the placement.
  bool backfill = false;      ///< Placed by the backfill pass.
  /// The binding reservation this backfill placement was admitted against
  /// (the earliest-queued blocked job's). Recorded only by the
  /// reservation-carrying algorithms; res_entry stays -1 for head starts
  /// and for the krevat baseline, and the driver then omits the trace
  /// fields so pre-seam traces remain byte-identical.
  double res_time = -1.0;
  int res_entry = -1;
};

/// One predictor consultation, captured only when tracing is enabled.
struct PredictorQueryRecord {
  std::uint64_t id = 0;        ///< Job the query was made for.
  double window_start = 0.0;   ///< Query window (t0, t1].
  double window_end = 0.0;
  int nodes_flagged = 0;
};

/// One reservation granted during a pass, captured only when tracing is
/// enabled and only by the reservation-carrying algorithms (easy,
/// conservative, easy-holdback). The krevat baseline computes reservations
/// internally but does not record them, keeping its traces byte-identical
/// to every pre-seam run.
struct ReservationRecord {
  std::uint64_t id = 0;   ///< Scheduler-facing id of the job holding it.
  double time = 0.0;      ///< Earliest estimated start.
  int entry_index = -1;   ///< Catalog entry reserved for it.
};

struct SchedulingDecision {
  std::vector<Migration> migrations;  ///< Applied before the starts.
  std::vector<Start> starts;

  // Placement diagnostics (filled by the engine, aggregated by the driver).
  int starts_on_flagged = 0;       ///< Chosen partition contained a flagged node.
  int flagged_with_alternative = 0;  ///< ... although a flag-free candidate existed.

  // Decision audit trail; empty unless the scheduler's observer traces.
  std::vector<PlacementRecord> placements;
  std::vector<PredictorQueryRecord> predictor_queries;
  std::vector<ReservationRecord> reservations;

  /// Wall time of the pass, ns: the one clock read that feeds the
  /// sched.decision_ns counter, the decision_us histogram and the metrics
  /// window. 0 unless the scheduler's observer has a counter registry,
  /// histogram registry or trace sink attached.
  std::int64_t wall_ns = 0;

  bool empty() const { return migrations.empty() && starts.empty(); }
};

/// Backfilling discipline.
enum class BackfillMode {
  kNone,          ///< Strict FCFS: nothing may pass a blocked head job.
  kEasy,          ///< EASY: only the head job holds a reservation (the
                  ///  paper/Krevat behaviour).
  kConservative,  ///< Every examined waiting job holds a reservation; a
                  ///  filler may start only if it cannot delay any of them
                  ///  (spatially conservative approximation: it must finish
                  ///  before the earliest reservation or avoid every
                  ///  reserved partition that starts before it finishes).
};

const char* to_string(BackfillMode mode);

/// Which scheduling algorithm drives a pass: Scheduler::decide switches on
/// it to run_krevat or run_conservative (src/sched/algorithm.hpp). The
/// algorithm owns queue traversal and the reservation discipline; placement
/// scoring (PlacementPolicy) and fault prediction (FaultPredictor) remain
/// orthogonal injection points, so every algorithm composes with every
/// scorer/predictor pair and with the migration machinery.
enum class SchedAlgorithm {
  kKrevat,        ///< The paper's engine: FCFS + spatial backfill behind a
                  ///  blocked head, parameterised by BackfillMode. Default;
                  ///  byte-identical to the pre-seam scheduler.
  kEasy,          ///< EASY backfilling, run by krevat's loop: the blocked
                  ///  head job holds one explicit reservation (time +
                  ///  partition), recorded in the decision trail; fillers
                  ///  must finish before it or avoid the reserved
                  ///  partition. Decides exactly as kKrevat.
  kConservative,  ///< Conservative backfilling: every examined waiting job
                  ///  holds a reservation in a queue-order profile; a filler
                  ///  is admitted only if it delays none of them.
  kEasyHoldback,  ///< EASY plus a free-node floor: fillers may not shrink
                  ///  the free pool below SchedulerConfig::holdback_nodes,
                  ///  keeping room for imminent arrivals.
};

const char* to_string(SchedAlgorithm algorithm);
std::optional<SchedAlgorithm> parse_sched_algorithm(std::string_view name);

struct SchedulerConfig {
  /// Queue/reservation discipline of the pass (see SchedAlgorithm).
  SchedAlgorithm algorithm = SchedAlgorithm::kKrevat;
  BackfillMode backfill = BackfillMode::kEasy;
  bool migration = true;
  /// Max queued jobs examined per backfill pass (the head job excluded);
  /// under kConservative also the number of jobs holding reservations.
  int backfill_depth = 64;
  /// Reservations computed per pass under kConservative (krevat only; the
  /// conservative *algorithm* reserves for every job it examines, capped by
  /// backfill_depth).
  int reservation_depth = 8;
  /// kEasyHoldback: free nodes a filler must leave behind. A filler of
  /// alloc size a is admitted only if free_nodes - a >= holdback_nodes.
  int holdback_nodes = 8;
  PartitionFailureRule pf_rule = PartitionFailureRule::kProduct;
};

}  // namespace bgl
