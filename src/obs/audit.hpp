// Trace auditor: replays a JSONL trace and enforces the simulator's own
// invariants against it, so any scheduler/driver/index change that corrupts
// the event stream (or the stream's documented semantics) fails loudly.
//
// The auditor is a pure consumer — it never runs the simulator. It rebuilds
// the machine (PartitionCatalog from sim_begin's dims/topology) and a
// per-job lifecycle state machine from the events alone, and checks:
//
//   lifecycle          submit → (decision,start) → {kill → restart…} → finish
//   decision_pairing   every job_start is immediately preceded by its
//                      sched_decision (same job, same entry, same t)
//   overlap            no two concurrent jobs on intersecting partitions
//   time_order         nondecreasing t
//   wait/response/slowdown arithmetic re-derivable from event times
//   restart counts     job_start/job_kill/job_finish restarts match the
//                      number of kills observed so far
//   work accounting    job_kill work_lost/work_saved node-second bounds and
//                      agreement with the paired checkpoint event
//   victims            node_failure.victims == following job_kill events,
//                      each on a partition containing the failed node
//   down nodes         a node is down for node_failure.down_for, or from a
//                      "down":true node_failure until its node_repair; no
//                      placement may cover it meanwhile, and a node_repair
//                      must follow such a failure
//   snapshots          machine_state queue/running/free/mfp/frag consistent
//                      with the reconstructed machine state
//   metrics            periodic metrics snapshots: gauges match the
//                      reconstruction, window deltas match the events seen
//                      since the previous metrics event, derived rates
//                      (utilization, finished_per_hour, interval) recompute;
//                      only the wall-clock decision_us_* quantiles and the
//                      pred_tp/pred_fp/pred_fn forecast scores (predictor-
//                      internal state) are exempt from reconstruction —
//                      both get ordering/range sanity checks instead
//   predictor          an inert predictor pairing — "none", or "paper"
//                      under the krevat scheduler — must never flag a node
//                      (predictor_query.nodes_flagged == 0,
//                      sched_decision.flags_in_chosen == 0, pred_tp ==
//                      pred_fp == 0)
//   aggregates         sim_end matches values recomputed from the stream
//   reservations       when sim_begin declares a reservation-carrying
//                      algorithm (easy/conservative/easy-holdback), every
//                      backfill decision must carry res_time/res_entry and
//                      satisfy the admission rule: the filler's estimated
//                      finish (start t + submit estimate) precedes res_time,
//                      or its partition is disjoint from the reserved one
//
// Used by tools/trace_audit (CLI) and tests/obs_audit_test.cpp (seeded
// corruptions); CI pipes fresh traces from all three schedulers through it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace bgl::obs {

enum class ViolationCode {
  kFormat,            ///< Malformed line, missing field, bad sim_begin.
  kTimeOrder,         ///< Simulation time decreased.
  kLifecycle,         ///< Illegal job state transition.
  kDecisionPairing,   ///< sched_decision/job_start pair broken.
  kEntryMismatch,     ///< Paired decision and start disagree on the entry.
  kOverlap,           ///< Concurrent jobs on intersecting partitions.
  kWaitMismatch,      ///< wait/wait_so_far not derivable from event times.
  kResponseMismatch,  ///< response != finish - submit.
  kSlowdownMismatch,  ///< bounded_slowdown != max(resp,Γ)/max(runtime,Γ).
  kRestartMismatch,   ///< restarts field disagrees with observed kills.
  kWorkAccounting,    ///< work_lost/work_saved out of bounds or inconsistent.
  kVictimsMismatch,   ///< node_failure.victims vs job_kill events.
  kFieldMismatch,     ///< Event field disagrees with reconstructed state.
  kReservation,       ///< Backfill reservation invariant broken (see below).
  kSnapshotMismatch,  ///< machine_state disagrees with reconstruction.
  kMetricsMismatch,   ///< metrics snapshot disagrees with reconstruction.
  kPredictorMismatch, ///< An inert predictor pairing flagged a node.
  kAggregateMismatch, ///< sim_end aggregate != recomputed value.
  kTruncated,         ///< Trace ends without sim_end / unfinished jobs.
  kUnknownEvent,      ///< Unknown event type (violation in strict mode).
};

/// Stable code string used in reports and keyed on by tests (e.g. "overlap").
const char* to_string(ViolationCode code);

struct Violation {
  ViolationCode code = ViolationCode::kFormat;
  std::size_t line = 0;      ///< 1-based trace line; 0 = end-of-trace check.
  std::int64_t job = -1;     ///< Workload job id; -1 when not job-scoped.
  std::string message;
};

struct AuditOptions {
  /// Strict mode: unknown event types and a missing/unusable sim_begin
  /// (which disables the partition-overlap and snapshot reconstruction
  /// checks) become violations instead of silent degradations.
  bool strict = false;
  /// Bounded-slowdown Γ the run used (MetricsConfig::gamma default).
  double gamma = 10.0;
  /// Stop collecting after this many violations (the scan still finishes).
  std::size_t max_violations = 1000;
};

struct AuditReport {
  std::vector<Violation> violations;
  std::size_t events = 0;         ///< Parsed trace lines.
  std::size_t jobs = 0;           ///< Distinct jobs submitted.
  std::size_t unknown_events = 0; ///< Lines with an unrecognised type.
  std::size_t dropped_violations = 0;  ///< Found beyond max_violations.

  bool ok() const { return violations.empty() && dropped_violations == 0; }

  /// One JSON object: {"ok":...,"events":...,"violations":[{...},...]}.
  void write_json(std::ostream& out) const;
};

/// Scan a whole trace from `in`. Never throws on trace content — malformed
/// input becomes kFormat violations (scanning stops at unparsable JSON,
/// since field offsets are unreliable past that point).
AuditReport audit_trace(std::istream& in, const AuditOptions& options = {});

}  // namespace bgl::obs
