// Event-driven simulation of job scheduling with faults (§6.1).
//
// run_simulation is a discrete-event loop and the clock's only owner: it
// holds the pending events (arrivals, failures, finishes, down-time
// expiries) and feeds each one that reaches the scheduler to a
// svc::SchedulerService, the same decision core sched_server serves. The
// service owns the queue, the free-partition index, the Scheduler and its
// predictor, kill/checkpoint accounting, the metrics and the trace lines;
// the loop keeps finish times, the replay log and per-job outcomes.
// Semantics fixed by the paper:
//
//   * jobs start the instant they are scheduled;
//   * failures are transient: a failing node kills any job running on it
//     (work since the last checkpoint — all work, in the baseline — is
//     lost; the job re-enters the queue with its original arrival priority)
//     and is immediately available again;
//   * the scheduler runs on every arrival and every termination, including
//     failure-induced kills.
//
// Extensions beyond the paper, all off by default: checkpointing
// (CheckpointConfig) and node down-time after a failure (kDownFor).
#pragma once

#include <cstdint>
#include <memory>

#include "ckpt/checkpoint.hpp"
#include "failure/trace.hpp"
#include "obs/observer.hpp"
#include "predict/registry.hpp"
#include "sched/types.hpp"
#include "sim/metrics.hpp"
#include "torus/catalog.hpp"
#include "workload/job.hpp"

namespace bgl {

enum class SchedulerKind { kKrevat, kBalancing, kTieBreak };

const char* to_string(SchedulerKind kind);

// PredictorModel (and its to_string/parse) lives in predict/registry.hpp —
// one registry shared by the simulator, service, CLIs and the sweep engine.

/// The PaperRole the kPaper model resolves to under a scheduler kind:
/// balancing -> BalancingPredictor, tie-break -> TieBreakPredictor,
/// krevat -> no predictor.
PaperRole paper_role_for(SchedulerKind kind);

/// Waiting-queue priority order. The paper is strictly FCFS; the others are
/// classic alternatives provided for scheduler studies (see
/// bench_ablation_queue_order).
enum class QueueOrder {
  kFcfs,              ///< (arrival, id) — the paper's discipline.
  kShortestJobFirst,  ///< (estimate, arrival, id).
  kSmallestJobFirst,  ///< (nodes requested, arrival, id).
};

const char* to_string(QueueOrder order);

/// What happens to a node after it fails.
enum class FailureSemantics {
  kTransient,  ///< Paper baseline: instantly healthy again.
  kDownFor,    ///< Extension: unschedulable for `node_downtime` seconds.
};

struct SimConfig {
  Dims dims = Dims::bluegene_l();
  /// kTorus (the paper's model) or kMesh (no wrap-around; Krevat et al.
  /// studied both — see bench_ablation_topology).
  Topology topology = Topology::kTorus;
  /// Catalog construction for the run's own catalog (ignored when a
  /// shared catalog is passed in): kBoxes at paper scale, kBlocks for
  /// full-machine runs where box enumeration is infeasible.
  CatalogOptions catalog;
  SchedulerKind scheduler = SchedulerKind::kBalancing;

  /// Prediction quality knob: confidence a for the balancing scheduler,
  /// accuracy a for the tie-breaking scheduler. Ignored by Krevat.
  double alpha = 0.0;
  /// Optional false positives for the tie-breaking predictor (paper: 0).
  double tiebreak_false_positive_rate = 0.0;
  /// Predictor source (paper-simulated by default).
  PredictorModel predictor_model = PredictorModel::kPaper;
  /// History window of the kHistory predictor.
  double history_lookback = 7.0 * 86400.0;

  SchedulerConfig sched;
  QueueOrder queue_order = QueueOrder::kFcfs;
  MetricsConfig metrics;
  CheckpointConfig ckpt;

  FailureSemantics failure_semantics = FailureSemantics::kTransient;
  double node_downtime = 0.0;  ///< Seconds a node stays down (kDownFor).

  std::uint64_t seed = 1;      ///< Salts the tie-breaking predictor's coins.

  bool collect_outcomes = false;
  /// Record a structured event log (SimResult::replay) for offline
  /// validation, visualisation, or regression diffing (src/sim/replay.hpp).
  bool record_replay = false;

  /// Observability hooks (JSONL trace sink, counter registry and/or
  /// histogram registry, all borrowed and nullable — see src/obs/ and
  /// docs/OBSERVABILITY.md). The default disables all tracing/counting at
  /// zero cost.
  obs::Observer obs;

  /// Emit a machine_state trace event every this many simulated seconds
  /// (queue depth, running jobs, free nodes, MFP, fragmentation, flagged
  /// nodes). 0 (the default) disables snapshots entirely; requires
  /// obs.trace, otherwise ignored.
  double snapshot_interval = 0.0;

  /// Emit a `metrics` trace event every this many simulated seconds:
  /// queue/occupancy gauges plus windowed rates (submits/starts/finishes/
  /// kills/migrations, throughput, decision-latency quantiles over the
  /// window's scheduler passes). 0 (the default) disables metrics — traces
  /// are then byte-identical to pre-metrics builds; requires obs.trace,
  /// otherwise ignored. docs/OBSERVABILITY.md documents the event.
  double metrics_interval = 0.0;
};

/// Run one simulation. Job sizes must already fit config.dims (use
/// rescale_sizes()); the failure trace must target the same node count.
/// Pass a prebuilt catalog to amortise its construction across sweeps.
SimResult run_simulation(const Workload& workload, const FailureTrace& trace,
                         const SimConfig& config,
                         const PartitionCatalog* shared_catalog = nullptr);

}  // namespace bgl
