// The decision-side configuration, declared once.
//
// svc::ServiceConfig holds every setting a scheduling decision depends on.
// SchedulerService (svc/service.hpp) takes it as is; the simulator's
// SimConfig (sim/driver.hpp) extends it with the clock's own settings and
// hands itself to the service, so no setting is declared or copied twice.
#pragma once

#include <cstdint>

#include "ckpt/checkpoint.hpp"
#include "obs/observer.hpp"
#include "predict/registry.hpp"
#include "sched/types.hpp"
#include "sim/metrics.hpp"
#include "torus/catalog.hpp"

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
  kDownFor,    ///< Extension: unschedulable for SimConfig::node_downtime seconds.
};

}  // namespace bgl

namespace bgl::svc {

/// Defaults favour online use: krevat with no predictor needs no failure
/// oracle. SimConfig switches both to the paper's balancing scheduler and
/// simulated predictor.
struct ServiceConfig {
  Dims dims = Dims::bluegene_l();
  /// kTorus (the paper's model) or kMesh (no wrap-around; Krevat et al.
  /// studied both — see bench_ablation_topology).
  Topology topology = Topology::kTorus;
  /// Catalog construction for the service's own catalog (ignored when a
  /// shared catalog is passed in): kBoxes at paper scale, kBlocks for
  /// full-machine runs where box enumeration is infeasible.
  CatalogOptions catalog;
  SchedulerKind scheduler = SchedulerKind::kKrevat;

  /// Prediction quality knob: confidence a for the balancing scheduler,
  /// accuracy a for the tie-breaking scheduler. Ignored by Krevat.
  double alpha = 0.0;
  /// kNone by default: the oracle predictors need a failure trace, which an
  /// online deployment does not have (pass one for simulation parity).
  /// kHistory needs none — it learns from the fail events.
  PredictorModel predictor_model = PredictorModel::kNone;
  /// History window of the kHistory predictor.
  double history_lookback = 7.0 * 86400.0;

  SchedulerConfig sched;
  QueueOrder queue_order = QueueOrder::kFcfs;
  MetricsConfig metrics;
  /// Checkpoint model of the kill accounting (work saved vs lost, checkpoint
  /// trace events). It needs every job's runtime, so live streams keep it
  /// off.
  CheckpointConfig ckpt;

  /// In the simulator, what a failure does to its node (kDownFor holds it
  /// down for SimConfig::node_downtime). The service reads it only for the
  /// pass-invocation rule on victimless fail events; an event's "down":true
  /// always applies the down overlay.
  FailureSemantics failure_semantics = FailureSemantics::kTransient;

  std::uint64_t seed = 1;  ///< Salts the tie-breaking predictor's coins.

  /// Observability hooks (JSONL trace sink, counter registry and/or
  /// histogram registry, all borrowed and nullable — see src/obs/ and
  /// docs/OBSERVABILITY.md). The default disables all tracing/counting at
  /// zero cost.
  obs::Observer obs;

  /// Cadence lines, every this many stream seconds (anchored at begin() or
  /// the first accepted event). Boundaries are drained at the head of each
  /// accepted event — after validation, before the event's own trace lines
  /// — so rejected events emit nothing and t stays non-decreasing. 0 (the
  /// default) disables each.
  ///
  /// machine_state (queue depth, running jobs, free nodes, MFP,
  /// fragmentation, flagged nodes); needs obs.trace.
  double snapshot_interval = 0.0;
  /// `metrics`: queue/occupancy gauges plus windowed rates (submits/starts/
  /// finishes/kills/migrations, throughput, decision-latency quantiles over
  /// the window's scheduler passes) and the forecast scores; needs
  /// obs.trace or obs.counters. docs/OBSERVABILITY.md documents the event.
  double metrics_interval = 0.0;
};

}  // namespace bgl::svc
