// Event-driven simulation of job scheduling with faults (§6.1).
//
// run_simulation is a discrete-event loop and the clock's only owner: it
// holds the pending events (arrivals, failures, finishes, down-time
// expiries) and feeds each one that reaches the scheduler to a
// svc::SchedulerService, the same decision core sched_server serves. The
// service owns the queue, the free-partition index, the Scheduler and its
// predictor, kill/checkpoint accounting, the metrics and the trace lines,
// the run's one journal; the loop keeps finish times and per-job outcomes.
// SimConfig extends the service's svc::ServiceConfig (svc/config.hpp) with
// the clock's own settings, so every decision-side setting is declared once.
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

#include "failure/trace.hpp"
#include "sim/metrics.hpp"
#include "svc/config.hpp"
#include "torus/catalog.hpp"
#include "workload/job.hpp"

namespace bgl {

/// The simulator's configuration: the decision-side svc::ServiceConfig
/// (svc/config.hpp), which run_simulation hands to its SchedulerService as
/// is, extended with the clock's own settings. Two defaults differ from the
/// service's: the paper's balancing scheduler with its simulated predictor.
struct SimConfig : svc::ServiceConfig {
  SimConfig() {
    scheduler = SchedulerKind::kBalancing;
    predictor_model = PredictorModel::kPaper;
  }

  double node_downtime = 0.0;  ///< Seconds a node stays down (kDownFor).
  /// Fill SimResult::outcomes with every job's final record.
  bool collect_outcomes = false;
};

/// Run one simulation. Job sizes must already fit config.dims (use
/// rescale_sizes()); the failure trace must target the same node count.
/// Pass a prebuilt catalog to amortise its construction across sweeps.
SimResult run_simulation(const Workload& workload, const FailureTrace& trace,
                         const SimConfig& config,
                         const PartitionCatalog* shared_catalog = nullptr);

}  // namespace bgl
