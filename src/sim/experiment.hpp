// Experiment harness: one call from (workload spec, failure spec, scheduler
// spec) to a SimResult, plus sweep helpers used by the per-figure benches.
//
// The paper's experimental grid (§6-7):
//   * job logs: NASA / SDSC / LLNL (here: synthetic models or real SWF);
//   * load scale c ∈ [0.5, 1.5] (figures use 1.0 and 1.2);
//   * failures: 4000 events for NASA/SDSC spans, 1000 for LLNL, plus a
//     0..4000-by-500 rate sweep on SDSC;
//   * prediction knob a ∈ {0.0, 0.1, ..., 1.0} (confidence or accuracy);
//   * schedulers: Krevat baseline, balancing, tie-breaking.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "failure/generator.hpp"
#include "sim/driver.hpp"
#include "workload/synthetic.hpp"

namespace bgl {

/// Workload source: a synthetic model, optionally overridden by a real SWF
/// file (drop-in replacement for the archive logs the paper uses).
struct WorkloadSpec {
  SyntheticModel model = SyntheticModel::sdsc();
  std::uint64_t seed = 42;
  double load_scale = 1.0;                 ///< The paper's c.
  std::optional<std::string> swf_path;     ///< Use a real log instead.
};

struct FailureSpec {
  std::size_t events = 4000;     ///< Paper: 4000 (NASA/SDSC), 1000 (LLNL).
  std::uint64_t seed = 7;
  FailureModel model;            ///< num_nodes/span set by the harness.
  std::optional<std::string> csv_path;  ///< Use a recorded trace instead.
};

struct ExperimentSpec {
  WorkloadSpec workload;
  FailureSpec failures;
  SimConfig sim;
};

/// Materialised inputs (kept so sweeps can reuse them across sim configs).
struct ExperimentInputs {
  Workload workload;      ///< Sizes rescaled onto sim.dims, load scaled.
  FailureTrace trace;
};

/// Build the workload (generate or load, rescale sizes onto the machine,
/// apply the load scale) and the failure trace (generated over the
/// workload's span, or loaded). Deterministic.
ExperimentInputs prepare_inputs(const ExperimentSpec& spec);

/// prepare_inputs + run_simulation.
SimResult run_experiment(const ExperimentSpec& spec,
                         const PartitionCatalog* shared_catalog = nullptr);

/// The paper's per-log failure-event budget.
std::size_t paper_failure_count(const SyntheticModel& model);

/// Scale a paper-nominal failure count (which refers to the real log's full
/// duration, model.reference_span_days) onto a synthetic log of
/// `span_seconds`, preserving the failure density. E.g. 4000 SDSC events
/// over 730 days become ~320 events on a 58-day synthetic log.
std::size_t span_scaled_events(std::size_t nominal, double span_seconds,
                               const SyntheticModel& model);

/// Multiply a synthetic model's job count by BGL_JOB_SCALE (environment
/// variable, default 1.0) so bench runs can be shrunk or grown without
/// recompiling. Returns the scale applied. Throws ConfigError when the
/// variable is set to anything but a positive finite number (NaN, inf,
/// zero, negative, or non-numeric text) — a mis-typed scale must fail the
/// run, not silently produce full-size results.
double apply_job_scale_env(SyntheticModel& model);

}  // namespace bgl
