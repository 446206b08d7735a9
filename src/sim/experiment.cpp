#include "sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "workload/swf.hpp"

namespace bgl {

std::size_t paper_failure_count(const SyntheticModel& model) {
  // §6.2: "4000 failures for each of NASA and SDSC job log based simulation
  // studies, and 1000 failures for LLNL job log based studies."
  return model.name == "llnl-t3d" ? 1000u : 4000u;
}

std::size_t span_scaled_events(std::size_t nominal, double span_seconds,
                               const SyntheticModel& model) {
  BGL_CHECK(model.reference_span_days > 0.0, "reference span must be positive");
  const double fraction = span_seconds / (model.reference_span_days * 86400.0);
  return static_cast<std::size_t>(
      std::llround(static_cast<double>(nominal) * fraction));
}

double apply_job_scale_env(SyntheticModel& model) {
  double scale = 1.0;
  if (const char* env = std::getenv("BGL_JOB_SCALE")) {
    const auto parsed = parse_double(env);
    if (!parsed || !std::isfinite(*parsed) || *parsed <= 0.0) {
      throw ConfigError("BGL_JOB_SCALE must be a positive finite number, got '" +
                        std::string(env) + "'");
    }
    scale = *parsed;
  }
  model.num_jobs = std::max(1, static_cast<int>(model.num_jobs * scale));
  return scale;
}

ExperimentInputs prepare_inputs(const ExperimentSpec& spec) {
  ExperimentInputs inputs;

  // 1. Workload: synthetic or real SWF.
  if (spec.workload.swf_path) {
    inputs.workload = read_swf_file(*spec.workload.swf_path);
  } else {
    inputs.workload = generate_workload(spec.workload.model, spec.workload.seed);
  }
  inputs.workload = rescale_sizes(inputs.workload, spec.sim.dims.volume());
  if (spec.workload.load_scale != 1.0) {
    inputs.workload = scale_load(inputs.workload, spec.workload.load_scale);
  }

  // 2. Failures: cover the workload's whole (estimated) makespan. The exact
  //    makespan depends on the scheduler; arrival span plus a generous tail
  //    matches how the paper retimes its trace onto each log's span.
  if (spec.failures.csv_path) {
    inputs.trace = read_failure_csv(*spec.failures.csv_path, spec.sim.dims.volume());
  } else {
    double max_runtime = 0.0;
    for (const Job& j : inputs.workload.jobs) max_runtime = std::max(max_runtime, j.runtime);
    FailureModel model = spec.failures.model;
    model.num_nodes = spec.sim.dims.volume();
    model.span_seconds =
        std::max(1.0, inputs.workload.arrival_span() * 1.05 + 2.0 * max_runtime);
    model.target_events = spec.failures.events;
    inputs.trace = generate_failures(model, spec.failures.seed);
  }
  return inputs;
}

SimResult run_experiment(const ExperimentSpec& spec,
                         const PartitionCatalog* shared_catalog) {
  const ExperimentInputs inputs = prepare_inputs(spec);
  return run_simulation(inputs.workload, inputs.trace, spec.sim, shared_catalog);
}

}  // namespace bgl
