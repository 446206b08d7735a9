#include "exp/runner.hpp"

#include <algorithm>
#include <mutex>

#include "failure/generator.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "workload/job.hpp"

namespace bgl::exp {

namespace {

/// Everything one (cell, repeat) simulation produces, written into its own
/// slot so execution order cannot leak into the reduction.
struct UnitOutcome {
  SimResult result;
  std::size_t injected_events = 0;
  obs::CounterRegistry counters;
  obs::HistogramRegistry histograms;
  obs::PhaseProfiler profiler;
};

/// One simulation, replicating the historical bench recipe exactly:
/// generate the log, rescale sizes onto the machine, scale the load,
/// stretch the failure trace over the estimated makespan at the nominal
/// density, and simulate under the cell's scheduler configuration.
void run_unit(const Cell& cell, int repeat,
              const PartitionCatalog& torus_catalog, UnitOutcome& out) {
  const RepeatSeeds seeds = derive_seeds(repeat);
  const SyntheticModel& model = cell.model->model;

  // The machine is the config case's dims (default: the paper's 4x4x8
  // supernode view, identical to the historical hardcoding).
  const Dims dims = cell.config->proto.dims;

  Workload w = generate_workload(model, seeds.workload);
  w = rescale_sizes(w, dims.volume());
  const double span = w.arrival_span();
  if (cell.load_scale != 1.0) w = scale_load(w, cell.load_scale);

  double max_runtime = 0.0;
  for (const Job& j : w.jobs) max_runtime = std::max(max_runtime, j.runtime);
  const double trace_span = span * 1.05 + 2.0 * max_runtime;
  out.injected_events =
      span_scaled_events(cell.nominal_failures, trace_span, model);

  FailureModel fm = FailureModel::bluegene_l(out.injected_events, trace_span);
  fm.num_nodes = dims.volume();  // no-op at paper scale (128)
  const FailureTrace trace = generate_failures(fm, seeds.trace);

  SimConfig config = cell.config->proto;
  config.scheduler = cell.scheduler;
  if (cell.algorithm) config.sched.algorithm = *cell.algorithm;
  if (cell.predictor) config.predictor_model = *cell.predictor;
  config.alpha = cell.alpha;
  config.seed = seeds.sim;
  // Each unit records into its own registries; any observer the prototype
  // carried is dropped (a shared TraceSink or registry would race).
  config.obs = obs::Observer{};
  config.obs.counters = &out.counters;
  config.obs.histograms = &out.histograms;
  config.obs.profiler = &out.profiler;

  // The shared catalog is the default paper-scale torus one; cells that
  // deviate on any catalog-shaping axis (mesh topology, non-paper dims,
  // block mode) build their own inside run_simulation.
  const bool shares_catalog = config.topology == Topology::kTorus &&
                              config.dims == torus_catalog.dims() &&
                              config.catalog.mode == CatalogOptions::Mode::kBoxes;
  out.result = run_simulation(w, trace, config,
                              shares_catalog ? &torus_catalog : nullptr);
}

}  // namespace

const PointSummary& SweepResult::at(std::size_t model, std::size_t load,
                                    std::size_t failures,
                                    std::size_t scheduler,
                                    std::size_t algorithm, std::size_t alpha,
                                    std::size_t predictor,
                                    std::size_t config) const {
  BGL_CHECK(model < shape_.models && load < shape_.loads &&
                failures < shape_.failures && scheduler < shape_.schedulers &&
                algorithm < shape_.algorithms && alpha < shape_.alphas &&
                predictor < shape_.predictors && config < shape_.configs,
            "sweep cell coordinate out of range");
  const std::size_t index =
      ((((((model * shape_.loads + load) * shape_.failures + failures) *
              shape_.schedulers +
          scheduler) *
             shape_.algorithms +
         algorithm) *
            shape_.alphas +
        alpha) *
           shape_.predictors +
       predictor) *
          shape_.configs +
      config;
  return cells_[index];
}

SweepResult SweepRunner::run(const SweepSpec& spec,
                             const RunOptions& options) const {
  const std::vector<Cell> cells = expand_cells(spec);
  const int repeats = spec.repeats();
  const std::size_t units = cells.size() * static_cast<std::size_t>(repeats);

  // Built once, shared read-only by every torus cell (the catalog has no
  // lazy state; each driver builds its own FreePartitionIndex from it).
  const PartitionCatalog torus_catalog(Dims::bluegene_l());

  std::vector<UnitOutcome> outcomes(units);
  std::mutex progress_mutex;
  std::size_t done = 0;
  util::parallel_for(
      units, options.threads <= 1 ? 1 : static_cast<std::size_t>(options.threads),
      [&](std::size_t u) {
        const Cell& cell = cells[u / static_cast<std::size_t>(repeats)];
        const int repeat = static_cast<int>(u % static_cast<std::size_t>(repeats));
        run_unit(cell, repeat, torus_catalog, outcomes[u]);
        if (options.progress) {
          std::lock_guard<std::mutex> lock(progress_mutex);
          options.progress(++done, units);
        }
      });

  SweepResult result;
  result.shape_.models = spec.models.size();
  result.shape_.loads = std::max<std::size_t>(1, spec.load_scales.size());
  result.shape_.failures = std::max<std::size_t>(1, spec.failure_budgets.size());
  result.shape_.schedulers = std::max<std::size_t>(1, spec.schedulers.size());
  result.shape_.algorithms = std::max<std::size_t>(1, spec.algorithms.size());
  result.shape_.alphas = std::max<std::size_t>(1, spec.alphas.size());
  result.shape_.predictors = std::max<std::size_t>(1, spec.predictors.size());
  result.shape_.configs = std::max<std::size_t>(1, spec.configs.size());

  // Deterministic reduction: repeats average in repeat order within each
  // cell (the exact summation order of the historical serial benches);
  // registries merge in (cell, repeat) order.
  result.cells_.resize(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    PointSummary& s = result.cells_[c];
    s.seeds = repeats;
    for (int r = 0; r < repeats; ++r) {
      const UnitOutcome& o =
          outcomes[c * static_cast<std::size_t>(repeats) +
                   static_cast<std::size_t>(r)];
      s.slowdown += o.result.avg_bounded_slowdown;
      s.response += o.result.avg_response;
      s.wait += o.result.avg_wait;
      s.utilization += o.result.utilization;
      s.unused += o.result.unused;
      s.lost += o.result.lost;
      s.kills += static_cast<double>(o.result.job_kills);
      s.migrations += static_cast<double>(o.result.migrations);
      s.injected_events += static_cast<double>(o.injected_events);
      s.work_lost_node_hours += o.result.work_lost_node_seconds / 3600.0;
      result.counters_.merge(o.counters);
      result.histograms_.merge(o.histograms);
      result.profiler_.merge(o.profiler);
    }
    const double n = static_cast<double>(repeats);
    s.slowdown /= n;
    s.response /= n;
    s.wait /= n;
    s.utilization /= n;
    s.unused /= n;
    s.lost /= n;
    s.kills /= n;
    s.migrations /= n;
    s.injected_events /= n;
    s.work_lost_node_hours /= n;
  }
  return result;
}

}  // namespace bgl::exp
