#include "exp/sweep.hpp"

#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bgl::exp {

namespace {

std::size_t axis_size(std::size_t n) { return n == 0 ? 1 : n; }

}  // namespace

std::size_t SweepSpec::num_cells() const {
  return models.size() * axis_size(load_scales.size()) *
         axis_size(failure_budgets.size()) * axis_size(schedulers.size()) *
         axis_size(algorithms.size()) * axis_size(alphas.size()) *
         axis_size(predictors.size()) * axis_size(configs.size());
}

int SweepSpec::repeats() const {
  const int env = default_repeats_from_env();
  return env > repeat_floor ? env : repeat_floor;
}

std::vector<Cell> expand_cells(const SweepSpec& spec) {
  if (spec.models.empty()) {
    throw ConfigError("sweep '" + spec.name + "': the model axis is empty");
  }
  // Degenerate axes iterate once with the documented default value; the
  // failure axis additionally falls back to the paper's per-log budget.
  const std::size_t n_load = axis_size(spec.load_scales.size());
  const std::size_t n_fail = axis_size(spec.failure_budgets.size());
  const std::size_t n_sched = axis_size(spec.schedulers.size());
  const std::size_t n_algo = axis_size(spec.algorithms.size());
  const std::size_t n_alpha = axis_size(spec.alphas.size());
  const std::size_t n_pred = axis_size(spec.predictors.size());
  const std::size_t n_cfg = axis_size(spec.configs.size());
  static const ConfigCase kDefaultConfig{"", SimConfig{}, std::nullopt};

  std::vector<Cell> cells;
  cells.reserve(spec.num_cells());
  for (std::size_t mi = 0; mi < spec.models.size(); ++mi) {
    for (std::size_t li = 0; li < n_load; ++li) {
      for (std::size_t fi = 0; fi < n_fail; ++fi) {
        for (std::size_t si = 0; si < n_sched; ++si) {
          for (std::size_t gi = 0; gi < n_algo; ++gi) {
            for (std::size_t ai = 0; ai < n_alpha; ++ai) {
              for (std::size_t pi = 0; pi < n_pred; ++pi) {
                for (std::size_t ci = 0; ci < n_cfg; ++ci) {
                  Cell cell;
                  cell.index = cells.size();
                  cell.coord = {mi, li, fi, si, gi, ai, pi, ci};
                  cell.model = &spec.models[mi];
                  cell.load_scale =
                      spec.load_scales.empty() ? 1.0 : spec.load_scales[li];
                  cell.nominal_failures =
                      spec.failure_budgets.empty()
                          ? paper_failure_count(cell.model->model)
                          : spec.failure_budgets[fi];
                  cell.scheduler = spec.schedulers.empty()
                                       ? SchedulerKind::kBalancing
                                       : spec.schedulers[si];
                  if (!spec.algorithms.empty()) {
                    cell.algorithm = spec.algorithms[gi];
                  }
                  if (!spec.predictors.empty()) {
                    cell.predictor = spec.predictors[pi];
                  }
                  cell.config = spec.configs.empty() ? &kDefaultConfig
                                                     : &spec.configs[ci];
                  cell.alpha = cell.config->alpha.value_or(
                      spec.alphas.empty() ? 0.0 : spec.alphas[ai]);
                  cells.push_back(cell);
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

RepeatSeeds derive_seeds(int repeat) {
  RepeatSeeds seeds;
  const auto r = static_cast<std::uint64_t>(repeat);
  seeds.workload = 1000 + 17 * r;
  seeds.trace = 500 + 29 * r;
  // The predictor-coin seed has always been derived from the trace seed
  // ("seeds" in ASCII) so that regenerating a trace reshuffles the coins.
  seeds.sim = seeds.trace ^ 0x7365656473ULL;
  return seeds;
}

int default_repeats_from_env() {
  const char* env = std::getenv("BGL_BENCH_SEEDS");
  if (env == nullptr) return 3;
  const auto parsed = parse_int(env);
  if (!parsed || *parsed < 1) {
    throw ConfigError("BGL_BENCH_SEEDS must be an integer >= 1, got '" +
                      std::string(env) + "'");
  }
  return static_cast<int>(*parsed);
}

}  // namespace bgl::exp
