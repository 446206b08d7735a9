// Declarative experiment sweeps over the paper's §6–7 grid.
//
// The paper's results are a cartesian grid — {NASA, SDSC, LLNL} × load
// scale c × failure budget × α ∈ [0, 1] × scheduler × config variant — and
// every figure is one rectangular slice of it. A SweepSpec names those axes
// once; expand_cells() turns the spec into a flat, deterministically
// ordered list of cells (row-major, last axis fastest); SweepRunner
// (runner.hpp) executes the cells on a thread pool. Nothing here depends on
// execution order: a cell's inputs are pure functions of (spec, cell index,
// repeat), and its RNG seeds of the repeat alone (derive_seeds), which is
// what makes `--threads 8` and `--threads 1` byte-identical.
//
// Environment knobs honoured by the helpers in this header (single source
// of truth for their documentation; misuse is a hard ConfigError, never a
// silent fallback):
//
//   BGL_BENCH_SEEDS  repeats averaged per cell (integer >= 1, default 3;
//                    specs may force a higher floor via repeat_floor)
//   BGL_JOB_SCALE    multiplies synthetic job counts (positive finite
//                    number, default 1.0) — parsed by apply_job_scale_env()
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "workload/synthetic.hpp"

namespace bgl::exp {

/// One value of the workload-model axis.
struct ModelCase {
  std::string label;       ///< e.g. "SDSC" — used in table/CSV naming.
  SyntheticModel model;
};

/// One value of the config axis: a SimConfig prototype (backfill /
/// migration / checkpoint / predictor / topology knobs). `alpha`, when set,
/// overrides the alpha axis for every cell of this case — used by sweeps
/// whose variants each carry their own knob value (e.g. the
/// history-predictor ablation, where the oracle runs at α = 1.0 while the
/// oblivious baseline runs at α = 0.0).
struct ConfigCase {
  std::string label;
  SimConfig proto;
  std::optional<double> alpha;
};

/// Axes of one sweep. `models` must be non-empty; every other axis left
/// empty iterates once over its documented default at expand time (so a
/// factory can always `push_back` its values without first clearing a
/// baked-in element):
///
///   load_scales      {1.0}
///   failure_budgets  the paper's per-log budget, paper_failure_count(model)
///   schedulers       {SchedulerKind::kBalancing}
///   algorithms       whatever each ConfigCase proto carries (i.e. the axis
///                    does not override SchedulerConfig::algorithm at all)
///   alphas           {0.0}
///   predictors       whatever each ConfigCase proto carries (i.e. the axis
///                    does not override SimConfig::predictor_model at all)
///   configs          one default-constructed SimConfig, no alpha override
struct SweepSpec {
  std::string name;                       ///< e.g. "fig3" — output naming.

  std::vector<ModelCase> models;
  std::vector<double> load_scales;        ///< The paper's c.
  std::vector<std::size_t> failure_budgets;
  std::vector<SchedulerKind> schedulers;
  /// Scheduling-algorithm axis (docs/SCHEDULERS.md): which backfill
  /// discipline drives the pass, orthogonal to the `schedulers` axis (which
  /// picks the placement-scoring policy + predictor pairing).
  std::vector<SchedAlgorithm> algorithms;
  std::vector<double> alphas;
  /// Predictor-model axis (docs/PREDICTORS.md): which fault-prediction
  /// source feeds the scheduler, orthogonal to `alphas` (the quality /
  /// confidence knob the oracle models consume).
  std::vector<PredictorModel> predictors;
  std::vector<ConfigCase> configs;

  /// Repeats (seeds) averaged per cell: max(BGL_BENCH_SEEDS, repeat_floor).
  /// Noise-sensitive sweeps (the slowdown figures) raise the floor to 5.
  int repeat_floor = 1;

  std::size_t num_cells() const;
  /// Resolved repeats per cell (env + floor). Throws ConfigError on a
  /// malformed BGL_BENCH_SEEDS.
  int repeats() const;
};

/// Position of a cell on each axis, in spec order.
struct CellCoord {
  std::size_t model = 0;
  std::size_t load = 0;
  std::size_t failures = 0;
  std::size_t scheduler = 0;
  std::size_t algorithm = 0;
  std::size_t alpha = 0;
  std::size_t predictor = 0;
  std::size_t config = 0;
};

/// One fully resolved grid cell.
struct Cell {
  std::size_t index = 0;    ///< Flat row-major index (configs fastest).
  CellCoord coord;
  const ModelCase* model = nullptr;
  double load_scale = 1.0;
  /// Nominal failure budget (paper_failure_count(model) when the axis was
  /// left empty).
  std::size_t nominal_failures = 0;
  SchedulerKind scheduler = SchedulerKind::kBalancing;
  /// Set iff the spec's algorithm axis is non-empty; nullopt means "keep the
  /// ConfigCase proto's SchedulerConfig::algorithm" (the degenerate-axis
  /// default, which keeps pre-axis sweeps byte-identical).
  std::optional<SchedAlgorithm> algorithm;
  double alpha = 0.0;       ///< After any ConfigCase override.
  /// Set iff the spec's predictor axis is non-empty; nullopt keeps the
  /// ConfigCase proto's PredictorModel (same degenerate-axis contract).
  std::optional<PredictorModel> predictor;
  const ConfigCase* config = nullptr;
};

/// Expand the spec into its cell list (row-major over the axes in
/// declaration order; `configs` varies fastest). Pointers borrow from
/// `spec`, which must outlive the cells. Throws ConfigError on an empty
/// model axis.
std::vector<Cell> expand_cells(const SweepSpec& spec);

/// The three seeds of one (cell, repeat) simulation.
struct RepeatSeeds {
  std::uint64_t workload = 0;  ///< generate_workload()
  std::uint64_t trace = 0;     ///< generate_failures()
  std::uint64_t sim = 0;       ///< SimConfig::seed (predictor coins)
};

/// The historical bench derivation, a pure function of the repeat: workload
/// seed 1000 + 17·repeat and trace seed 500 + 29·repeat, the same for every
/// cell, so cells share workloads and traces and axis contrasts are paired.
/// Every figure CSV depends on these formulas.
RepeatSeeds derive_seeds(int repeat);

/// Repeats-per-cell environment default (BGL_BENCH_SEEDS, default 3).
/// Throws ConfigError when the variable is set to anything but an integer
/// >= 1. This is the single documented home of that knob.
int default_repeats_from_env();

/// Seed-averaged metrics of one cell (the mean over its repeats of the
/// §3.4 metric set, in repeat order — so the reduction is bit-stable).
struct PointSummary {
  double slowdown = 0.0;
  double response = 0.0;
  double wait = 0.0;
  double utilization = 0.0;
  double unused = 0.0;
  double lost = 0.0;
  double kills = 0.0;
  double migrations = 0.0;
  double injected_events = 0.0;   ///< Actual failure events per run (avg).
  double work_lost_node_hours = 0.0;
  int seeds = 0;                  ///< Repeats averaged.
};

}  // namespace bgl::exp
