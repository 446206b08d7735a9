// Shared ingredients of the per-figure bench specs.
//
// Every figure bench is now a declarative exp::SweepSpec (see
// bench/common/figures.hpp and src/exp/sweep.hpp): build a synthetic log
// for one of the paper's three machines, scale the paper's nominal failure
// budget onto the log's span (so the failure *density* matches the
// paper's), replay it under a scheduler configuration, and average the
// §3.4 metrics over a few seeds. This header holds what the specs share:
// the paper-calibrated bench models and the improvement metric.
//
// The two environment knobs, BGL_BENCH_SEEDS and BGL_JOB_SCALE, are
// documented at their single parsing site, src/exp/sweep.hpp (bench_runner's
// --seeds and --job-scale set them). Both reject malformed values with a
// ConfigError.
#pragma once

#include "sim/experiment.hpp"
#include "workload/synthetic.hpp"

namespace bgl::bench {

/// Repeats averaged per sweep cell — exp::default_repeats_from_env()
/// (BGL_BENCH_SEEDS, default 3, hard error below 1 or on garbage); figure
/// specs raise their floor via SweepSpec::repeat_floor.
int bench_seeds();

/// The default per-log bench models (paper-calibrated), with BGL_JOB_SCALE
/// applied. Runs are deliberately short (~1000-1200 jobs) and averaged over
/// several seeds: average bounded slowdown in the near-knee regime is
/// heavy-tailed, and many short runs estimate the mean far better than few
/// long ones at equal cost.
SyntheticModel bench_nasa();
SyntheticModel bench_sdsc();
SyntheticModel bench_llnl();

/// Percent improvement of `value` relative to `baseline` (positive = better
/// when lower-is-better). A zero baseline has no meaningful relative
/// improvement, so it is defined to return 0 rather than divide by zero —
/// figure columns then read "no change" for degenerate base rows.
double improvement_pct(double baseline, double value);

}  // namespace bgl::bench
