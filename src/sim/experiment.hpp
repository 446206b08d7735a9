// The paper's experimental grid (§6-7):
//   * job logs: NASA / SDSC / LLNL (here: synthetic models or real SWF);
//   * load scale c ∈ [0.5, 1.5] (figures use 1.0 and 1.2);
//   * failures: 4000 events for NASA/SDSC spans, 1000 for LLNL, plus a
//     0..4000-by-500 rate sweep on SDSC;
//   * prediction knob a ∈ {0.0, 0.1, ..., 1.0} (confidence or accuracy);
//   * schedulers: Krevat baseline, balancing, tie-breaking.
// and the helpers that size a run to it: the per-log failure budget, its
// scaling onto a synthetic log's span, and BGL_JOB_SCALE. Each program
// builds its own inputs with them (simulate_cli, quickstart, bench_scale,
// and the figure benches through exp::SweepRunner).
#pragma once

#include <cstddef>

#include "workload/synthetic.hpp"

namespace bgl {

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
