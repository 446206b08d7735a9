// Checkpointing model (the paper's §8 future-work extension).
//
// The baseline study assumes no checkpointing: a failure loses all of a
// job's work. This module adds the periodic-checkpoint model the authors
// outline so its interaction with prediction can be quantified (see
// bench_ablation_checkpoint):
//
//   * While running, a job checkpoints every `interval` seconds of computed
//     work; each checkpoint stalls it for `overhead` seconds.
//   * A killed job restarts from its most recent completed checkpoint,
//     paying `restart_overhead`, instead of from scratch.
//
// All functions are pure, mapping (work done, config) to wall-clock times;
// svc::SchedulerService owns the per-job state and the accounting.
#pragma once

namespace bgl {

struct CheckpointConfig {
  bool enabled = false;
  double interval = 3600.0;         ///< Work seconds between checkpoints.
  double overhead = 60.0;           ///< Stall per checkpoint (seconds).
  double restart_overhead = 30.0;   ///< Extra cost when resuming from one.

  friend bool operator==(const CheckpointConfig&, const CheckpointConfig&) = default;
};

/// Number of checkpoints taken while computing `work` seconds. A checkpoint
/// exactly at completion is skipped (nothing left to protect).
int checkpoint_count(double work, const CheckpointConfig& config);

/// Wall-clock duration of `work` seconds of computation including
/// checkpoint stalls (== work when disabled).
double walltime_for_work(double work, const CheckpointConfig& config);

/// Work salvaged when a job is killed after `elapsed_wall` wall-clock
/// seconds of a run computing `work` seconds: the progress at the last
/// completed checkpoint (0 when disabled or before the first checkpoint).
double saved_work_at(double elapsed_wall, double work, const CheckpointConfig& config);

}  // namespace bgl
