// Per-job outcome invariants on a realistic run: timeline ordering, exact
// final-run durations, and consistency between per-job and aggregate
// counters.
#include <gtest/gtest.h>

#include "failure/generator.hpp"
#include "param_names.hpp"
#include "sim/driver.hpp"
#include "workload/synthetic.hpp"

namespace bgl {
namespace {

class OutcomeInvariants : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(OutcomeInvariants, HoldForEveryJob) {
  SyntheticModel model = SyntheticModel::sdsc();
  model.num_jobs = 400;
  Workload w = generate_workload(model, 77);
  w = rescale_sizes(w, 128);

  const double span = w.arrival_span() * 1.05 + 2.0 * 36.0 * 3600.0;
  const FailureTrace trace = generate_failures(
      FailureModel::bluegene_l(static_cast<std::size_t>(10.0 * span / 86400.0), span),
      13);

  SimConfig config;
  config.scheduler = GetParam();
  config.alpha = 0.5;
  config.collect_outcomes = true;
  const SimResult r = run_simulation(w, trace, config);

  ASSERT_EQ(r.outcomes.size(), w.jobs.size());
  long long total_restarts = 0;
  double recomputed_wait = 0.0;
  double recomputed_response = 0.0;
  double recomputed_slowdown = 0.0;
  for (const JobOutcome& o : r.outcomes) {
    EXPECT_GE(o.first_start, o.arrival);
    EXPECT_GE(o.last_start, o.first_start);
    // Checkpointing is off: the final (successful) run computes the full
    // runtime in one stretch.
    EXPECT_NEAR(o.finish - o.last_start, o.runtime, 1e-6);
    EXPECT_GE(o.restarts, 0);
    if (o.restarts == 0) {
      EXPECT_DOUBLE_EQ(o.first_start, o.last_start);
    }
    total_restarts += o.restarts;
    recomputed_wait += o.wait();
    recomputed_response += o.response();
    recomputed_slowdown += bounded_slowdown(o, config.metrics);
  }
  EXPECT_EQ(static_cast<std::size_t>(total_restarts), r.job_kills);
  const double n = static_cast<double>(r.outcomes.size());
  EXPECT_NEAR(recomputed_wait / n, r.avg_wait, 1e-6);
  EXPECT_NEAR(recomputed_response / n, r.avg_response, 1e-6);
  EXPECT_NEAR(recomputed_slowdown / n, r.avg_bounded_slowdown, 1e-6);

  // Span consistency: every job finished within [min arrival, span end].
  double max_finish = 0.0;
  double min_arrival = r.outcomes.front().arrival;
  for (const JobOutcome& o : r.outcomes) {
    max_finish = std::max(max_finish, o.finish);
    min_arrival = std::min(min_arrival, o.arrival);
  }
  EXPECT_NEAR(r.span, max_finish - min_arrival, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, OutcomeInvariants,
                         ::testing::Values(SchedulerKind::kKrevat,
                                           SchedulerKind::kBalancing,
                                           SchedulerKind::kTieBreak),
                         [](const ::testing::TestParamInfo<SchedulerKind>& info) {
                           return test::scheduler_name(info.param);
                         });

TEST(OutcomeInvariants, CheckpointedFinalRunIsShorter) {
  SyntheticModel model = SyntheticModel::sdsc();
  model.num_jobs = 200;
  Workload w = generate_workload(model, 5);
  w = rescale_sizes(w, 128);
  const double span = w.arrival_span() * 1.05 + 2.0 * 36.0 * 3600.0;
  const FailureTrace trace = generate_failures(
      FailureModel::bluegene_l(static_cast<std::size_t>(15.0 * span / 86400.0), span),
      3);

  SimConfig config;
  config.scheduler = SchedulerKind::kKrevat;
  config.collect_outcomes = true;
  config.ckpt.enabled = true;
  config.ckpt.interval = 1800.0;
  config.ckpt.overhead = 30.0;
  const SimResult r = run_simulation(w, trace, config);

  for (const JobOutcome& o : r.outcomes) {
    // The final run never computes more than the full runtime plus all
    // checkpoint overhead, and with salvaged progress it may be shorter.
    const double final_run = o.finish - o.last_start;
    const double max_wall = walltime_for_work(o.runtime, config.ckpt) +
                            config.ckpt.restart_overhead;
    EXPECT_LE(final_run, max_wall + 1e-6);
    EXPECT_GT(final_run, 0.0);
  }
  EXPECT_GT(r.checkpoints_taken, 0u);
}

}  // namespace
}  // namespace bgl
