#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/error.hpp"

namespace bgl {
namespace {

TEST(Experiment, PaperFailureCounts) {
  EXPECT_EQ(paper_failure_count(SyntheticModel::nasa()), 4000u);
  EXPECT_EQ(paper_failure_count(SyntheticModel::sdsc()), 4000u);
  EXPECT_EQ(paper_failure_count(SyntheticModel::llnl()), 1000u);
}

TEST(Experiment, JobScaleEnvShrinksModels) {
  ASSERT_EQ(setenv("BGL_JOB_SCALE", "0.5", 1), 0);
  SyntheticModel model = SyntheticModel::sdsc();
  const int before = model.num_jobs;
  const double scale = apply_job_scale_env(model);
  EXPECT_DOUBLE_EQ(scale, 0.5);
  EXPECT_EQ(model.num_jobs, before / 2);
  unsetenv("BGL_JOB_SCALE");
}

TEST(Experiment, MalformedJobScaleRejected) {
  // A silently ignored typo used to run the full-size log; malformed
  // values are now a hard error (garbage, NaN, inf, zero, negative).
  SyntheticModel model = SyntheticModel::sdsc();
  for (const char* bad : {"banana", "nan", "inf", "0", "-1", "1.5x", ""}) {
    ASSERT_EQ(setenv("BGL_JOB_SCALE", bad, 1), 0);
    EXPECT_THROW(apply_job_scale_env(model), ConfigError) << bad;
  }
  unsetenv("BGL_JOB_SCALE");
  EXPECT_EQ(model.num_jobs, SyntheticModel::sdsc().num_jobs);
}

}  // namespace
}  // namespace bgl
