#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "exp/runner.hpp"
#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace bgl::exp {
namespace {

SyntheticModel tiny_model() {
  SyntheticModel model = SyntheticModel::sdsc();
  model.num_jobs = 60;
  return model;
}

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.models = {{"SDSC", tiny_model()}};
  spec.load_scales = {1.0, 1.2};
  spec.failure_budgets = {0, 1000};
  spec.alphas = {0.0, 0.5};
  return spec;
}

TEST(SweepSpec, ExpandsRowMajorWithConfigsFastest) {
  SweepSpec spec = tiny_spec();
  SimConfig mesh;
  mesh.topology = Topology::kMesh;
  spec.configs = {{"torus", SimConfig{}, std::nullopt},
                  {"mesh", mesh, std::nullopt}};

  const std::vector<Cell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), spec.num_cells());
  ASSERT_EQ(cells.size(), 2u * 2u * 2u * 2u);  // loads x budgets x alphas x cfgs

  // configs fastest, then alphas, then failure budgets, then loads.
  EXPECT_EQ(cells[0].config->label, "torus");
  EXPECT_EQ(cells[1].config->label, "mesh");
  EXPECT_DOUBLE_EQ(cells[0].alpha, 0.0);
  EXPECT_DOUBLE_EQ(cells[2].alpha, 0.5);
  EXPECT_EQ(cells[0].nominal_failures, 0u);
  EXPECT_EQ(cells[4].nominal_failures, 1000u);
  EXPECT_DOUBLE_EQ(cells[0].load_scale, 1.0);
  EXPECT_DOUBLE_EQ(cells[8].load_scale, 1.2);
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);
}

TEST(SweepSpec, EmptyAxesIterateOnceWithDefaults) {
  SweepSpec spec;
  spec.name = "defaults";
  spec.models = {{"LLNL", SyntheticModel::llnl()}};
  const std::vector<Cell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_DOUBLE_EQ(cells[0].load_scale, 1.0);
  EXPECT_EQ(cells[0].nominal_failures, paper_failure_count(SyntheticModel::llnl()));
  EXPECT_EQ(cells[0].scheduler, SchedulerKind::kBalancing);
  EXPECT_DOUBLE_EQ(cells[0].alpha, 0.0);
  ASSERT_NE(cells[0].config, nullptr);
}

TEST(SweepSpec, ConfigAlphaOverridesAxis) {
  SweepSpec spec;
  spec.name = "override";
  spec.models = {{"SDSC", tiny_model()}};
  spec.alphas = {0.2};
  spec.configs = {{"axis", SimConfig{}, std::nullopt},
                  {"pinned", SimConfig{}, 0.9}};
  const std::vector<Cell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_DOUBLE_EQ(cells[0].alpha, 0.2);
  EXPECT_DOUBLE_EQ(cells[1].alpha, 0.9);
}

TEST(SweepSpec, EmptyModelAxisThrows) {
  SweepSpec spec;
  spec.name = "nomodels";
  EXPECT_THROW(expand_cells(spec), ConfigError);
}

TEST(SweepSeeds, SharedSchemeMatchesHistoricalFormulas) {
  for (const int repeat : {0, 2}) {
    const RepeatSeeds s = derive_seeds(repeat);
    const auto r = static_cast<std::uint64_t>(repeat);
    EXPECT_EQ(s.workload, 1000 + 17 * r);
    EXPECT_EQ(s.trace, 500 + 29 * r);
    EXPECT_EQ(s.sim, s.trace ^ 0x7365656473ULL);
  }
}

TEST(SweepSeeds, MalformedBenchSeedsEnvThrows) {
  for (const char* bad : {"banana", "0", "-3", "2.5", ""}) {
    ASSERT_EQ(setenv("BGL_BENCH_SEEDS", bad, 1), 0);
    EXPECT_THROW(default_repeats_from_env(), ConfigError) << bad;
  }
  ASSERT_EQ(setenv("BGL_BENCH_SEEDS", "4", 1), 0);
  EXPECT_EQ(default_repeats_from_env(), 4);
  unsetenv("BGL_BENCH_SEEDS");
  EXPECT_EQ(default_repeats_from_env(), 3);
}

// Drop the wall-clock metrics (scheduler decision latency) from a registry
// JSON dump. They measure real elapsed time, so no two runs — serial or
// parallel — ever agree on them; every simulation-derived metric must
// still match bit-for-bit.
std::string strip_timing(std::string json) {
  for (const char* key :
       {"\"sched.decision_ns\":", "\"avg_decision_us\":"}) {
    const auto start = json.find(key);
    if (start == std::string::npos) continue;
    auto end = json.find(',', start);
    if (end == std::string::npos) end = json.size() - 1;
    json.erase(start, end - start + 1);
  }
  const auto start = json.find("\"sched.decision_us\":{");
  if (start != std::string::npos) {
    auto end = json.find('}', start);  // histogram objects nest no braces
    if (end != std::string::npos && end + 1 < json.size() &&
        json[end + 1] == ',') {
      ++end;
    }
    json.erase(start, end - start + 1);
  }
  return json;
}

// The tentpole guarantee: a parallel run is indistinguishable from the
// serial reference — bit-equal cell metrics and identical merged
// counter/histogram dumps (modulo wall-clock timing), regardless of
// thread count.
TEST(SweepRunner, ParallelRunIsBitIdenticalToSerial) {
  ASSERT_EQ(setenv("BGL_BENCH_SEEDS", "2", 1), 0);
  const SweepSpec spec = tiny_spec();

  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 8;
  const SweepResult a = SweepRunner().run(spec, serial);
  const SweepResult b = SweepRunner().run(spec, parallel);

  ASSERT_EQ(a.num_cells(), b.num_cells());
  for (std::size_t i = 0; i < a.num_cells(); ++i) {
    // Bit-equal, not tolerance-equal: the reduction order is fixed.
    EXPECT_EQ(std::memcmp(&a.cell(i), &b.cell(i), sizeof(PointSummary)), 0)
        << "cell " << i;
  }

  std::ostringstream ca, cb, ha, hb;
  a.counters().write_json(ca);
  b.counters().write_json(cb);
  a.histograms().write_json(ha);
  b.histograms().write_json(hb);
  EXPECT_EQ(strip_timing(ca.str()), strip_timing(cb.str()));
  EXPECT_EQ(strip_timing(ha.str()), strip_timing(hb.str()));
  EXPECT_NE(ca.str(), "{}");  // the merge actually carried data
  unsetenv("BGL_BENCH_SEEDS");
}

// The merged phase tree (snapshot content for every bench stats.json) is
// deterministic across thread counts in everything but wall time: same
// nodes, same paths, same span counts, no drops. Wall totals are host
// noise, so they are excluded — the tree *shape* is the contract.
TEST(SweepRunner, PhaseTreeCountsAreThreadCountInvariant) {
  ASSERT_EQ(setenv("BGL_BENCH_SEEDS", "2", 1), 0);
  const SweepSpec spec = tiny_spec();

  const auto counts_by_path = [](const SweepResult& r) {
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < r.profiler().num_nodes(); ++i) {
      const obs::PhaseProfiler::NodeView v = r.profiler().node_view(i);
      out[v.path] = v.count;
    }
    return out;
  };

  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 8;
  const SweepResult a = SweepRunner().run(spec, serial);
  const SweepResult b = SweepRunner().run(spec, parallel);

  EXPECT_EQ(a.profiler().dropped_spans(), 0u);
  EXPECT_EQ(b.profiler().dropped_spans(), 0u);
  EXPECT_FALSE(a.profiler().empty());
  EXPECT_EQ(counts_by_path(a), counts_by_path(b));
  // The root of every simulation's tree is the DES event loop.
  EXPECT_GT(counts_by_path(a).count("des.event"), 0u);
  unsetenv("BGL_BENCH_SEEDS");
}

// --- algorithm axis (scheduler-portfolio dimension) ----------------------

TEST(SweepSpec, AlgorithmAxisExpandsBetweenSchedulersAndAlphas) {
  SweepSpec spec;
  spec.name = "algos";
  spec.models = {{"SDSC", tiny_model()}};
  spec.schedulers = {SchedulerKind::kKrevat, SchedulerKind::kBalancing};
  spec.algorithms = {SchedAlgorithm::kKrevat, SchedAlgorithm::kEasy,
                     SchedAlgorithm::kConservative};
  spec.alphas = {0.0, 0.5};

  const std::vector<Cell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), spec.num_cells());
  ASSERT_EQ(cells.size(), 2u * 3u * 2u);  // schedulers x algorithms x alphas

  // Alphas vary fastest, then algorithms, then schedulers.
  ASSERT_TRUE(cells[0].algorithm.has_value());
  EXPECT_EQ(*cells[0].algorithm, SchedAlgorithm::kKrevat);
  EXPECT_EQ(*cells[2].algorithm, SchedAlgorithm::kEasy);
  EXPECT_EQ(*cells[4].algorithm, SchedAlgorithm::kConservative);
  EXPECT_EQ(cells[5].coord.algorithm, 2u);
  EXPECT_EQ(cells[6].scheduler, SchedulerKind::kBalancing);
  EXPECT_EQ(*cells[6].algorithm, SchedAlgorithm::kKrevat);
  EXPECT_EQ(cells[6].coord.algorithm, 0u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].coord.alpha, i % 2) << i;
    EXPECT_EQ(cells[i].coord.algorithm, (i / 2) % 3) << i;
    EXPECT_EQ(cells[i].coord.scheduler, i / 6) << i;
  }
}

TEST(SweepSpec, EmptyAlgorithmAxisPreservesConfigChoice) {
  // With no algorithms axis the cell carries no override: run_unit leaves
  // whatever SchedAlgorithm the ConfigCase proto pinned — the byte-safety
  // contract that let the axis land without perturbing existing figures.
  const std::vector<Cell> cells = expand_cells(tiny_spec());
  for (const Cell& cell : cells) EXPECT_FALSE(cell.algorithm.has_value());
}

TEST(SweepRunner, DegenerateAlgorithmAxisIsByteIdentical) {
  ASSERT_EQ(setenv("BGL_BENCH_SEEDS", "2", 1), 0);
  SweepSpec base = tiny_spec();
  SweepSpec with_axis = tiny_spec();
  with_axis.algorithms = {SchedAlgorithm::kKrevat};

  const SweepResult a = SweepRunner().run(base, RunOptions{});
  const SweepResult b = SweepRunner().run(with_axis, RunOptions{});
  unsetenv("BGL_BENCH_SEEDS");

  ASSERT_EQ(a.num_cells(), b.num_cells());
  EXPECT_EQ(b.shape().algorithms, 1u);
  for (std::size_t i = 0; i < a.num_cells(); ++i) {
    EXPECT_EQ(std::memcmp(&a.cell(i), &b.cell(i), sizeof(PointSummary)), 0)
        << "cell " << i;
  }
}

TEST(SweepRunner, AlgorithmAxisReachesTheScheduler) {
  ASSERT_EQ(setenv("BGL_BENCH_SEEDS", "2", 1), 0);
  SweepSpec spec;
  spec.name = "algo-effect";
  SyntheticModel model = tiny_model();
  spec.models = {{"SDSC", model}};
  spec.load_scales = {1.4};  // oversubscribed: backfill choices matter
  spec.algorithms = {SchedAlgorithm::kKrevat, SchedAlgorithm::kConservative,
                     SchedAlgorithm::kEasyHoldback};
  spec.alphas = {0.1};

  const SweepResult result = SweepRunner().run(spec, RunOptions{});
  unsetenv("BGL_BENCH_SEEDS");

  ASSERT_EQ(result.num_cells(), 3u);
  EXPECT_EQ(result.shape().algorithms, 3u);
  // at() addresses the algorithm dimension directly.
  EXPECT_EQ(&result.at(0, 0, 0, 0, 1, 0, 0, 0), &result.cell(1));
  // The disciplines must actually produce different schedules somewhere:
  // identical grids would mean the axis never reached SchedulerConfig.
  bool any_difference = false;
  for (std::size_t gi = 1; gi < 3; ++gi) {
    const PointSummary& base = result.cell(0);
    const PointSummary& other = result.cell(gi);
    if (base.slowdown != other.slowdown || base.wait != other.wait ||
        base.utilization != other.utilization) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

// --- predictor axis (fault-prediction-model dimension) -------------------

TEST(SweepSpec, PredictorAxisExpandsBetweenAlphasAndConfigs) {
  SweepSpec spec;
  spec.name = "preds";
  spec.models = {{"SDSC", tiny_model()}};
  spec.alphas = {0.0, 0.5};
  spec.predictors = {PredictorModel::kPaper, PredictorModel::kHistory,
                     PredictorModel::kPerfect};
  SimConfig mesh;
  mesh.topology = Topology::kMesh;
  spec.configs = {{"torus", SimConfig{}, std::nullopt},
                  {"mesh", mesh, std::nullopt}};

  const std::vector<Cell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), spec.num_cells());
  ASSERT_EQ(cells.size(), 2u * 3u * 2u);  // alphas x predictors x configs

  // Configs vary fastest, then predictors, then alphas.
  ASSERT_TRUE(cells[0].predictor.has_value());
  EXPECT_EQ(*cells[0].predictor, PredictorModel::kPaper);
  EXPECT_EQ(*cells[2].predictor, PredictorModel::kHistory);
  EXPECT_EQ(*cells[4].predictor, PredictorModel::kPerfect);
  EXPECT_EQ(cells[1].config->label, "mesh");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].coord.config, i % 2) << i;
    EXPECT_EQ(cells[i].coord.predictor, (i / 2) % 3) << i;
    EXPECT_EQ(cells[i].coord.alpha, i / 6) << i;
  }
}

TEST(SweepSpec, EmptyPredictorAxisPreservesConfigChoice) {
  // No predictor axis -> no override: run_unit keeps whatever
  // PredictorModel the ConfigCase proto pinned, so every pre-axis sweep
  // stays byte-identical (same contract as the algorithm axis).
  const std::vector<Cell> cells = expand_cells(tiny_spec());
  for (const Cell& cell : cells) EXPECT_FALSE(cell.predictor.has_value());
}

TEST(SweepRunner, DegeneratePredictorAxisIsByteIdentical) {
  ASSERT_EQ(setenv("BGL_BENCH_SEEDS", "2", 1), 0);
  SweepSpec base = tiny_spec();
  SweepSpec with_axis = tiny_spec();
  with_axis.predictors = {PredictorModel::kPaper};  // == the proto default

  const SweepResult a = SweepRunner().run(base, RunOptions{});
  const SweepResult b = SweepRunner().run(with_axis, RunOptions{});
  unsetenv("BGL_BENCH_SEEDS");

  ASSERT_EQ(a.num_cells(), b.num_cells());
  EXPECT_EQ(b.shape().predictors, 1u);
  for (std::size_t i = 0; i < a.num_cells(); ++i) {
    EXPECT_EQ(std::memcmp(&a.cell(i), &b.cell(i), sizeof(PointSummary)), 0)
        << "cell " << i;
  }
}

TEST(SweepRunner, PredictorAxisReachesTheDriver) {
  ASSERT_EQ(setenv("BGL_BENCH_SEEDS", "2", 1), 0);
  SweepSpec spec;
  spec.name = "pred-effect";
  spec.models = {{"SDSC", tiny_model()}};
  spec.failure_budgets = {2000};  // dense faults: prediction choices matter
  spec.alphas = {0.9};
  spec.predictors = {PredictorModel::kNone, PredictorModel::kPerfect,
                     PredictorModel::kHistory};

  const SweepResult result = SweepRunner().run(spec, RunOptions{});
  unsetenv("BGL_BENCH_SEEDS");

  ASSERT_EQ(result.num_cells(), 3u);
  EXPECT_EQ(result.shape().predictors, 3u);
  // at() addresses the predictor dimension directly.
  EXPECT_EQ(&result.at(0, 0, 0, 0, 0, 0, 1, 0), &result.cell(1));
  // The models must actually produce different schedules somewhere:
  // identical grids would mean the axis never reached SimConfig.
  bool any_difference = false;
  for (std::size_t pi = 1; pi < 3; ++pi) {
    const PointSummary& base = result.cell(0);
    const PointSummary& other = result.cell(pi);
    if (base.slowdown != other.slowdown || base.wait != other.wait ||
        base.kills != other.kills) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace bgl::exp
