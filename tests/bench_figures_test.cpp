// The figure layer (bench/common/figures.hpp) on top of the sweep engine.
// Built only with BGL_BUILD_BENCH, the option that adds the figure library.
#include "common/figures.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace bgl::exp {
namespace {

// End-to-end through the figure layer: the CSV files a figure writes are
// byte-identical across thread counts.
TEST(SweepRunner, FigureCsvBytesAreThreadCountInvariant) {
  ASSERT_EQ(setenv("BGL_BENCH_SEEDS", "2", 1), 0);

  SyntheticModel model = SyntheticModel::sdsc();
  model.num_jobs = 60;
  bench::FigureDef fig;
  fig.name = "tiny_fig";
  fig.header = "tiny figure";
  fig.spec.name = "tiny";
  fig.spec.models = {{"SDSC", model}};
  fig.spec.load_scales = {1.0, 1.2};
  fig.spec.failure_budgets = {0, 1000};
  fig.spec.alphas = {0.0, 0.5};
  fig.render = [](const SweepResult& r) {
    Table table({"cell", "slowdown", "utilized"});
    for (std::size_t i = 0; i < r.num_cells(); ++i) {
      table.add_row()
          .add(static_cast<long long>(i))
          .add(r.cell(i).slowdown, 3)
          .add(r.cell(i).utilization, 3);
    }
    bench::FigureOutput out;
    out.parts.push_back({"tiny_fig", "", std::move(table)});
    return out;
  };

  auto run_at = [&fig](int threads, const std::string& dir) {
    bench::FigureRunOptions options;
    options.threads = threads;
    options.out_dir = dir;
    options.progress = false;
    std::ostringstream sink;
    bench::run_figure(fig, options, sink);
    std::ifstream in(dir + "/tiny_fig.csv");
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
  };

  const std::string serial = run_at(1, testing::TempDir() + "/sweep_t1");
  const std::string parallel = run_at(8, testing::TempDir() + "/sweep_t8");
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  unsetenv("BGL_BENCH_SEEDS");
}

}  // namespace
}  // namespace bgl::exp
