// bench_runner: run the paper-figure benchmark sweeps; the one front end of
// the figure registry (bench/common/figures.hpp).
//
//   bench_runner --list
//   bench_runner --figure fig3 [--figure fig7 ...] [options]
//   bench_runner --all [options]
//
// Options:
//   --threads N     worker threads per sweep (default 1; N=1 is the
//                   reference serial order, larger N must produce
//                   byte-identical CSVs — see docs/ARCHITECTURE.md)
//   --out DIR       output directory (default bench_out)
//   --seeds N       repeats per sweep cell (sets BGL_BENCH_SEEDS)
//   --job-scale X   shrink the synthetic logs (sets BGL_JOB_SCALE); use a
//                   small value like 0.1 for smoke runs
//
// Each figure writes its CSVs, any artifact it renders and
// <figure>.stats.json into the output directory. Exit status: 0 on
// success, 1 on runtime error, 2 on usage error.
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/figures.hpp"
#include "util/strings.hpp"

namespace {

void usage(std::ostream& out) {
  out << "usage: bench_runner --list | --figure NAME [--figure NAME ...] |"
         " --all\n"
         "  --threads N    worker threads per sweep (default 1)\n"
         "  --out DIR      output directory (default bench_out)\n"
         "  --seeds N      repeats per sweep cell (sets BGL_BENCH_SEEDS)\n"
         "  --job-scale X  synthetic-log scale factor (sets BGL_JOB_SCALE)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgl::bench;

  bool list = false;
  bool all = false;
  std::vector<std::string> names;
  FigureRunOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bench_runner: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--figure") {
      names.push_back(value());
    } else if (arg == "--threads") {
      const auto n = bgl::parse_int(value());
      if (!n || *n < 1) {
        std::cerr << "bench_runner: --threads needs an integer >= 1\n";
        return 2;
      }
      options.threads = static_cast<int>(*n);
    } else if (arg == "--out") {
      options.out_dir = value();
    } else if (arg == "--seeds") {
      const auto n = bgl::parse_int(value());
      if (!n || *n < 1) {
        std::cerr << "bench_runner: --seeds needs an integer >= 1\n";
        return 2;
      }
      setenv("BGL_BENCH_SEEDS", std::to_string(*n).c_str(), 1);
    } else if (arg == "--job-scale") {
      const char* v = value();
      const auto x = bgl::parse_double(v);
      if (!x || !(*x > 0.0)) {
        std::cerr << "bench_runner: --job-scale needs a positive number\n";
        return 2;
      }
      setenv("BGL_JOB_SCALE", v, 1);
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "bench_runner: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    }
  }

  try {
    // Specs read BGL_BENCH_SEEDS / BGL_JOB_SCALE, so build the registry
    // only after --seeds / --job-scale have landed in the environment.
    const std::vector<FigureDef> figures = all_figures();

    if (list) {
      for (const FigureDef& fig : figures) {
        std::cout << std::left << std::setw(28) << fig.name << fig.summary
                  << "\n";
      }
      return 0;
    }
    if (!all && names.empty()) {
      usage(std::cerr);
      return 2;
    }

    std::vector<const FigureDef*> selected;
    if (all) {
      for (const FigureDef& fig : figures) selected.push_back(&fig);
    } else {
      for (const std::string& name : names) {
        const FigureDef* found = nullptr;
        for (const FigureDef& fig : figures) {
          if (fig.name == name) found = &fig;
        }
        if (!found) {
          std::cerr << "bench_runner: unknown figure '" << name
                    << "' (try --list)\n";
          return 2;
        }
        selected.push_back(found);
      }
    }

    const auto t0 = std::chrono::steady_clock::now();
    for (const FigureDef* fig : selected) {
      const auto f0 = std::chrono::steady_clock::now();
      run_figure(*fig, options, std::cout);
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - f0;
      std::cout << "[done] " << fig->name << " in " << bgl::format_double(dt.count(), 1)
                << " s\n\n";
    }
    const std::chrono::duration<double> total =
        std::chrono::steady_clock::now() - t0;
    std::cout << "[done] " << selected.size() << " figure(s) in "
              << bgl::format_double(total.count(), 1) << " s, threads="
              << options.threads << ", out=" << options.out_dir << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_runner: " << e.what() << '\n';
    return 1;
  }
}
