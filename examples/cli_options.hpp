// Option parsing for simulate_cli, split out so tests can exercise it.
//
// parse_cli_options() throws bgl::ConfigError on any malformed flag — an
// unknown option, a missing value, or a value that does not parse as the
// required type. Nothing is ever silently defaulted: `--jobs banana` is an
// error naming the flag and the offending token, never "0 jobs" (the
// numbers go through util/strings.hpp's require_int / require_double, as
// sched_server's and loadgen's do). main() catches ConfigError, prints it
// to stderr, and exits 2 (usage error).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sched/types.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bgl_cli {

struct Options {
  std::string workload = "sdsc";
  int jobs = 2000;
  double load = 1.0;
  std::optional<std::size_t> failures;
  std::optional<std::string> failure_csv;
  std::string scheduler = "balancing";
  std::string algorithm = "krevat";
  std::string predictor = "paper";
  double alpha = 0.1;
  double history_lookback = 0.0;  ///< 0 = keep SimConfig default.
  bgl::BackfillMode backfill = bgl::BackfillMode::kEasy;
  bool migration = true;
  double ckpt_interval = 0.0;
  double downtime = 0.0;
  std::uint64_t seed = 42;
  std::optional<std::string> trace_out;
  std::optional<std::string> stats_out;
  double snapshot_interval = 0.0;
  double metrics_interval = 0.0;
  bool profile = false;
};

/// Parse argv[1..argc-1]. Throws bgl::ConfigError on any malformed input.
inline Options parse_cli_options(int argc, const char* const* argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw bgl::ConfigError(arg + " requires a value");
      }
      return std::string(argv[++i]);
    };
    if (arg == "--workload") {
      o.workload = next();
    } else if (arg == "--jobs") {
      const long long n = bgl::require_int(arg, next());
      if (n < 1) {
        throw bgl::ConfigError("--jobs must be >= 1, got " + std::to_string(n));
      }
      o.jobs = static_cast<int>(n);
    } else if (arg == "--load") {
      o.load = bgl::require_double(arg, next());
      if (o.load <= 0.0) throw bgl::ConfigError("--load must be positive");
    } else if (arg == "--failures") {
      const long long n = bgl::require_int(arg, next());
      if (n < 0) throw bgl::ConfigError("--failures must be >= 0");
      o.failures = static_cast<std::size_t>(n);
    } else if (arg == "--failure-csv") {
      o.failure_csv = next();
    } else if (arg == "--scheduler") {
      o.scheduler = next();
    } else if (arg == "--algorithm") {
      o.algorithm = next();
    } else if (arg == "--predictor") {
      o.predictor = next();
    } else if (arg == "--history-lookback") {
      o.history_lookback = bgl::require_double(arg, next());
      if (o.history_lookback <= 0.0) {
        throw bgl::ConfigError("--history-lookback must be positive");
      }
    } else if (arg == "--alpha") {
      o.alpha = bgl::require_double(arg, next());
      if (o.alpha < 0.0 || o.alpha > 1.0) {
        throw bgl::ConfigError("--alpha must be in [0,1]");
      }
    } else if (arg == "--no-backfill") {
      o.backfill = bgl::BackfillMode::kNone;
    } else if (arg == "--conservative-backfill") {
      o.backfill = bgl::BackfillMode::kConservative;
    } else if (arg == "--no-migration") {
      o.migration = false;
    } else if (arg == "--ckpt-interval") {
      o.ckpt_interval = bgl::require_double(arg, next());
      if (o.ckpt_interval <= 0.0) {
        throw bgl::ConfigError("--ckpt-interval must be positive");
      }
    } else if (arg == "--downtime") {
      o.downtime = bgl::require_double(arg, next());
      if (o.downtime < 0.0) throw bgl::ConfigError("--downtime must be >= 0");
    } else if (arg == "--seed") {
      o.seed = static_cast<std::uint64_t>(bgl::require_int(arg, next()));
    } else if (arg == "--trace-out") {
      o.trace_out = next();
    } else if (arg == "--snapshot-interval") {
      o.snapshot_interval = bgl::require_double(arg, next());
      if (o.snapshot_interval < 0.0) {
        throw bgl::ConfigError("--snapshot-interval must be >= 0");
      }
    } else if (arg == "--metrics-interval") {
      o.metrics_interval = bgl::require_double(arg, next());
      if (o.metrics_interval < 0.0) {
        throw bgl::ConfigError("--metrics-interval must be >= 0");
      }
    } else if (arg == "--profile") {
      o.profile = true;
    } else if (arg == "--stats-out") {
      o.stats_out = next();
    } else {
      throw bgl::ConfigError("unknown option: " + arg);
    }
  }
  return o;
}

}  // namespace bgl_cli
