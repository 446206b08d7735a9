// Trace tools: generate, inspect and convert the simulator's two input
// artifacts — SWF job logs and failure-trace CSVs — so users can prepare
// their own inputs (including real Parallel Workloads Archive logs).
//
// Usage:
//   trace_tools gen-swf <nasa|sdsc|llnl> <jobs> <seed> <out.swf>
//   trace_tools gen-failures <events> <days> <seed> <out.csv>
//   trace_tools describe-swf <file.swf>
//   trace_tools describe-failures <file.csv> [nodes]
//   trace_tools describe-trace <trace.jsonl>
//
// A malformed or out-of-range number exits 2 naming the argument
// (`<events> requires an integer, got 'lots'`), as simulate_cli's flags do:
// nothing is silently defaulted.
#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "failure/generator.hpp"
#include "obs/reader.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "workload/analysis.hpp"
#include "workload/swf.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace bgl;

int usage() {
  std::cerr << "usage:\n"
            << "  trace_tools gen-swf <nasa|sdsc|llnl> <jobs> <seed> <out.swf>\n"
            << "  trace_tools gen-failures <events> <days> <seed> <out.csv>\n"
            << "  trace_tools describe-swf <file.swf>\n"
            << "  trace_tools describe-failures <file.csv> [nodes]\n"
            << "  trace_tools describe-trace <trace.jsonl>\n";
  return 2;
}

/// A positional integer argument that must be at least `min`.
long long int_arg(const std::string& name, const std::string& token,
                  long long min) {
  const long long v = require_int(name, token);
  if (v < min) {
    throw ConfigError(name + " must be >= " + std::to_string(min) + ", got " +
                      token);
  }
  return v;
}

SyntheticModel model_by_name(const std::string& name) {
  if (name == "nasa") return SyntheticModel::nasa();
  if (name == "sdsc") return SyntheticModel::sdsc();
  if (name == "llnl") return SyntheticModel::llnl();
  throw ConfigError("unknown model '" + name + "' (expected nasa|sdsc|llnl)");
}

int gen_swf(int argc, char** argv) {
  if (argc != 6) return usage();
  SyntheticModel model = model_by_name(argv[2]);
  model.num_jobs = static_cast<int>(int_arg("<jobs>", argv[3], 1));
  const auto seed =
      static_cast<std::uint64_t>(require_int("<seed>", argv[4]));
  const Workload w = generate_workload(model, seed);
  write_swf_file(argv[5], w);
  std::cout << "wrote " << w.jobs.size() << " jobs to " << argv[5] << '\n'
            << describe(w);
  return 0;
}

int gen_failures(int argc, char** argv) {
  if (argc != 6) return usage();
  const auto events = static_cast<std::size_t>(int_arg("<events>", argv[2], 0));
  const double days = require_double("<days>", argv[3]);
  if (!(days > 0.0)) {
    throw ConfigError(std::string("<days> must be positive, got ") + argv[3]);
  }
  const auto seed =
      static_cast<std::uint64_t>(require_int("<seed>", argv[4]));
  const FailureTrace trace =
      generate_failures(FailureModel::bluegene_l(events, days * 86400.0), seed);
  write_failure_csv(argv[5], trace);
  std::cout << "wrote " << trace.size() << " failure events to " << argv[5] << " ("
            << format_double(trace.mean_rate_per_day(), 2) << "/day)\n";
  return 0;
}

int describe_swf(int argc, char** argv) {
  if (argc != 3) return usage();
  const Workload w = read_swf_file(argv[2]);
  std::cout << describe(w);
  return 0;
}

int describe_failures(int argc, char** argv) {
  if (argc != 3 && argc != 4) return usage();
  const int nodes =
      argc == 4 ? static_cast<int>(int_arg("[nodes]", argv[3], 1)) : 128;
  const FailureTrace trace = read_failure_csv(argv[2], nodes);
  std::cout << "failure trace: " << trace.size() << " events over " << nodes
            << " nodes\n";
  if (trace.empty()) return 0;
  std::cout << "  span: "
            << format_duration(trace.events().back().time - trace.events().front().time)
            << ", rate " << format_double(trace.mean_rate_per_day(), 2) << "/day\n";
  // Node skew: how concentrated are failures on repeat offenders?
  std::vector<std::size_t> per_node(static_cast<std::size_t>(nodes), 0);
  for (const FailureEvent& e : trace.events()) ++per_node[static_cast<std::size_t>(e.node)];
  std::sort(per_node.rbegin(), per_node.rend());
  // The top decile: a tenth of the nodes, and at least one.
  const std::size_t decile = std::max<std::size_t>(1, per_node.size() / 10);
  std::size_t top10 = 0;
  for (std::size_t i = 0; i < decile; ++i) top10 += per_node[i];
  std::cout << "  top-10% offender nodes account for "
            << format_double(100.0 * static_cast<double>(top10) /
                                 static_cast<double>(trace.size()),
                             1)
            << "% of events\n";
  // Burstiness: inter-event gap CV.
  RunningStats gaps;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    gaps.add(trace.events()[i].time - trace.events()[i - 1].time);
  }
  if (gaps.count() > 1 && gaps.mean() > 0.0) {
    std::cout << "  inter-event gap CV: " << format_double(gaps.stddev() / gaps.mean(), 2)
              << " (Poisson ~ 1, bursty >> 1)\n";
  }
  return 0;
}

// Summarise a JSONL simulator trace (docs/OBSERVABILITY.md) through
// obs::TraceReader: event counts per type, simulated span, and the jobs hit
// hardest by failures.
int describe_trace(int argc, char** argv) {
  if (argc != 3) return usage();
  std::ifstream in(argv[2]);
  if (!in) {
    std::cerr << "error: cannot open " << argv[2] << '\n';
    return 1;
  }

  std::array<std::size_t, static_cast<std::size_t>(obs::EventType::kUnknown) + 1>
      counts{};
  std::map<std::int64_t, int> restarts;  // job -> kills observed
  double t_min = 0.0, t_max = 0.0;
  std::size_t events = 0;

  obs::TraceReader reader(in);
  obs::TraceRecord rec;
  while (reader.next(rec)) {
    ++counts[static_cast<std::size_t>(rec.type())];
    if (events == 0) {
      t_min = t_max = rec.t();
    } else {
      t_min = std::min(t_min, rec.t());
      t_max = std::max(t_max, rec.t());
    }
    ++events;
    if (rec.type() == obs::EventType::kJobKill) {
      ++restarts[rec.require_int("job")];
    }
  }

  std::cout << "trace: " << events << " events";
  if (events > 0) {
    std::cout << ", t in [" << format_double(t_min, 10) << ", "
              << format_double(t_max, 10) << "] ("
              << format_duration(t_max - t_min) << ")";
  }
  std::cout << '\n';
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    std::cout << "  " << obs::to_string(static_cast<obs::EventType>(i)) << ": "
              << counts[i] << '\n';
  }

  if (!restarts.empty()) {
    std::vector<std::pair<std::int64_t, int>> worst(restarts.begin(),
                                                    restarts.end());
    std::sort(worst.begin(), worst.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    std::cout << "most-restarted jobs:\n";
    for (std::size_t i = 0; i < worst.size() && i < 5; ++i) {
      std::cout << "  job " << worst[i].first << ": " << worst[i].second
                << " kill(s)\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "gen-swf") return gen_swf(argc, argv);
    if (command == "gen-failures") return gen_failures(argc, argv);
    if (command == "describe-swf") return describe_swf(argc, argv);
    if (command == "describe-failures") return describe_failures(argc, argv);
    if (command == "describe-trace") return describe_trace(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
