// bench_scale: the full-machine CI gates. It has two modes; with neither it
// prints its usage and exits 2.
//
//   bench_scale --perf-smoke [--jobs N]
//       Replay one full-machine SDSC workload (default 20 000 jobs) through
//       the engine and print its wall time. At the default size the
//       SimResult checksum must equal kSmokeChecksum. A second run with the
//       phase profiler attached must reproduce the same SimResult with a
//       populated, drop-free tree.
//       Exit status: 0 ok, 2 a checksum or profiler check failed. Speed is
//       gated by perfbench's full-sim workload (the same 64x32x32 block
//       recipe) against BENCHMARK.json's bounds.
//
//   bench_scale --emit-trace PATH [--jobs N]
//       Write the JSONL trace of a short full-scale run (default 2 000
//       jobs, machine_state snapshots on) so CI can feed a 65 536-node
//       block-catalog trace through `tools/trace_audit --strict`.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "failure/generator.hpp"
#include "obs/counters.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "util/strings.hpp"
#include "workload/job.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace bgl;

/// sim_result_checksum of the default --perf-smoke replay (20 000 jobs).
constexpr int kSmokeJobs = 20000;
constexpr std::uint64_t kSmokeChecksum = 0xa509a2f423da5fe2ull;

/// The full BlueGene/L: 64 x 32 x 32 nodes.
Dims scale_machine_dims() { return Dims{64, 32, 32}; }

/// The block catalog (min_block 256): full box enumeration is infeasible at
/// this volume.
SimConfig scale_proto() {
  SimConfig proto;
  proto.dims = scale_machine_dims();
  proto.catalog.mode = CatalogOptions::Mode::kBlocks;
  proto.catalog.min_block = 256;
  return proto;
}

struct ScaleInputs {
  Workload workload;
  FailureTrace trace;
  std::size_t injected_events = 0;
};

/// The bench recipe at full machine scale (same shape as exp::run_unit):
/// generate the SDSC log, rescale sizes onto 65 536 nodes, stretch the
/// paper's failure budget over the log's span at matching density.
ScaleInputs make_inputs(int jobs) {
  SyntheticModel model = SyntheticModel::sdsc();
  model.num_jobs = jobs;
  const Dims dims = scale_machine_dims();

  ScaleInputs in;
  in.workload = generate_workload(model, /*seed=*/1000);
  in.workload = rescale_sizes(in.workload, dims.volume());
  const double span = in.workload.arrival_span();
  double max_runtime = 0.0;
  for (const Job& j : in.workload.jobs) {
    max_runtime = std::max(max_runtime, j.runtime);
  }
  const double trace_span = span * 1.05 + 2.0 * max_runtime;
  in.injected_events =
      span_scaled_events(paper_failure_count(model), trace_span, model);

  FailureModel fm = FailureModel::bluegene_l(in.injected_events, trace_span);
  fm.num_nodes = dims.volume();
  in.trace = generate_failures(fm, /*seed=*/500);
  return in;
}

SimConfig smoke_config() {
  SimConfig config = scale_proto();
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.1;
  config.seed = 500 ^ 0x7365656473ULL;  // The bench seed derivation.
  return config;
}


int run_perf_smoke(int jobs) {
  const ScaleInputs in = make_inputs(jobs);
  std::printf("perf-smoke: %d nodes (%s), %zu jobs, %zu failure events\n",
              scale_machine_dims().volume(),
              to_string(scale_machine_dims()).c_str(),
              in.workload.jobs.size(), in.injected_events);

  // Per-run counters so the log shows where the time went (scheduler
  // decisions vs the event loop).
  auto timed_run = [&in](SimConfig config, const char* label) {
    obs::CounterRegistry counters;
    config.obs.counters = &counters;
    const SimResult result = run_simulation(in.workload, in.trace, config);
    std::printf(
        "perf-smoke: %s: %.3f s (%.3f s in %llu scheduler passes)\n", label,
        result.wall_seconds,
        static_cast<double>(counters.value(obs::Counter::kSchedDecisionNanos)) *
            1e-9,
        static_cast<unsigned long long>(
            counters.value(obs::Counter::kSchedInvocations)));
    return result;
  };

  const SimResult run = timed_run(smoke_config(), "engine");
  const std::uint64_t sum = sim_result_checksum(run);
  std::printf("perf-smoke: checksum %016llx\n",
              static_cast<unsigned long long>(sum));
  if (jobs == kSmokeJobs && sum != kSmokeChecksum) {
    std::printf("perf-smoke: FAIL — checksum differs from the pinned %016llx; "
                "a scheduling decision changed\n",
                static_cast<unsigned long long>(kSmokeChecksum));
    return 2;
  }

  // Phase-profiler gate: attaching the profiler must be pure observation —
  // identical SimResult, spans recorded, none lost.
  SimConfig profiled = smoke_config();
  obs::PhaseProfiler profiler;
  profiled.obs.profiler = &profiler;
  const SimResult prof = timed_run(profiled, "engine + phase profiler");
  if (sim_result_checksum(prof) != sum) {
    std::printf(
        "perf-smoke: FAIL — attaching the phase profiler changed a "
        "scheduling decision (checksum %016llx vs %016llx)\n",
        static_cast<unsigned long long>(sim_result_checksum(prof)),
        static_cast<unsigned long long>(sum));
    return 2;
  }
  if (profiler.empty() || profiler.dropped_spans() != 0) {
    std::printf("perf-smoke: FAIL — profiler recorded %zu nodes, dropped "
                "%llu spans (want a populated tree with zero drops)\n",
                profiler.num_nodes(),
                static_cast<unsigned long long>(profiler.dropped_spans()));
    return 2;
  }
  std::printf(
      "perf-smoke: profiler attached: %.3f s (%.2fx of the detached run), "
      "%zu tree nodes, 0 dropped spans\n",
      prof.wall_seconds,
      run.wall_seconds > 0.0 ? prof.wall_seconds / run.wall_seconds : 0.0,
      profiler.num_nodes());

  std::printf("perf-smoke: PASS\n");
  return 0;
}

int run_emit_trace(const std::string& path, int jobs) {
  const ScaleInputs in = make_inputs(jobs);
  auto sink = obs::TraceSink::open(path);
  if (sink == nullptr) {
    std::cerr << "bench_scale: cannot open " << path << " for writing\n";
    return 1;
  }
  SimConfig config = smoke_config();
  config.obs.trace = sink.get();
  config.snapshot_interval = 43200.0;  // machine_state coverage for audit
  const SimResult result = run_simulation(in.workload, in.trace, config);
  std::printf("emit-trace: %s (%zu jobs completed, %.3f s)\n", path.c_str(),
              result.jobs_completed, result.wall_seconds);
  return 0;
}

void usage(std::ostream& out) {
  out << "usage: bench_scale --perf-smoke [--jobs N]"
         " | --emit-trace PATH [--jobs N]\n"
         "  --perf-smoke      pinned-checksum replay + profiler checks\n"
         "  --emit-trace PATH write a short full-scale trace for"
         " tools/trace_audit\n"
         "  --jobs N          synthetic job count for the smoke/trace modes\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool perf_smoke = false;
  std::optional<std::string> trace_path;
  std::optional<int> jobs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bench_scale: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--perf-smoke") {
      perf_smoke = true;
    } else if (arg == "--emit-trace") {
      trace_path = value();
    } else if (arg == "--jobs") {
      const auto n = bgl::parse_int(value());
      if (!n || *n < 1) {
        std::cerr << "bench_scale: --jobs needs an integer >= 1\n";
        return 2;
      }
      jobs = static_cast<int>(*n);
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "bench_scale: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    }
  }

  try {
    if (perf_smoke) return run_perf_smoke(jobs.value_or(kSmokeJobs));
    if (trace_path) return run_emit_trace(*trace_path, jobs.value_or(2000));
    usage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "bench_scale: " << e.what() << '\n';
    return 1;
  }
}
