// simulate_cli: run one simulation from the command line.
//
// The workload comes from a real SWF file or a synthetic model; the failure
// trace from a CSV or the bursty generator. Prints the full §3.4 metric set.
//
// Usage:
//   simulate_cli [options]
//     --workload <nasa|sdsc|llnl|path.swf>   (default sdsc)
//     --jobs N            synthetic job count (default 2000)
//     --load C            load-scale coefficient c (default 1.0)
//     --failures N        failure events to inject (default: paper density)
//     --failure-csv PATH  use a recorded failure trace instead
//     --scheduler <krevat|balancing|tiebreak> (default balancing)
//     --algorithm <krevat|easy|conservative|easy-holdback>
//                         backfill discipline (default krevat; see
//                         docs/SCHEDULERS.md)
//     --predictor <paper|history|perfect|none>
//                         fault-prediction model (default paper; history
//                         learns from the failures as they happen; see
//                         docs/PREDICTORS.md)
//     --history-lookback S  kHistory: sliding-window length in seconds
//     --alpha A           confidence/accuracy in [0,1] (default 0.1)
//     --no-backfill --conservative-backfill --no-migration
//     --ckpt-interval S   enable checkpointing with this interval (seconds)
//     --downtime S        nodes stay down S seconds after failing
//     --seed N            master seed (default 42)
//     --trace-out PATH    write a structured JSONL event trace (see
//                         docs/OBSERVABILITY.md for the schema); "-"
//                         streams it to stdout, human output to stderr
//     --snapshot-interval S  with --trace-out: emit a machine_state event
//                         every S simulated seconds (default off)
//     --metrics-interval S   with --trace-out: emit a `metrics` telemetry
//                         event every S simulated seconds (default off)
//     --profile           attach the hierarchical phase profiler; the phase
//                         tree lands in --stats-out under "phases"
//     --stats-out PATH    write config + counters + histograms + result
//                         metrics (and, with --profile, the phase tree)
//                         as JSON
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "cli_options.hpp"
#include "failure/generator.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/analysis.hpp"
#include "workload/swf.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace bgl;
using bgl_cli::Options;

int usage() {
  std::cerr << "see the header comment of examples/simulate_cli.cpp for usage\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = bgl_cli::parse_cli_options(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return usage();
  }

  // `--trace-out -` streams the trace to stdout (for piping into
  // trace_audit); all human-readable output then moves to stderr.
  const bool trace_to_stdout = o.trace_out && *o.trace_out == "-";
  std::ostream& out = trace_to_stdout ? std::cerr : std::cout;

  try {
    // --- workload ---
    Workload workload;
    SyntheticModel model = SyntheticModel::sdsc();
    if (o.workload == "nasa" || o.workload == "sdsc" || o.workload == "llnl") {
      model = o.workload == "nasa"   ? SyntheticModel::nasa()
              : o.workload == "llnl" ? SyntheticModel::llnl()
                                     : SyntheticModel::sdsc();
      model.num_jobs = o.jobs;
      workload = generate_workload(model, o.seed);
    } else {
      workload = read_swf_file(o.workload);
    }
    workload = rescale_sizes(workload, Dims::bluegene_l().volume());
    if (o.load != 1.0) workload = scale_load(workload, o.load);
    out << describe(workload) << '\n';

    // --- failures ---
    double max_runtime = 0.0;
    for (const Job& j : workload.jobs) max_runtime = std::max(max_runtime, j.runtime);
    const double span = workload.arrival_span() * 1.05 + 2.0 * max_runtime;
    FailureTrace trace;
    if (o.failure_csv) {
      trace = read_failure_csv(*o.failure_csv, 128);
    } else {
      const std::size_t events =
          o.failures ? *o.failures
                     : span_scaled_events(paper_failure_count(model), span, model);
      trace = generate_failures(FailureModel::bluegene_l(events, span), o.seed ^ 0xfa17);
    }
    out << "failures: " << trace.size() << " events ("
        << format_double(trace.mean_rate_per_day(), 2) << "/day)\n\n";

    // --- simulation ---
    SimConfig config;
    if (o.scheduler == "krevat") config.scheduler = SchedulerKind::kKrevat;
    else if (o.scheduler == "balancing") config.scheduler = SchedulerKind::kBalancing;
    else if (o.scheduler == "tiebreak") config.scheduler = SchedulerKind::kTieBreak;
    else {
      std::cerr << "unknown scheduler: " << o.scheduler << '\n';
      return usage();
    }
    if (const auto algo = parse_sched_algorithm(o.algorithm)) {
      config.sched.algorithm = *algo;
    } else {
      std::cerr << "unknown algorithm: " << o.algorithm << '\n';
      return usage();
    }
    if (const auto model = parse_predictor_model(o.predictor)) {
      config.predictor_model = *model;
    } else {
      std::cerr << "unknown predictor: " << o.predictor << '\n';
      return usage();
    }
    if (o.history_lookback > 0.0) config.history_lookback = o.history_lookback;
    config.alpha = o.alpha;
    config.sched.backfill = o.backfill;
    config.sched.migration = o.migration;
    config.seed = o.seed;
    if (o.ckpt_interval > 0.0) {
      config.ckpt.enabled = true;
      config.ckpt.interval = o.ckpt_interval;
    }
    if (o.downtime > 0.0) {
      config.failure_semantics = FailureSemantics::kDownFor;
      config.node_downtime = o.downtime;
    }

    // Observability: a JSONL trace, counters and histograms, all optional.
    obs::CounterRegistry counters;
    obs::HistogramRegistry histograms;
    obs::PhaseProfiler profiler;
    std::unique_ptr<obs::TraceSink> sink;
    if (o.trace_out) {
      sink = trace_to_stdout ? std::make_unique<obs::TraceSink>(std::cout)
                             : obs::TraceSink::open(*o.trace_out);
      sink->set_counters(&counters);
      config.obs.trace = sink.get();
      config.snapshot_interval = o.snapshot_interval;
      config.metrics_interval = o.metrics_interval;
    }
    if (o.trace_out || o.stats_out) {
      config.obs.counters = &counters;
      config.obs.histograms = &histograms;
    }
    if (o.profile) config.obs.profiler = &profiler;

    const SimResult r = run_simulation(workload, trace, config);

    if (sink) {
      sink->flush();
      out << "[trace] " << (trace_to_stdout ? "<stdout>" : *o.trace_out)
          << " (" << sink->events_written() << " events)\n";
    }
    if (o.stats_out) {
      std::ofstream stats(*o.stats_out, std::ios::trunc);
      if (!stats) {
        std::cerr << "error: cannot open stats output file: " << *o.stats_out
                  << '\n';
        return 1;
      }
      stats << "{\"config\":{"
            << "\"machine\":\"" << to_string(config.dims) << "\""
            << ",\"topology\":\"" << to_string(config.topology) << "\""
            << ",\"scheduler\":\"" << to_string(config.scheduler) << "\""
            << ",\"algorithm\":\"" << to_string(config.sched.algorithm) << "\""
            << ",\"predictor\":\"" << to_string(config.predictor_model) << "\""
            << ",\"alpha\":" << format_double(config.alpha, 10)
            << ",\"backfill\":\"" << to_string(config.sched.backfill) << "\""
            << ",\"migration\":" << (config.sched.migration ? "true" : "false")
            << ",\"seed\":" << config.seed
            << ",\"snapshot_interval\":"
            << format_double(config.snapshot_interval, 10)
            << ",\"metrics_interval\":"
            << format_double(config.metrics_interval, 10) << "}";
      stats << ",\"observability\":";
      counters.write_json(stats);
      stats << ",\"histograms\":";
      histograms.write_json(stats);
      if (o.profile) {
        stats << ",\"phases\":";
        profiler.write_json(stats);
      }
      stats << ",\"result\":";
      write_result_json(stats, r);
      stats << "}\n";
      out << "[stats] " << *o.stats_out << "\n";
    }

    Table table({"metric", "value"});
    table.add_row().add("scheduler").add(std::string(to_string(config.scheduler)));
    table.add_row().add("algorithm").add(std::string(to_string(config.sched.algorithm)));
    table.add_row().add("alpha").add(o.alpha, 2);
    table.add_row().add("jobs completed").add(static_cast<long long>(r.jobs_completed));
    table.add_row().add("makespan").add(format_duration(r.span));
    table.add_row().add("avg wait").add(format_duration(r.avg_wait));
    table.add_row().add("avg response").add(format_duration(r.avg_response));
    table.add_row().add("avg bounded slowdown").add(r.avg_bounded_slowdown, 2);
    table.add_row().add("utilization").add(r.utilization, 3);
    table.add_row().add("unused capacity").add(r.unused, 3);
    table.add_row().add("lost capacity").add(r.lost, 3);
    table.add_row().add("failures during run").add(static_cast<long long>(r.failures_total));
    table.add_row().add("job kills").add(static_cast<long long>(r.job_kills));
    table.add_row().add("migrations").add(static_cast<long long>(r.migrations));
    table.add_row().add("work destroyed (node-h)")
        .add(r.work_lost_node_seconds / 3600.0, 1);
    if (config.ckpt.enabled) {
      table.add_row().add("checkpoints taken")
          .add(static_cast<long long>(r.checkpoints_taken));
    }
    out << table.render();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
