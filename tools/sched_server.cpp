// sched_server: drive a SchedulerService from a live JSONL event stream.
//
// Reads protocol events (docs/SERVICE.md) from stdin — or serves them on a
// Unix domain socket with --socket — and writes decision / ok / error reply
// lines to stdout (or the socket). One process holds one machine state; a
// stream of submit/complete/fail/repair/tick events IS the workload.
//
// Usage:
//   sched_server [options]
//     --dims XxYxZ        torus dimensions (default 4x4x8, BlueGene/L)
//     --mesh              mesh topology instead of torus
//     --catalog <boxes|blocks>   partition catalog mode (default boxes)
//     --min-block N       kBlocks only: smallest block size (default 256)
//     --scheduler <krevat|balancing|tiebreak>  (default krevat)
//     --algorithm <krevat|easy|conservative|easy-holdback>
//     --alpha A           predictor confidence/accuracy in [0,1]
//                         (default 0.1, as in simulate_cli)
//     --no-backfill --conservative-backfill --no-migration
//     --queue-order <fcfs|sjf|smallest>
//     --predictor <none|paper|history|perfect>  (default none;
//                         the oracle models need --failure-csv; history
//                         learns online from the stream's fail events and
//                         needs no oracle — see docs/PREDICTORS.md)
//     --failure-csv PATH  failure oracle for the simulated predictors; read
//                         only when the model consults it (ignored, with a
//                         note on stderr, otherwise)
//     --downfor           kDownFor failure semantics: victimless fail
//                         events still trigger a scheduling pass
//     --seed N            salts the tie-breaking predictor (default 1)
//     --trace-out PATH    write the standard JSONL event trace ("-": stdout
//                         is the protocol stream, so "-" is rejected here)
//     --snapshot-interval S  with --trace-out: emit a machine_state event
//                         every S stream seconds (default off)
//     --metrics-interval S   with --trace-out: emit a `metrics` telemetry
//                         event every S stream seconds (default off)
//     --profile           attach the hierarchical phase profiler: flat ph_*
//                         fields on the stats line, bgl_phase_* families on
//                         the exposition, "phases" tree in --stats-out
//     --metrics-socket PATH  serve the live Prometheus text exposition on
//                         this Unix socket (connect, read to EOF; see
//                         docs/OBSERVABILITY.md "Prometheus exposition")
//     --stats-out PATH    write counters + histograms JSON at shutdown
//     --socket PATH       serve a Unix socket instead of stdin/stdout
//     --max-conns N       with --socket: sequential sessions to accept
//                         against the same machine state (default 1)
//     --quiet             suppress per-event ok lines (decisions + errors
//                         only; the final stats line is always written)
//
// A client can also request the stats line mid-session by sending
// {"type":"stats","t":0} — answered in-band without advancing time (the
// "t" field is demanded by the line framing and ignored).
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "failure/trace.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "predict/registry.hpp"
#include "svc/config.hpp"
#include "svc/exporter.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

using namespace bgl;

struct Options {
  svc::ServiceConfig service;
  std::optional<std::string> failure_csv;
  std::optional<std::string> trace_out;
  std::optional<std::string> stats_out;
  std::optional<std::string> socket_path;
  std::optional<std::string> metrics_socket;
  int max_conns = 1;
  bool echo_ok = true;
  bool profile = false;
};

long long require_int(const std::string& flag, const std::string& token) {
  const auto v = parse_int(token);
  if (!v) throw ConfigError(flag + " requires an integer, got '" + token + "'");
  return *v;
}

double require_double(const std::string& flag, const std::string& token) {
  const auto v = parse_double(token);
  if (!v) throw ConfigError(flag + " requires a number, got '" + token + "'");
  return *v;
}

Dims require_dims(const std::string& flag, const std::string& token) {
  const auto a = token.find('x');
  const auto b = token.rfind('x');
  if (a == std::string::npos || b == a) {
    throw ConfigError(flag + " requires XxYxZ, got '" + token + "'");
  }
  Dims d;
  d.x = static_cast<int>(require_int(flag, token.substr(0, a)));
  d.y = static_cast<int>(require_int(flag, token.substr(a + 1, b - a - 1)));
  d.z = static_cast<int>(require_int(flag, token.substr(b + 1)));
  if (d.x < 1 || d.y < 1 || d.z < 1) {
    throw ConfigError(flag + " dimensions must be >= 1, got '" + token + "'");
  }
  return d;
}

/// Throws ConfigError on any malformed flag: no value ever defaults
/// silently (the bug class this server's protocol exists to eliminate).
Options parse(int argc, char** argv) {
  Options o;
  o.service.scheduler = SchedulerKind::kKrevat;
  o.service.predictor_model = PredictorModel::kNone;
  // ServiceConfig's 0 would zero every failure probability, so a
  // fault-aware scheduler would silently decide as --predictor none.
  o.service.alpha = 0.1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(arg + " requires a value");
      return std::string(argv[++i]);
    };
    if (arg == "--dims") {
      o.service.dims = require_dims(arg, next());
    } else if (arg == "--mesh") {
      o.service.topology = Topology::kMesh;
    } else if (arg == "--catalog") {
      const std::string v = next();
      if (v == "boxes") o.service.catalog.mode = CatalogOptions::Mode::kBoxes;
      else if (v == "blocks") o.service.catalog.mode = CatalogOptions::Mode::kBlocks;
      else throw ConfigError("--catalog must be boxes or blocks, got '" + v + "'");
    } else if (arg == "--min-block") {
      o.service.catalog.min_block = static_cast<int>(require_int(arg, next()));
    } else if (arg == "--scheduler") {
      const std::string v = next();
      if (v == "krevat") o.service.scheduler = SchedulerKind::kKrevat;
      else if (v == "balancing") o.service.scheduler = SchedulerKind::kBalancing;
      else if (v == "tiebreak") o.service.scheduler = SchedulerKind::kTieBreak;
      else throw ConfigError("unknown scheduler: '" + v + "'");
    } else if (arg == "--algorithm") {
      const std::string v = next();
      const auto algo = parse_sched_algorithm(v);
      if (!algo) throw ConfigError("unknown algorithm: '" + v + "'");
      o.service.sched.algorithm = *algo;
    } else if (arg == "--alpha") {
      o.service.alpha = require_double(arg, next());
      if (o.service.alpha < 0.0 || o.service.alpha > 1.0) {
        throw ConfigError("--alpha must be in [0,1]");
      }
    } else if (arg == "--no-backfill") {
      o.service.sched.backfill = BackfillMode::kNone;
    } else if (arg == "--conservative-backfill") {
      o.service.sched.backfill = BackfillMode::kConservative;
    } else if (arg == "--no-migration") {
      o.service.sched.migration = false;
    } else if (arg == "--queue-order") {
      const std::string v = next();
      if (v == "fcfs") o.service.queue_order = QueueOrder::kFcfs;
      else if (v == "sjf") o.service.queue_order = QueueOrder::kShortestJobFirst;
      else if (v == "smallest") o.service.queue_order = QueueOrder::kSmallestJobFirst;
      else throw ConfigError("--queue-order must be fcfs, sjf or smallest");
    } else if (arg == "--predictor") {
      const std::string v = next();
      const auto model = parse_predictor_model(v);
      if (!model) throw ConfigError("unknown predictor: '" + v + "'");
      o.service.predictor_model = *model;
    } else if (arg == "--failure-csv") {
      o.failure_csv = next();
    } else if (arg == "--downfor") {
      o.service.failure_semantics = FailureSemantics::kDownFor;
    } else if (arg == "--seed") {
      o.service.seed = static_cast<std::uint64_t>(require_int(arg, next()));
    } else if (arg == "--trace-out") {
      const std::string v = next();
      if (v == "-") {
        throw ConfigError("--trace-out - is unavailable: stdout carries the "
                          "reply stream; give a file path");
      }
      o.trace_out = v;
    } else if (arg == "--snapshot-interval") {
      o.service.snapshot_interval = require_double(arg, next());
      if (o.service.snapshot_interval < 0.0) {
        throw ConfigError("--snapshot-interval must be >= 0");
      }
    } else if (arg == "--metrics-interval") {
      o.service.metrics_interval = require_double(arg, next());
      if (o.service.metrics_interval < 0.0) {
        throw ConfigError("--metrics-interval must be >= 0");
      }
    } else if (arg == "--profile") {
      o.profile = true;
    } else if (arg == "--metrics-socket") {
      o.metrics_socket = next();
    } else if (arg == "--stats-out") {
      o.stats_out = next();
    } else if (arg == "--socket") {
      o.socket_path = next();
    } else if (arg == "--max-conns") {
      o.max_conns = static_cast<int>(require_int(arg, next()));
      if (o.max_conns < 1) throw ConfigError("--max-conns must be >= 1");
    } else if (arg == "--quiet") {
      o.echo_ok = false;
    } else {
      throw ConfigError("unknown option: " + arg);
    }
  }
  if ((o.service.snapshot_interval > 0.0 || o.service.metrics_interval > 0.0) &&
      !o.trace_out) {
    throw ConfigError(
        "--snapshot-interval/--metrics-interval write trace events and "
        "need --trace-out");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << '\n'
              << "see the header comment of tools/sched_server.cpp for usage\n";
    return 2;
  }

  try {
    // Observability is always on internally: the stats line's decision
    // latency quantiles come from the sched.decision_us histogram.
    obs::CounterRegistry counters;
    obs::HistogramRegistry histograms;
    obs::PhaseProfiler profiler;
    o.service.obs.counters = &counters;
    o.service.obs.histograms = &histograms;
    if (o.profile) o.service.obs.profiler = &profiler;

    std::unique_ptr<obs::TraceSink> sink;
    if (o.trace_out) {
      sink = obs::TraceSink::open(*o.trace_out);
      sink->set_counters(&counters);
      o.service.obs.trace = sink.get();
    }

    // Parse the oracle only for a model that consults it.
    FailureTrace oracle;
    const bool have_oracle =
        o.failure_csv.has_value() &&
        predictor_needs_oracle(o.service.predictor_model,
                               paper_role_for(o.service.scheduler));
    if (have_oracle) {
      oracle = read_failure_csv(*o.failure_csv, o.service.dims.volume());
    } else if (o.failure_csv) {
      std::cerr << "note: --failure-csv ignored: predictor '"
                << to_string(o.service.predictor_model) << "' with the "
                << to_string(o.service.scheduler)
                << " scheduler reads no failure oracle\n";
    }

    std::unique_ptr<svc::SchedulerService> service_ptr;
    try {
      service_ptr = std::make_unique<svc::SchedulerService>(
          o.service, have_oracle ? &oracle : nullptr);
    } catch (const OracleRequiredError& e) {
      // Typed: the configured model consults a failure oracle we don't have.
      std::cerr << "error: --predictor " << to_string(e.model())
                << " needs --failure-csv (or use --predictor none|history)\n"
                << "see the header comment of tools/sched_server.cpp for usage\n";
      return 2;
    } catch (const ConfigError& e) {
      // A flag combination the engine refuses (e.g. --conservative-backfill
      // outside --algorithm krevat) is a usage error like a malformed flag.
      std::cerr << "error: " << e.what() << '\n'
                << "see the header comment of tools/sched_server.cpp for usage\n";
      return 2;
    }
    svc::SchedulerService& service = *service_ptr;

    svc::SessionOptions session;
    session.echo_ok = o.echo_ok;
    session.histograms = &histograms;
    session.counters = &counters;
    if (o.profile) session.profiler = &profiler;
    std::unique_ptr<svc::MetricsExporter> exporter;
    if (o.metrics_socket) {
      exporter = std::make_unique<svc::MetricsExporter>(*o.metrics_socket);
      session.exporter = exporter.get();
    }

    svc::SessionStats stats;
    if (o.socket_path) {
      stats = svc::serve_unix_socket(o.socket_path->c_str(), service, session,
                                     o.max_conns);
    } else {
      stats = svc::run_session(std::cin, std::cout, service, session);
    }
    if (sink) sink->flush();

    if (o.stats_out) {
      std::ofstream out(*o.stats_out, std::ios::trunc);
      if (!out) {
        std::cerr << "error: cannot open stats output file: " << *o.stats_out
                  << '\n';
        return 1;
      }
      out << "{\"session\":{"
          << "\"lines\":" << stats.lines
          << ",\"accepted\":" << stats.accepted
          << ",\"rejected\":" << stats.rejected
          << ",\"decisions\":" << stats.decisions
          << ",\"stats_requests\":" << stats.stats_requests << "}";
      out << ",\"observability\":";
      counters.write_json(out);
      out << ",\"histograms\":";
      histograms.write_json(out);
      if (o.profile) {
        out << ",\"phases\":";
        profiler.write_json(out);
      }
      out << "}\n";
    }
    std::cerr << "[sched_server] " << stats.lines << " lines, "
              << stats.accepted << " accepted, " << stats.rejected
              << " rejected, " << stats.decisions << " decisions\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
