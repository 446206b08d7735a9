// loadgen: closed-loop load generator for the JSONL scheduling service.
//
// Generates a synthetic workload (and optionally a failure trace), then
// plays it against a SchedulerService as a protocol event stream: submit
// events at arrival times, complete events computed from the start
// decisions the service answers with (finish = start + actual runtime; a
// kill decision cancels the pending complete, the restart re-arms it).
//
// Modes (--mode):
//   emit-stream   print the event stream to stdout, computing completes
//                 against an in-process service. Piping the output into a
//                 sched_server configured identically replays the exact
//                 session (CI's service-smoke job does this).
//   drive         fork/exec a sched_server (--server PATH), stream events
//                 over pipes in lockstep with its ok-framed replies, and
//                 report sustained events/sec + decisions/sec and the
//                 server's decision-latency quantiles. --json-out writes
//                 the measurement (docs/BENCH_service.json).
//   inproc        the drive loop without the process/pipe boundary: calls
//                 SchedulerService directly. Upper bound on the engine
//                 (no JSONL encode/decode, no syscalls).
//
// Workload/config flags (all hard-error on malformed values):
//   --workload <nasa|sdsc|llnl>  --jobs N  --load C  --failures N  --seed N
//   --scheduler <krevat|balancing|tiebreak>  --algorithm <...>
//   --queue-order <fcfs|sjf|smallest>
//   --no-backfill --conservative-backfill --no-migration
//   --server PATH   sched_server binary for --mode drive
//   --json-out PATH write the drive/inproc measurement as JSON
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "failure/generator.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/reader.hpp"
#include "svc/config.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workload/synthetic.hpp"
#include "workload/transform.hpp"

namespace {

using namespace bgl;

struct Options {
  std::string mode = "drive";
  std::string workload = "sdsc";
  int jobs = 10000;
  double load = 1.0;
  std::size_t failures = 0;
  std::uint64_t seed = 42;
  std::string scheduler = "krevat";
  std::string algorithm = "krevat";
  std::string queue_order = "fcfs";
  BackfillMode backfill = BackfillMode::kEasy;
  bool migration = true;
  std::string server = "./sched_server";
  std::optional<std::string> json_out;
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

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(arg + " requires a value");
      return std::string(argv[++i]);
    };
    if (arg == "--mode") {
      o.mode = next();
      if (o.mode != "emit-stream" && o.mode != "drive" && o.mode != "inproc") {
        throw ConfigError("--mode must be emit-stream, drive or inproc");
      }
    } else if (arg == "--workload") {
      o.workload = next();
      if (o.workload != "nasa" && o.workload != "sdsc" && o.workload != "llnl") {
        throw ConfigError("--workload must be nasa, sdsc or llnl");
      }
    } else if (arg == "--jobs") {
      o.jobs = static_cast<int>(require_int(arg, next()));
      if (o.jobs < 1) throw ConfigError("--jobs must be >= 1");
    } else if (arg == "--load") {
      o.load = require_double(arg, next());
      if (o.load <= 0.0) throw ConfigError("--load must be positive");
    } else if (arg == "--failures") {
      const long long n = require_int(arg, next());
      if (n < 0) throw ConfigError("--failures must be >= 0");
      o.failures = static_cast<std::size_t>(n);
    } else if (arg == "--seed") {
      o.seed = static_cast<std::uint64_t>(require_int(arg, next()));
    } else if (arg == "--scheduler") {
      o.scheduler = next();
    } else if (arg == "--algorithm") {
      o.algorithm = next();
    } else if (arg == "--queue-order") {
      o.queue_order = next();
    } else if (arg == "--no-backfill") {
      o.backfill = BackfillMode::kNone;
    } else if (arg == "--conservative-backfill") {
      o.backfill = BackfillMode::kConservative;
    } else if (arg == "--no-migration") {
      o.migration = false;
    } else if (arg == "--server") {
      o.server = next();
    } else if (arg == "--json-out") {
      o.json_out = next();
    } else {
      throw ConfigError("unknown option: " + arg);
    }
  }
  return o;
}

SchedulerKind scheduler_kind(const std::string& name) {
  if (name == "krevat") return SchedulerKind::kKrevat;
  if (name == "balancing") return SchedulerKind::kBalancing;
  if (name == "tiebreak") return SchedulerKind::kTieBreak;
  throw ConfigError("unknown scheduler: '" + name + "'");
}

QueueOrder queue_order_kind(const std::string& name) {
  if (name == "fcfs") return QueueOrder::kFcfs;
  if (name == "sjf") return QueueOrder::kShortestJobFirst;
  if (name == "smallest") return QueueOrder::kSmallestJobFirst;
  throw ConfigError("--queue-order must be fcfs, sjf or smallest");
}

SchedAlgorithm algorithm_kind(const std::string& name) {
  const auto algo = parse_sched_algorithm(name);
  if (!algo) throw ConfigError("unknown algorithm: '" + name + "'");
  return *algo;
}

struct Inputs {
  Workload workload;
  FailureTrace trace;
};

Inputs make_inputs(const Options& o) {
  SyntheticModel model = o.workload == "nasa"   ? SyntheticModel::nasa()
                         : o.workload == "llnl" ? SyntheticModel::llnl()
                                                : SyntheticModel::sdsc();
  model.num_jobs = o.jobs;
  Inputs in;
  in.workload = generate_workload(model, o.seed);
  in.workload = rescale_sizes(in.workload, Dims::bluegene_l().volume());
  if (o.load != 1.0) in.workload = scale_load(in.workload, o.load);

  double max_runtime = 0.0;
  for (const Job& j : in.workload.jobs) {
    max_runtime = std::max(max_runtime, j.runtime);
  }
  const double span = in.workload.arrival_span() * 1.05 + 2.0 * max_runtime;
  in.trace = generate_failures(
      FailureModel::bluegene_l(o.failures, std::max(span, 1.0)),
      o.seed ^ 0xfa17);
  return in;
}

svc::ServiceConfig service_config(const Options& o) {
  svc::ServiceConfig c;
  c.scheduler = scheduler_kind(o.scheduler);
  c.sched.algorithm = algorithm_kind(o.algorithm);
  c.sched.backfill = o.backfill;
  c.sched.migration = o.migration;
  c.queue_order = queue_order_kind(o.queue_order);
  c.seed = o.seed;
  return c;
}

// --- transports -----------------------------------------------------------

/// Plays one event, returns the decisions it produced.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void play(const svc::Event& event, std::vector<svc::Decision>& out) = 0;
  virtual void finish() = 0;
};

/// Direct calls into an in-process service. With `echo` set, also prints
/// the protocol encoding of every event to stdout (emit-stream mode).
class InProcessTransport : public Transport {
 public:
  InProcessTransport(const svc::ServiceConfig& config, bool echo)
      : service_(config), echo_(echo) {}

  void play(const svc::Event& event, std::vector<svc::Decision>& out) override {
    if (echo_) {
      line_.clear();
      svc::append_event_line(line_, event);
      std::fwrite(line_.data(), 1, line_.size(), stdout);
    }
    service_.handle(event, out);
  }

  void finish() override {
    service_.finish_stream();
    if (echo_) std::fflush(stdout);
  }

  const svc::SchedulerService& service() const { return service_; }

 private:
  svc::SchedulerService service_;
  bool echo_;
  std::string line_;
};

/// Buffered line reader over a pipe fd.
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  bool next(std::string& line) {
    line.clear();
    while (true) {
      const auto nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > (1u << 16)) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return true;
      }
      char chunk[1 << 16];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        if (pos_ < buf_.size()) {
          line.assign(buf_, pos_, buf_.size() - pos_);
          buf_.clear();
          pos_ = 0;
          return !line.empty();
        }
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// Lockstep client of a forked sched_server: write one event line, read
/// reply lines until the ok (or error) frame, collect the decisions.
class PipeTransport : public Transport {
 public:
  PipeTransport(const std::string& server_path,
                const std::vector<std::string>& server_args) {
    int to_child[2];
    int from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
      throw Error("cannot create pipes");
    }
    child_ = ::fork();
    if (child_ < 0) throw Error("fork failed");
    if (child_ == 0) {
      ::dup2(to_child[0], 0);
      ::dup2(from_child[1], 1);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(server_path.c_str()));
      for (const std::string& a : server_args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(server_path.c_str(), argv.data());
      std::perror("execv sched_server");
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    write_fd_ = to_child[1];
    reader_ = std::make_unique<FdLineReader>(from_child[0]);
    read_fd_ = from_child[0];
  }

  ~PipeTransport() override {
    if (write_fd_ >= 0) ::close(write_fd_);
    if (read_fd_ >= 0) ::close(read_fd_);
    if (child_ > 0) ::waitpid(child_, nullptr, 0);
  }

  void play(const svc::Event& event, std::vector<svc::Decision>& out) override {
    line_.clear();
    svc::append_event_line(line_, event);
    write_all(line_);
    obs::TraceRecord record;
    while (reader_->next(line_)) {
      ++reply_lines_;
      obs::TraceReader::parse_line(line_, reply_lines_, record);
      const std::string_view type = record.type_name();
      if (type == "ok") return;
      if (type == "error") {
        ++errors_;
        std::cerr << "[loadgen] server rejected a line: " << line_ << '\n';
        return;
      }
      svc::Decision d;
      d.time = record.t();
      if (type == "start") {
        d.kind = svc::DecisionKind::kStart;
        d.job = static_cast<std::uint64_t>(record.require_int("job"));
        d.entry = static_cast<int>(record.require_int("entry"));
      } else if (type == "kill") {
        d.kind = svc::DecisionKind::kKill;
        d.job = static_cast<std::uint64_t>(record.require_int("job"));
        d.entry = static_cast<int>(record.require_int("entry"));
      } else if (type == "migrate") {
        d.kind = svc::DecisionKind::kMigrate;
        d.job = static_cast<std::uint64_t>(record.require_int("job"));
      } else {
        throw Error("unexpected reply line: " + line_);
      }
      out.push_back(d);
    }
    throw Error("server closed the reply stream mid-session");
  }

  void finish() override {
    ::close(write_fd_);
    write_fd_ = -1;
    // Drain the trailing replies; keep the final stats line.
    obs::TraceRecord record;
    while (reader_->next(line_)) {
      ++reply_lines_;
      obs::TraceReader::parse_line(line_, reply_lines_, record);
      if (record.type_name() == "stats") stats_line_ = line_;
      last_record_is_stats_ = record.type_name() == "stats";
    }
    if (last_record_is_stats_) {
      obs::TraceReader::parse_line(stats_line_, reply_lines_, record);
      if (const auto v = record.num("sched.decision_us_p50")) p50_us_ = *v;
      if (const auto v = record.num("sched.decision_us_p99")) p99_us_ = *v;
      if (const auto v = record.num("sched.decision_us_mean")) mean_us_ = *v;
    }
  }

  std::size_t errors() const { return errors_; }
  double p50_us() const { return p50_us_; }
  double p99_us() const { return p99_us_; }
  double mean_us() const { return mean_us_; }

 private:
  void write_all(const std::string& data) {
    const char* p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(write_fd_, p, left);
      if (n <= 0) throw Error("write to sched_server failed");
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  pid_t child_ = -1;
  int write_fd_ = -1;
  int read_fd_ = -1;
  std::unique_ptr<FdLineReader> reader_;
  std::string line_;
  std::string stats_line_;
  bool last_record_is_stats_ = false;
  std::size_t reply_lines_ = 0;
  std::size_t errors_ = 0;
  double p50_us_ = 0.0;
  double p99_us_ = 0.0;
  double mean_us_ = 0.0;
};

// --- the closed loop ------------------------------------------------------

struct LoopResult {
  std::size_t events = 0;
  std::size_t decisions = 0;
  std::size_t starts = 0;
  std::size_t kills = 0;
  double wall_seconds = 0.0;
};

/// Stream the workload through `transport`. Completes are scheduled from
/// the start decisions; a kill invalidates the job's pending complete (the
/// restart pushes a fresh one — the service models restarts from scratch).
LoopResult run_loop(const Inputs& in, Transport& transport) {
  struct PendingFinish {
    double t;
    std::uint64_t job;
    std::uint64_t gen;
  };
  const auto later = [](const PendingFinish& a, const PendingFinish& b) {
    return a.t > b.t || (a.t == b.t && a.job > b.job);
  };
  std::priority_queue<PendingFinish, std::vector<PendingFinish>,
                      decltype(later)>
      pending(later);

  const std::vector<Job>& jobs = in.workload.jobs;
  std::vector<std::uint64_t> gen(jobs.size(), 0);
  const std::vector<FailureEvent>& fails = in.trace.events();

  LoopResult r;
  std::vector<svc::Decision> decisions;
  std::size_t next_job = 0;
  std::size_t next_fail = 0;
  const auto start_wall = std::chrono::steady_clock::now();

  while (true) {
    while (!pending.empty() && pending.top().gen != gen[pending.top().job]) {
      pending.pop();
    }
    // All jobs done: stop without sending trailing failure events, exactly
    // like the simulator loop, whose exit condition is jobs_done < n. A
    // session's last event must be its last complete for the traced sim_end
    // (stamped at the latest finish) to keep the trace time-monotone.
    if (next_job >= jobs.size() && pending.empty()) break;
    // Earliest of pending complete / failure / submit; ties resolve in that
    // order, mirroring the simulator's event ranking.
    const double tc = pending.empty() ? -1.0 : pending.top().t;
    const double tf = next_fail < fails.size() ? fails[next_fail].time : -1.0;
    const double ts = next_job < jobs.size() ? jobs[next_job].arrival : -1.0;

    svc::Event e;
    if (tc >= 0.0 && (tf < 0.0 || tc <= tf) && (ts < 0.0 || tc <= ts)) {
      e.kind = svc::EventKind::kComplete;
      e.time = tc;
      e.job = pending.top().job;
      pending.pop();
    } else if (tf >= 0.0 && (ts < 0.0 || tf <= ts)) {
      e.kind = svc::EventKind::kFail;
      e.time = tf;
      e.node = fails[next_fail].node;
      ++next_fail;
    } else if (ts >= 0.0) {
      const Job& j = jobs[next_job];
      e.kind = svc::EventKind::kSubmit;
      e.time = j.arrival;
      e.job = next_job;
      e.size = j.size;
      e.estimate = j.estimate;
      e.runtime = j.runtime;
      ++next_job;
    } else {
      break;
    }

    decisions.clear();
    transport.play(e, decisions);
    ++r.events;
    r.decisions += decisions.size();
    for (const svc::Decision& d : decisions) {
      if (d.kind == svc::DecisionKind::kStart) {
        ++r.starts;
        pending.push(
            PendingFinish{d.time + jobs[d.job].runtime, d.job, gen[d.job]});
      } else if (d.kind == svc::DecisionKind::kKill) {
        ++r.kills;
        ++gen[d.job];
      }
    }
  }

  transport.finish();
  const auto end_wall = std::chrono::steady_clock::now();
  r.wall_seconds =
      std::chrono::duration<double>(end_wall - start_wall).count();
  return r;
}

void write_bench_json(const std::string& path, const Options& o,
                      const LoopResult& r, const PipeTransport* pipe) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot open --json-out file: " + path);
  out << "{\"schema_version\":2,\"bench\":\"service\""
      << ",\"stamp\":\"" << artifact_stamp() << "\""
      << ",\"mode\":\"" << o.mode << "\""
      << ",\"workload\":\"" << o.workload << "\""
      << ",\"jobs\":" << o.jobs << ",\"load\":" << format_double(o.load, 6)
      << ",\"failures\":" << o.failures << ",\"seed\":" << o.seed
      << ",\"scheduler\":\"" << o.scheduler << "\""
      << ",\"algorithm\":\"" << o.algorithm << "\""
      << ",\"events\":" << r.events << ",\"decisions\":" << r.decisions
      << ",\"starts\":" << r.starts << ",\"kills\":" << r.kills
      << ",\"wall_seconds\":" << format_double(r.wall_seconds, 6)
      << ",\"events_per_sec\":"
      << format_double(r.events / std::max(r.wall_seconds, 1e-9), 1)
      << ",\"decisions_per_sec\":"
      << format_double(r.decisions / std::max(r.wall_seconds, 1e-9), 1);
  if (pipe != nullptr) {
    out << ",\"sched.decision_us_mean\":" << format_double(pipe->mean_us(), 3)
        << ",\"sched.decision_us_p50\":" << format_double(pipe->p50_us(), 3)
        << ",\"sched.decision_us_p99\":" << format_double(pipe->p99_us(), 3);
  }
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << '\n'
              << "see the header comment of tools/loadgen.cpp for usage\n";
    return 2;
  }

  try {
    const Inputs in = make_inputs(o);
    std::cerr << "[loadgen] " << in.workload.jobs.size() << " jobs, "
              << in.trace.size() << " failure events, mode " << o.mode << '\n';

    if (o.mode == "emit-stream" || o.mode == "inproc") {
      InProcessTransport t(service_config(o), o.mode == "emit-stream");
      const LoopResult r = run_loop(in, t);
      std::cerr << "[loadgen] " << r.events << " events, " << r.decisions
                << " decisions (" << r.starts << " starts, " << r.kills
                << " kills) in " << format_double(r.wall_seconds, 2) << "s ("
                << format_double(r.events / std::max(r.wall_seconds, 1e-9), 0)
                << " events/s)\n";
      if (t.service().waiting_jobs() != 0 || t.service().running_jobs() != 0) {
        std::cerr << "[loadgen] error: stream did not drain the machine\n";
        return 1;
      }
      if (o.json_out) write_bench_json(*o.json_out, o, r, nullptr);
      return 0;
    }

    // drive
    std::vector<std::string> args = {"--scheduler", o.scheduler,
                                     "--algorithm", o.algorithm,
                                     "--queue-order", o.queue_order,
                                     "--seed", std::to_string(o.seed)};
    if (o.backfill == BackfillMode::kNone) args.push_back("--no-backfill");
    if (o.backfill == BackfillMode::kConservative) {
      args.push_back("--conservative-backfill");
    }
    if (!o.migration) args.push_back("--no-migration");
    PipeTransport t(o.server, args);
    const LoopResult r = run_loop(in, t);
    std::cerr << "[loadgen] " << r.events << " events, " << r.decisions
              << " decisions (" << r.starts << " starts, " << r.kills
              << " kills) in " << format_double(r.wall_seconds, 2) << "s ("
              << format_double(r.events / std::max(r.wall_seconds, 1e-9), 0)
              << " events/s), decision p50 " << format_double(t.p50_us(), 1)
              << "us p99 " << format_double(t.p99_us(), 1) << "us\n";
    if (t.errors() > 0) {
      std::cerr << "[loadgen] error: server rejected " << t.errors()
                << " lines\n";
      return 1;
    }
    if (o.json_out) write_bench_json(*o.json_out, o, r, &t);
  } catch (const ConfigError& e) {
    // Raised after parsing, while the in-process service is built (an
    // unknown name, or a flag combination the engine refuses such as
    // --conservative-backfill outside --algorithm krevat): a usage error.
    std::cerr << "error: " << e.what() << '\n'
              << "see the header comment of tools/loadgen.cpp for usage\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
