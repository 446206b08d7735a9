// perfbench harness: runs one benchmark workload and prints what it measured
// as JSON lines on stdout, one object per line. perfbench/run.py checks the
// lines and turns them into the benchmark's result; run that script rather
// than this binary.
//
//   perfbench --workload <paper-sim|full-sim|served-easy> --seed N
//             --seconds S --trace <0|1> [--server PATH --workdir DIR]
//
// Lines written:
//   {"kind":"setup","samples":[s,...],"probe":[p,...]}
//                                         time until the program can take
//                                         its first event, seconds, and the
//                                         host probe while it was taken
//   {"kind":"catalog","samples":[...],"probe":[...]}
//                                         PartitionCatalog constructor
//   {"kind":"episode",...,"probe_s":p}    one per replay of the workload
//   {"kind":"rss","peak_rss_kb":K}        simulators: this process
//   {"kind":"probe","median_s":p,"samples":N}  the whole run's host probe
//
// The seed makes kLogs inputs (job log plus failure trace); an episode
// replays one of them whole, cycling through the logs. Untraced episodes run
// for S seconds. With --trace 1 they run for S/2 and traced episodes (phase
// profiler attached; `--profile` on the server) for the other S/2. The
// counter and histogram registries are attached to both (the server always
// attaches them), so every count can be compared between them.
//
// The host probe (HostProbe) times a fixed piece of the harness's own work on
// another vCPU for the whole run; every timed sample is reported with the
// probe's median over the same interval, so run.py can state it at a fixed
// host speed (perfbench/NOTES.md, "Steadiness").
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "failure/generator.hpp"
#include "failure/trace.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/reader.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "svc/protocol.hpp"
#include "torus/catalog.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workload/synthetic.hpp"
#include "workload/transform.hpp"

namespace {

using namespace bgl;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Input sizes. A full-sim or served-easy replay lasts 1-3 s on a 4-vCPU
// host, so a run holds several replays of each log and reports their median.
// paper-sim is the SDSC bench model's size (bench_sdsc()).
constexpr int kPaperJobs = 1200;
constexpr int kFullJobs = 6000;
constexpr int kServedJobs = 6000;
/// Set-up repetitions per run, before the first replay; the median of these
/// and of kSetupRepsPerReplay more before every simulator replay (every
/// served-easy replay starts its own server) is reported. The later ones
/// sample the host across the whole run, not just its first second.
constexpr int kSetupReps = 40;
constexpr int kSetupRepsPerReplay = 2;
/// Stream seconds a `"down":true` node stays down before its repair.
constexpr double kServedDowntime = 3600.0;
/// Journal metrics cadence of served-easy, in stream seconds.
constexpr double kServedMetricsInterval = 3600.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string workdir;
};

/// Logs per seed. A run reports over all of them, so one heavy or light log
/// moves the result less: one full-sim log's cost differs by up to 1.8x
/// from another's.
constexpr std::uint64_t kLogs = 16;

/// (benchmark seed, log) -> generator seeds. Seed 1, log 0 gives the
/// repository's bench seeds (workload 1000, failures 500, the sweep engine's
/// sim-seed salt), so full-sim's first log at seed 1 is bench_scale's input
/// at kFullJobs jobs.
struct Seeds {
  std::uint64_t workload, failures, sim;
};

Seeds derive_seeds(std::uint64_t seed, std::uint64_t log) {
  const std::uint64_t r = (seed - 1) * kLogs + log;
  const std::uint64_t failures = 500 + 29 * r;
  return {1000 + 17 * r, failures, failures ^ 0x7365656473ULL};
}

struct Inputs {
  Workload workload;
  FailureTrace trace;
};

/// The bench recipe (exp::run_unit): generate the log, rescale sizes onto
/// the machine, and spread the paper's failure budget over the log's span
/// at the paper's density.
Inputs make_inputs(SyntheticModel model, int jobs, Dims dims,
                   const Seeds& seeds) {
  model.num_jobs = jobs;
  Inputs in;
  in.workload = rescale_sizes(generate_workload(model, seeds.workload),
                              dims.volume());
  double max_runtime = 0.0;
  for (const Job& j : in.workload.jobs) {
    max_runtime = std::max(max_runtime, j.runtime);
  }
  const double span = in.workload.arrival_span() * 1.05 + 2.0 * max_runtime;
  FailureModel fm = FailureModel::bluegene_l(
      span_scaled_events(paper_failure_count(model), span, model), span);
  fm.num_nodes = dims.volume();
  in.trace = generate_failures(fm, seeds.failures);
  return in;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a over the bytes of each value.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <class T>
  void add(T v) {
    add(&v, sizeof(v));
  }
};

void append_num(std::string& out, const char* key, double v) {
  out += ",\"";
  out += key;
  out += "\":";
  obs::append_json_double(out, v);
}

void append_int(std::string& out, const char* key, long long v) {
  out += ",\"";
  out += key;
  out += "\":" + std::to_string(v);
}

void emit(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void append_array(std::string& out, const char* key, const std::vector<double>& v) {
  out += ",\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    obs::append_json_double(out, v[i]);
  }
  out += ']';
}

/// An interval the harness timed: a set-up sample or a replay.
struct Interval {
  Clock::time_point from, to;
  double seconds() const { return std::chrono::duration<double>(to - from).count(); }
};

long peak_rss_kb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

// --- host probe -------------------------------------------------------------

/// Words the probe sorts: 256 KiB, which stays in a core's L2.
constexpr std::size_t kProbeWords = std::size_t{1} << 16;

/// Times a fixed piece of the harness's own work, sorting a copy of
/// kProbeWords pseudo-random words (5 to 7 ms on a 4-vCPU Xeon virtual
/// machine), over and over on a vCPU the workload does not use, from
/// construction to destruction. The program never runs this code, so a
/// change to the program cannot move it, while the host's speed, which
/// drifts by up to 2x over minutes on a shared virtual machine, moves both.
/// over() gives the probe's median across an interval the workload timed.
class HostProbe {
 public:
  explicit HostProbe(int cpu) : words_(kProbeWords) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t& w : words_) {  // splitmix64
      std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      w = static_cast<std::uint32_t>(z ^ (z >> 31));
    }
    thread_ = std::thread([this, cpu] { run(cpu); });
  }

  ~HostProbe() {
    stop_ = true;
    thread_.join();
  }

  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Median duration of the probes that overlapped `iv`, in seconds. Waits
  /// for the probe running at `iv.to` to finish, so every interval is
  /// covered by at least one probe.
  double over(const Interval& iv) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] {
      return !error_.empty() || (!ends_.empty() && ends_.back() >= iv.to);
    });
    if (!error_.empty()) throw Error("host probe failed: " + error_);
    std::vector<double> d;
    const auto first = std::lower_bound(ends_.begin(), ends_.end(), iv.from);
    for (auto i = static_cast<std::size_t>(first - ends_.begin());
         i < ends_.size() && starts_[i] <= iv.to; ++i) {
      d.push_back(std::chrono::duration<double>(ends_[i] - starts_[i]).count());
    }
    return quantile(d, 0.5);
  }

  /// Median of every probe so far and their number.
  std::pair<double, std::size_t> summary() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> d;
    for (std::size_t i = 0; i < ends_.size(); ++i) {
      d.push_back(std::chrono::duration<double>(ends_[i] - starts_[i]).count());
    }
    return {quantile(d, 0.5), d.size()};
  }

 private:
  void run(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      std::cerr << "perfbench: cannot pin the host probe to vCPU " << cpu << '\n';
    }
    std::vector<std::uint32_t> copy;
    std::uint32_t keep = 0;
    try {
      while (!stop_) {
        const auto t0 = Clock::now();
        copy.assign(words_.begin(), words_.end());
        std::sort(copy.begin(), copy.end());
        const auto t1 = Clock::now();
        keep ^= copy[copy.size() / 2];
        {
          std::lock_guard<std::mutex> lock(mu_);
          starts_.push_back(t0);
          ends_.push_back(t1);
        }
        ready_.notify_all();
      }
    } catch (const std::exception& e) {
      // Out of memory: the waiting workload thread reports it.
      {
        std::lock_guard<std::mutex> lock(mu_);
        error_ = e.what();
      }
      ready_.notify_all();
    }
    sink_ = keep;
  }

  std::vector<std::uint32_t> words_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;  ///< Guards starts_, ends_ and error_.
  std::condition_variable ready_;
  std::vector<Clock::time_point> starts_, ends_;
  std::string error_;
  std::uint32_t sink_ = 0;
  std::thread thread_;
};

/// Pins the calling thread (the workload) to the vCPU it runs on and returns
/// another vCPU it may use, for the host probe.
int pin_workload() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw Error("cannot read the CPU affinity mask");
  }
  const int cpu = sched_getcpu();
  if (cpu < 0) throw Error("cannot tell which vCPU the benchmark runs on");
  int other = -1;
  for (int c = 0; c < CPU_SETSIZE && other < 0; ++c) {
    if (c != cpu && CPU_ISSET(c, &allowed)) other = c;
  }
  if (other < 0) {
    throw Error("the benchmark needs two vCPUs: one for the workload, one for "
                "the host probe");
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw Error("cannot pin the workload to one vCPU");
  }
  return other;
}

/// {"kind":...,"samples":[interval seconds],"probe":[probe over each]}.
void emit_intervals(const char* kind, const std::vector<Interval>& intervals,
                    HostProbe& probe) {
  std::vector<double> samples, probes;
  for (const Interval& iv : intervals) {
    samples.push_back(iv.seconds());
    probes.push_back(probe.over(iv));
  }
  std::string line = std::string("{\"kind\":\"") + kind + "\"";
  append_array(line, "samples", samples);
  append_array(line, "probe", probes);
  emit(line + "}");
}

void emit_probe_summary(HostProbe& probe) {
  const auto [median, n] = probe.summary();
  std::string line = "{\"kind\":\"probe\"";
  append_num(line, "median_s", median);
  append_int(line, "samples", static_cast<long long>(n));
  emit(line + "}");
}

/// Untraced episodes for the run's time (S/2 with --trace 1), then with
/// --trace 1 traced episodes for the other half. Episode n replays log
/// n % kLogs. Each phase replays every log at least once; the traced phase
/// replays log 0 twice, so span counts can be compared between traced
/// replays. `replay(log, traced)` runs and reports one episode.
template <class Replay>
void run_plan(const Args& a, Replay&& replay) {
  for (int traced = 0; traced < (a.trace ? 2 : 1); ++traced) {
    const double budget = a.trace ? a.seconds * 0.5 : a.seconds;
    const std::uint64_t floor = traced ? kLogs + 1 : kLogs;
    const auto phase_start = Clock::now();
    for (std::uint64_t n = 0; n < floor || since(phase_start) < budget; ++n) {
      replay(n % kLogs, traced != 0);
    }
  }
}

// --- simulators -------------------------------------------------------------

int run_sim(const Args& a) {
  const bool paper = a.workload == "paper-sim";
  SimConfig config;
  if (!paper) {
    config.dims = Dims{64, 32, 32};
    config.catalog.mode = CatalogOptions::Mode::kBlocks;
    config.catalog.min_block = 256;
  }
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.1;
  config.predictor_model = PredictorModel::kPaper;
  HostProbe probe(pin_workload());
  std::vector<Inputs> inputs;
  for (std::uint64_t log = 0; log < kLogs; ++log) {
    inputs.push_back(make_inputs(SyntheticModel::sdsc(),
                                 paper ? kPaperJobs : kFullJobs, config.dims,
                                 derive_seeds(a.seed, log)));
  }

  // Set-up: the catalog constructor, timed from the harness. Replays use
  // the latest catalog built.
  std::vector<Interval> setup;
  std::unique_ptr<PartitionCatalog> catalog;
  const auto build_catalogs = [&](int reps) {
    for (int i = 0; i < reps; ++i) {
      catalog.reset();
      const auto t0 = Clock::now();
      catalog = std::make_unique<PartitionCatalog>(config.dims, config.topology,
                                                   config.catalog);
      setup.push_back({t0, Clock::now()});
    }
  };
  build_catalogs(kSetupReps);

  run_plan(a, [&](std::uint64_t log, bool traced) {
    build_catalogs(kSetupRepsPerReplay);
    const Inputs& in = inputs[log];
    obs::CounterRegistry counters;
    obs::HistogramRegistry histograms;
    obs::PhaseProfiler profiler;
    SimConfig c = config;
    c.seed = derive_seeds(a.seed, log).sim;
    c.obs.counters = &counters;
    c.obs.histograms = &histograms;
    if (traced) c.obs.profiler = &profiler;
    const auto t0 = Clock::now();
    const SimResult r = run_simulation(in.workload, in.trace, c, catalog.get());
    const Interval wall{t0, Clock::now()};

    std::string line = "{\"kind\":\"episode\",\"traced\":";
    line += traced ? "true" : "false";
    append_int(line, "log", static_cast<long long>(log));
    append_num(line, "wall_s", wall.seconds());
    append_num(line, "probe_s", probe.over(wall));
    append_int(line, "jobs", static_cast<long long>(r.jobs_completed));
    append_int(line, "submitted", static_cast<long long>(in.workload.jobs.size()));
    line += ",\"checksum\":\"" + hex64(sim_result_checksum(r)) + "\"";
    std::ostringstream counters_json;
    counters.write_json(counters_json);
    line += ",\"observability\":" + counters_json.str();
    std::ostringstream decision_us;
    histograms.histogram(obs::Hist::kDecisionUs).write_json(decision_us);
    line += ",\"decision_us\":" + decision_us.str();
    if (traced) {
      std::ostringstream phases;
      profiler.write_json(phases);
      line += ",\"phases\":" + phases.str();
    }
    emit(line + "}");
  });
  emit_intervals("setup", setup, probe);
  emit_intervals("catalog", setup, probe);
  emit("{\"kind\":\"rss\",\"peak_rss_kb\":" + std::to_string(peak_rss_kb_self()) +
       "}");
  emit_probe_summary(probe);
  return 0;
}

// --- served-easy ------------------------------------------------------------

/// One sched_server child on a pipe pair, stdin/stdout. The destructor
/// closes both pipes and reaps the child.
class ServerProcess {
 public:
  /// The child's stderr goes to `log_path` (appended), keeping the
  /// benchmark's own stderr readable.
  ServerProcess(const std::string& path, const std::vector<std::string>& args,
                const std::string& log_path) {
    // Built before the fork: the harness runs the host probe's thread, so
    // the child calls nothing but async-signal-safe functions before exec.
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(path.c_str()));
    for (const std::string& s : args) argv.push_back(const_cast<char*>(s.c_str()));
    argv.push_back(nullptr);
    int to_child[2];
    int from_child[2];
    if (::pipe(to_child) != 0) throw Error("cannot create pipes");
    if (::pipe(from_child) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      throw Error("cannot create pipes");
    }
    pid_ = ::fork();
    if (pid_ < 0) {
      for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
        ::close(fd);
      }
      throw Error("fork failed");
    }
    if (pid_ == 0) {
      ::dup2(to_child[0], 0);
      ::dup2(from_child[1], 1);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, 2);
        ::close(log_fd);
      }
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    write_fd_ = to_child[1];
    read_fd_ = from_child[0];
  }

  ~ServerProcess() {
    close_input();
    if (read_fd_ >= 0) ::close(read_fd_);
    if (pid_ > 0) wait();
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

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

  /// Next reply line (without the newline); false at end of stream.
  bool read_line(std::string& line) {
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
      const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        line.assign(buf_, pos_, buf_.size() - pos_);
        buf_.clear();
        pos_ = 0;
        return !line.empty();
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void close_input() {
    if (write_fd_ >= 0) ::close(write_fd_);
    write_fd_ = -1;
  }

  /// Reap the child; returns its peak RSS in KiB, 0 when it cannot be
  /// reaped. exit_ok() then tells whether it exited with status 0.
  long wait() {
    rusage ru{};
    int status = 0;
    const pid_t pid = pid_;
    pid_ = -1;
    if (::wait4(pid, &status, 0, &ru) != pid) return 0;
    exit_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return ru.ru_maxrss;
  }

  bool exit_ok() const { return exit_ok_; }

 private:
  pid_t pid_ = -1;
  int write_fd_ = -1;
  int read_fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
  bool exit_ok_ = false;
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

long long file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<long long>(st.st_size) : -1;
}

/// Spawn a server and wait for its answer to an in-band stats request: the
/// time until it can take its first event.
Interval time_server_ready(ServerProcess& server, const Clock::time_point t0) {
  server.write_all("{\"type\":\"stats\",\"t\":0}\n");
  std::string line;
  while (server.read_line(line)) {
    if (starts_with(line, "{\"type\":\"stats\"")) return {t0, Clock::now()};
  }
  throw Error("sched_server exited before answering the stats request");
}

struct EpisodeOut {
  double wall_s = 0.0;        ///< First event written to last stats line read.
  double loop_s = 0.0;        ///< First event written to last ok read.
  double rtt_s = 0.0;         ///< Sum of event round trips.
  std::size_t events = 0;
  std::size_t decisions = 0;
  std::size_t errors = 0;
  std::string final_stats;
  Digest digest;
};

/// The closed loop: one client in lockstep with the server. Completions are
/// learned from start replies (finish = start + runtime); a kill cancels the
/// job's pending completion. A failure on a healthy node is sent as
/// `"down":true` and repaired kServedDowntime later; a failure on a node
/// that is already down is sent as a plain fail.
EpisodeOut stream_episode(ServerProcess& server, const Inputs& in,
                          std::vector<double>& rtt_us) {
  struct Pending {
    double t;
    std::uint64_t key;  ///< Job id (completions) or node (repairs).
    std::uint64_t gen;
  };
  const auto later = [](const Pending& x, const Pending& y) {
    return x.t > y.t || (x.t == y.t && x.key > y.key);
  };
  std::priority_queue<Pending, std::vector<Pending>, decltype(later)> finishes(later);
  std::priority_queue<Pending, std::vector<Pending>, decltype(later)> repairs(later);

  const std::vector<Job>& jobs = in.workload.jobs;
  const std::vector<FailureEvent>& fails = in.trace.events();
  std::vector<std::uint64_t> gen(jobs.size(), 0);
  std::vector<bool> down(static_cast<std::size_t>(in.trace.num_nodes()), false);
  std::size_t next_job = 0;
  std::size_t next_fail = 0;
  std::size_t completed = 0;

  EpisodeOut out;
  std::string line;
  std::vector<std::string> replies;
  obs::TraceRecord record;
  const auto t_begin = Clock::now();
  while (true) {
    while (!finishes.empty() && finishes.top().gen != gen[finishes.top().key]) {
      finishes.pop();
    }
    // Done when every job has completed. Jobs may still wait with nothing
    // running while down nodes block them; their repairs are pending then.
    if (completed == jobs.size()) break;
    constexpr double kNone = -1.0;
    const double tc = finishes.empty() ? kNone : finishes.top().t;
    const double tr = repairs.empty() ? kNone : repairs.top().t;
    const double tf = next_fail < fails.size() ? fails[next_fail].time : kNone;
    const double ts = next_job < jobs.size() ? jobs[next_job].arrival : kNone;
    const auto first = [](double t, std::initializer_list<double> others) {
      if (t < 0.0) return false;
      for (double o : others) {
        if (o >= 0.0 && o < t) return false;
      }
      return true;
    };

    svc::Event e;
    if (first(tc, {tr, tf, ts})) {
      e.kind = svc::EventKind::kComplete;
      e.time = tc;
      e.job = finishes.top().key;
      finishes.pop();
      ++completed;
    } else if (first(tr, {tf, ts})) {
      e.kind = svc::EventKind::kRepair;
      e.time = tr;
      e.node = static_cast<int>(repairs.top().key);
      down[static_cast<std::size_t>(e.node)] = false;
      repairs.pop();
    } else if (first(tf, {ts})) {
      e.kind = svc::EventKind::kFail;
      e.time = tf;
      e.node = fails[next_fail].node;
      ++next_fail;
      const auto node = static_cast<std::size_t>(e.node);
      if (!down[node]) {
        e.down = true;
        down[node] = true;
        repairs.push(Pending{tf + kServedDowntime, node, 0});
      }
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
      throw Error("stream stalled: jobs wait but no event is left to send");
    }

    line.clear();
    svc::append_event_line(line, e);
    // Round trip: from writing the event until its ok/error frame is read.
    // Replies are parsed only after the clock stops.
    replies.clear();
    const auto t0 = Clock::now();
    server.write_all(line);
    bool framed = false;
    while (server.read_line(line)) {
      if (starts_with(line, "{\"type\":\"ok\"")) {
        framed = true;
        break;
      }
      if (starts_with(line, "{\"type\":\"error\"")) {
        ++out.errors;
        std::cerr << "perfbench: sched_server rejected an event: " << line << '\n';
        framed = true;
        break;
      }
      replies.push_back(line);
    }
    const double rtt = since(t0);
    if (!framed) throw Error("sched_server closed the reply stream mid-session");
    out.rtt_s += rtt;
    rtt_us.push_back(rtt * 1e6);
    ++out.events;

    for (std::size_t i = 0; i < replies.size(); ++i) {
      obs::TraceReader::parse_line(replies[i], i + 1, record);
      const std::string_view type = record.type_name();
      const double t = record.t();
      const auto job = static_cast<std::uint64_t>(record.require_int("job"));
      if (job >= jobs.size()) throw Error("reply names an unknown job: " + replies[i]);
      std::uint8_t kind = 0;
      long long entry = 0;
      if (type == "start") {
        kind = 1;
        entry = record.require_int("entry");
        finishes.push(Pending{t + jobs[job].runtime, job, gen[job]});
      } else if (type == "kill") {
        kind = 2;
        entry = record.require_int("entry");
        ++gen[job];
      } else if (type == "migrate") {
        kind = 3;
        entry = record.require_int("to_entry");
      } else {
        throw Error("unexpected reply line: " + replies[i]);
      }
      ++out.decisions;
      out.digest.add(kind);
      out.digest.add(job);
      out.digest.add(entry);
      out.digest.add(t);
    }
  }

  out.loop_s = since(t_begin);
  // End of stream: the server answers with its final stats line and exits.
  server.close_input();
  while (server.read_line(line)) {
    if (starts_with(line, "{\"type\":\"stats\"")) out.final_stats = line;
  }
  out.wall_s = since(t_begin);
  return out;
}

int run_served(const Args& a) {
  if (a.server.empty() || a.workdir.empty()) {
    throw ConfigError("served-easy needs --server and --workdir");
  }
  // Client and server share the vCPU the client starts on (the server
  // inherits the client's pinning), so a round trip is two context switches.
  // Across vCPUs every reply also wakes a process on another vCPU, which on a
  // busy virtual machine doubled round trips in measurements
  // (perfbench/NOTES.md); that cost is the host's, not the program's.
  HostProbe probe(pin_workload());
  const Dims dims = Dims::bluegene_l();
  std::vector<Inputs> inputs;
  const auto failure_csv = [&](std::uint64_t log) {
    return a.workdir + "/failures-" + std::to_string(log) + ".csv";
  };
  for (std::uint64_t log = 0; log < kLogs; ++log) {
    inputs.push_back(make_inputs(SyntheticModel::sdsc(), kServedJobs, dims,
                                 derive_seeds(a.seed, log)));
    write_failure_csv(failure_csv(log), inputs.back().trace);
  }
  const std::string server_log = a.workdir + "/sched_server.log";
  const auto server_args = [&](const std::string& tag, std::uint64_t log,
                               bool traced) {
    std::vector<std::string> args = {
        "--scheduler", "balancing", "--alpha", "0.1", "--algorithm", "easy",
        "--no-migration", "--predictor", "history",
        "--failure-csv", failure_csv(log),
        "--trace-out", a.workdir + "/journal-" + tag + ".jsonl",
        "--metrics-interval", format_double(kServedMetricsInterval, 1),
        "--stats-out", a.workdir + "/stats-" + tag + ".json"};
    if (traced) args.push_back("--profile");
    return args;
  };

  // Set-up probes: spawn, ask for stats, shut down. Every episode's own
  // start adds one more sample.
  std::vector<Interval> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    ServerProcess server(a.server, server_args("setup", 0, false), server_log);
    setup.push_back(time_server_ready(server, t0));
  }

  int episode = 0;
  bool kept_journal = false;
  run_plan(a, [&](std::uint64_t log, bool traced) {
    const Inputs& in = inputs[log];
    const std::string tag = std::to_string(episode++);
    const auto t0 = Clock::now();
    ServerProcess server(a.server, server_args(tag, log, traced), server_log);
    setup.push_back(time_server_ready(server, t0));
    std::vector<double> rtt_us;
    const auto s0 = Clock::now();
    const EpisodeOut ep = stream_episode(server, in, rtt_us);
    const Interval stream{s0, Clock::now()};
    const long rss_kb = server.wait();

    const std::string journal = a.workdir + "/journal-" + tag + ".jsonl";
    const std::string stats_path = a.workdir + "/stats-" + tag + ".json";
    std::string stats_json = slurp(stats_path);
    while (!stats_json.empty() && stats_json.back() == '\n') stats_json.pop_back();
    // The journal of the first traced episode stays for the strict audit.
    const bool keep = traced && !kept_journal;
    kept_journal = kept_journal || keep;
    std::string line = "{\"kind\":\"episode\",\"traced\":";
    line += traced ? "true" : "false";
    append_int(line, "log", static_cast<long long>(log));
    append_num(line, "wall_s", ep.wall_s);
    append_num(line, "loop_s", ep.loop_s);
    append_num(line, "rtt_s", ep.rtt_s);
    append_num(line, "probe_s", probe.over(stream));
    append_int(line, "rtt_samples", static_cast<long long>(rtt_us.size()));
    append_num(line, "rtt_p50_us", quantile(rtt_us, 0.50));
    append_num(line, "rtt_p99_us", quantile(rtt_us, 0.99));
    append_int(line, "events", static_cast<long long>(ep.events));
    append_int(line, "decisions", static_cast<long long>(ep.decisions));
    append_int(line, "errors", static_cast<long long>(ep.errors));
    append_int(line, "submitted", static_cast<long long>(in.workload.jobs.size()));
    append_int(line, "peak_rss_kb", rss_kb);
    line += ",\"server_exit_ok\":";
    line += server.exit_ok() ? "true" : "false";
    line += ",\"digest\":\"" + hex64(ep.digest.h) + "\"";
    append_int(line, "journal_bytes", file_size(journal));
    line += ",\"journal\":" + (keep ? "\"" + journal + "\"" : std::string("null"));
    line += ",\"final_stats\":" + (ep.final_stats.empty() ? "null" : ep.final_stats);
    line += ",\"server_stats\":" + (stats_json.empty() ? "null" : stats_json);
    emit(line + "}");
    if (!keep) std::remove(journal.c_str());
    std::remove(stats_path.c_str());
  });
  emit_intervals("setup", setup, probe);

  // The server builds this catalog while it starts; time the constructor
  // here, where it can be isolated.
  std::vector<Interval> catalog;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    const PartitionCatalog c(dims, Topology::kTorus, CatalogOptions{});
    catalog.push_back({t0, Clock::now()});
  }
  emit_intervals("catalog", catalog, probe);
  emit_probe_summary(probe);
  return 0;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(arg + " requires a value");
      return std::string(argv[++i]);
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      const auto v = parse_int(next());
      if (!v || *v < 0) throw ConfigError("--seed requires an integer >= 0");
      a.seed = static_cast<std::uint64_t>(*v);
    } else if (arg == "--seconds") {
      const auto v = parse_double(next());
      if (!v || !(*v > 0.0)) throw ConfigError("--seconds requires a positive number");
      a.seconds = *v;
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") throw ConfigError("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--server") {
      a.server = next();
    } else if (arg == "--workdir") {
      a.workdir = next();
    } else {
      throw ConfigError("unknown option: " + arg);
    }
  }
  if (a.workload != "paper-sim" && a.workload != "full-sim" &&
      a.workload != "served-easy") {
    throw ConfigError("--workload must be paper-sim, full-sim or served-easy");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  // A server that dies mid-session must surface as a failed write, not
  // kill the harness.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const Args a = parse(argc, argv);
    return a.workload == "served-easy" ? run_served(a) : run_sim(a);
  } catch (const ConfigError& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
