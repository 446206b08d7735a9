// replay_gantt: visualise a simulation as an ASCII machine-utilisation
// timeline rebuilt from the run's JSONL trace.
//
// Renders two views of a small SDSC-like run under the balancing scheduler:
//   1. a utilisation strip — one column per time bucket, bar height = busy
//      nodes, with failure events marked on top;
//   2. a per-z-plane occupancy map at a chosen instant, showing how the
//      torus is carved into rectangular partitions.
//
// Usage: replay_gantt [jobs] [failures_per_day] [seed]
// (defaults 400, 6 and 11). A malformed or out-of-range number exits 2
// naming the argument, as simulate_cli's flags do.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "failure/generator.hpp"
#include "obs/reader.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace bgl;

/// A change of the machine read back from the trace: a job taking a
/// partition (job_start, migration), a job leaving one (job_finish,
/// job_kill), or a node failure (job < 0).
struct Change {
  double time;
  std::int64_t job;
  int entry;  ///< The job's partition from now on; -1 once it left.
};

/// The run as the trace tells it: its span and every change, in order.
struct Timeline {
  double begin = 0.0;  ///< sim_begin: the first arrival or failure.
  double end = 0.0;    ///< sim_end: the last finish.
  std::vector<Change> changes;
};

Timeline read_timeline(const std::string& trace) {
  std::istringstream in(trace);
  obs::TraceReader reader(in);
  obs::TraceRecord r;
  Timeline tl;
  while (reader.next(r)) {
    switch (r.type()) {
      case obs::EventType::kSimBegin: tl.begin = r.t(); break;
      case obs::EventType::kSimEnd: tl.end = r.t(); break;
      case obs::EventType::kJobStart:
        tl.changes.push_back({r.t(), r.require_int("job"),
                              static_cast<int>(r.require_int("entry"))});
        break;
      case obs::EventType::kMigration:
        tl.changes.push_back({r.t(), r.require_int("job"),
                              static_cast<int>(r.require_int("to_entry"))});
        break;
      case obs::EventType::kJobFinish:
      case obs::EventType::kJobKill:
        tl.changes.push_back({r.t(), r.require_int("job"), -1});
        break;
      case obs::EventType::kNodeFailure:
        tl.changes.push_back({r.t(), -1, -1});
        break;
      default:
        break;
    }
  }
  return tl;
}

/// Apply one change to the running set (job -> partition); returns the
/// change in busy nodes.
int apply(const Change& c, std::map<std::int64_t, int>& running,
          const PartitionCatalog& catalog) {
  if (c.job < 0) return 0;
  int delta = 0;
  const auto it = running.find(c.job);
  if (it != running.end()) {
    delta -= catalog.entry(it->second).size;
    running.erase(it);
  }
  if (c.entry >= 0) {
    running[c.job] = c.entry;
    delta += catalog.entry(c.entry).size;
  }
  return delta;
}

/// Busy nodes over time: one column per bucket, bar height = the bucket's
/// peak.
void render_strip(const Timeline& tl, const PartitionCatalog& catalog, int columns,
                  int rows) {
  if (tl.changes.empty()) return;
  const double t0 = tl.begin;
  const double t1 = tl.end;
  const double bucket = (t1 - t0) / columns;
  std::vector<int> level(static_cast<std::size_t>(columns), 0);
  std::vector<bool> failed(static_cast<std::size_t>(columns), false);
  std::map<std::int64_t, int> running;
  std::size_t p = 0;
  int busy = 0;
  for (int c = 0; c < columns; ++c) {
    const double end = t0 + bucket * (c + 1);
    int peak = busy;
    for (; p < tl.changes.size() && tl.changes[p].time <= end; ++p) {
      busy += apply(tl.changes[p], running, catalog);
      peak = std::max(peak, busy);
      failed[static_cast<std::size_t>(c)] =
          failed[static_cast<std::size_t>(c)] || tl.changes[p].job < 0;
    }
    level[static_cast<std::size_t>(c)] = peak;
  }
  std::cout << "busy nodes (peak per bucket; 'x' = failure events in bucket)\n";
  for (int r = rows; r >= 1; --r) {
    const int threshold = 128 * r / rows;
    std::cout << (r == rows ? "128|" : (r == 1 ? "  0|" : "   |"));
    for (int c = 0; c < columns; ++c) {
      const bool on = level[static_cast<std::size_t>(c)] >= threshold;
      if (r == rows && failed[static_cast<std::size_t>(c)]) {
        std::cout << 'x';
      } else {
        std::cout << (on ? '#' : ' ');
      }
    }
    std::cout << '\n';
  }
  std::cout << "   +" << std::string(static_cast<std::size_t>(columns), '-') << '\n';
  std::cout << "    0" << std::string(static_cast<std::size_t>(columns) - 10, ' ')
            << format_duration(t1 - t0) << '\n';
}

void render_occupancy_at(const Timeline& tl, const PartitionCatalog& catalog,
                         double at) {
  std::map<std::int64_t, int> running;
  for (const Change& c : tl.changes) {
    if (c.time > at) break;
    apply(c, running, catalog);
  }
  // Letter per job, '.' for free.
  std::vector<char> cell(static_cast<std::size_t>(catalog.num_nodes()), '.');
  char letter = 'A';
  for (const auto& [job, entry] : running) {
    for (const int id : catalog.entry(entry).mask.to_ids()) {
      cell[static_cast<std::size_t>(id)] = letter;
    }
    letter = letter == 'Z' ? 'a' : static_cast<char>(letter + 1);
  }
  const Dims dims = catalog.dims();
  std::cout << "\ntorus occupancy at t = " << format_duration(at) << " ("
            << running.size() << " jobs running):\n";
  for (int z = 0; z < dims.z; ++z) {
    std::cout << "z=" << z << "  ";
    for (int y = dims.y - 1; y >= 0; --y) {
      for (int x = 0; x < dims.x; ++x) {
        std::cout << cell[static_cast<std::size_t>(node_id(dims, Coord{x, y, z}))];
      }
      std::cout << ' ';
    }
    std::cout << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgl;
  int jobs = 400;
  double failures_per_day = 6.0;
  std::uint64_t seed = 11;
  try {
    if (argc > 1) jobs = static_cast<int>(require_int("[jobs]", argv[1]));
    if (jobs < 1) throw ConfigError("[jobs] must be >= 1");
    if (argc > 2) {
      failures_per_day = require_double("[failures_per_day]", argv[2]);
    }
    if (!(failures_per_day >= 0.0)) throw ConfigError("[failures_per_day] must be >= 0");
    if (argc > 3) {
      seed = static_cast<std::uint64_t>(require_int("[seed]", argv[3]));
    }
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << '\n'
              << "usage: replay_gantt [jobs] [failures_per_day] [seed]\n";
    return 2;
  }

  SyntheticModel model = SyntheticModel::sdsc();
  model.num_jobs = jobs;
  Workload w = generate_workload(model, seed);
  w = rescale_sizes(w, 128);
  const double span = w.arrival_span() * 1.05 + 2.0 * 36.0 * 3600.0;
  const FailureTrace trace = generate_failures(
      FailureModel::bluegene_l(
          static_cast<std::size_t>(failures_per_day * span / 86400.0), span),
      seed ^ 0x9e37);

  SimConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.1;
  std::ostringstream journal;
  obs::TraceSink sink(journal);
  config.obs.trace = &sink;

  const PartitionCatalog catalog(Dims::bluegene_l());
  const SimResult r = run_simulation(w, trace, config, &catalog);
  sink.flush();
  const Timeline tl = read_timeline(journal.str());

  std::cout << "jobs " << r.jobs_completed << ", kills " << r.job_kills
            << ", utilization " << format_double(r.utilization, 3) << ", slowdown "
            << format_double(r.avg_bounded_slowdown, 1) << "\n\n";
  render_strip(tl, catalog, 100, 12);
  render_occupancy_at(tl, catalog, r.span / 2.0);
  return 0;
}
