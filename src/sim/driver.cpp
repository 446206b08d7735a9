#include "sim/driver.hpp"

#include <algorithm>
#include <chrono>

#include "des/event_queue.hpp"
#include "obs/counters.hpp"
#include "obs/profiler.hpp"
#include "svc/service.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace bgl {

namespace {

/// The discrete-event loop: owns the clock and feeds every event that
/// reaches the scheduler to a SchedulerService. It keeps only clock-side
/// state: pending events, each job's finish-event generation, down-time
/// expiry timers, and the outcomes.
class SimLoop {
 public:
  SimLoop(const Workload& workload, const FailureTrace& trace, const SimConfig& config,
          const PartitionCatalog* shared_catalog)
      : workload_(workload),
        trace_(trace),
        config_(config),
        service_(config, &trace, shared_catalog),
        gen_(workload.jobs.size(), 0),
        ct_(config.obs.counters),
        pf_(config.obs.profiler) {
    BGL_CHECK(trace.empty() || trace.num_nodes() == config.dims.volume(),
              "failure trace node count mismatch");
    const int n = config.dims.volume();
    for (const Job& j : workload.jobs) {
      if (j.size > n) {
        BGL_WARN("job " << j.id << " size " << j.size << " exceeds machine (" << n
                        << "); clamping");
      }
    }
  }

  SimResult run();

 private:
  void submit(std::size_t index, double now);
  void fail(int node, double now);
  void apply(double now);

  const Workload& workload_;
  const FailureTrace& trace_;
  const SimConfig& config_;
  svc::SchedulerService service_;
  EventQueue events_;
  /// Finish-event validity tag per job: a kill or restart bumps it, so the
  /// superseded finish pops as stale.
  std::vector<std::uint64_t> gen_;
  /// Down-time expiry per node (kDownFor); a later failure extends it,
  /// which makes the earlier expiry event stale.
  std::vector<double> down_until_;
  std::vector<svc::Decision> decisions_;  ///< Reused across events.
  std::vector<JobOutcome> outcomes_;
  obs::CounterRegistry* ct_;  ///< Borrowed; null when counting is off.
  obs::PhaseProfiler* pf_;    ///< Borrowed; null when profiling is off.
};

void SimLoop::submit(std::size_t index, double now) {
  const Job& j = workload_.jobs[index];
  svc::Event e;
  e.kind = svc::EventKind::kSubmit;
  e.time = now;
  // The scheduler-facing id is the internal index: workload job numbers are
  // only guaranteed unique per log, not across merged logs.
  e.job = index;
  e.trace_id = j.id;
  e.size = std::min(j.size, config_.dims.volume());
  e.estimate = j.estimate;
  e.runtime = j.runtime;
  service_.handle(e, decisions_);
}

void SimLoop::fail(int node, double now) {
  svc::Event e;
  e.kind = svc::EventKind::kFail;
  e.time = now;
  e.node = node;
  if (config_.failure_semantics == FailureSemantics::kDownFor) {
    e.down_for = config_.node_downtime;
    if (config_.node_downtime > 0.0) {
      e.down = true;
      double& until = down_until_[static_cast<std::size_t>(node)];
      until = std::max(until, now + config_.node_downtime);
      events_.push(Event{now + config_.node_downtime, EventType::kCustom,
                         static_cast<std::uint64_t>(node), 0, 0});
    }
  }
  service_.handle(e, decisions_);
}

/// Clock-side effects of the service's decisions: a start schedules its
/// finish, a kill makes the pending finish stale.
void SimLoop::apply(double now) {
  for (const svc::Decision& d : decisions_) {
    std::uint64_t& gen = gen_[static_cast<std::size_t>(d.job)];
    switch (d.kind) {
      case svc::DecisionKind::kStart: {
        const double wall =
            walltime_for_work(service_.remaining_work(d.job), config_.ckpt);
        events_.push(Event{now + wall, EventType::kFinish, d.job, ++gen, 0});
        break;
      }
      case svc::DecisionKind::kKill:
        ++gen;
        break;
      case svc::DecisionKind::kMigrate:
        break;
    }
  }
}

SimResult SimLoop::run() {
  const std::size_t n = workload_.jobs.size();
  if (n == 0) return SimResult{};

  double first_event = workload_.jobs.front().arrival;
  for (std::size_t i = 0; i < n; ++i) {
    first_event = std::min(first_event, workload_.jobs[i].arrival);
    events_.push(Event{workload_.jobs[i].arrival, EventType::kArrival,
                       static_cast<std::uint64_t>(i), 0, 0});
  }
  for (const FailureEvent& f : trace_.events()) {
    first_event = std::min(first_event, f.time);
    events_.push(Event{f.time, EventType::kFailure,
                       static_cast<std::uint64_t>(f.node), 0, 0});
  }
  if (config_.failure_semantics == FailureSemantics::kDownFor) {
    down_until_.assign(static_cast<std::size_t>(config_.dims.volume()), 0.0);
  }
  service_.begin(first_event, svc::StreamCensus{n, trace_.size()});

  while (!events_.empty() && service_.stats().finished < n) {
    const Event e = events_.pop();
    // One des.event span per popped event; the service's svc.event span and
    // the scheduler passes it triggers nest under it.
    obs::ScopedPhase des_span(pf_, obs::Phase::kDesEvent);
    if (ct_ != nullptr) ct_->add(obs::Counter::kDriverEvents);
    decisions_.clear();
    switch (e.type) {
      case EventType::kArrival:
        submit(static_cast<std::size_t>(e.id), e.time);
        break;
      case EventType::kFinish: {
        const std::size_t idx = static_cast<std::size_t>(e.id);
        if (gen_[idx] != e.tag) {
          service_.advance(e.time);  // stale: a kill superseded this finish
          break;
        }
        svc::Event complete;
        complete.kind = svc::EventKind::kComplete;
        complete.time = e.time;
        complete.job = e.id;
        service_.handle(complete, decisions_);
        if (config_.collect_outcomes) outcomes_.push_back(service_.last_finished());
        break;
      }
      case EventType::kFailure:
        fail(static_cast<int>(e.id), e.time);
        break;
      case EventType::kCustom: {
        // Node down-time expiry; stale when a later failure extended it.
        const int node = static_cast<int>(e.id);
        if (!service_.node_down(node) ||
            e.time + 1e-9 < down_until_[static_cast<std::size_t>(node)]) {
          service_.advance(e.time);
          break;
        }
        svc::Event repair;
        repair.kind = svc::EventKind::kRepair;
        repair.time = e.time;
        repair.node = node;
        service_.handle(repair, decisions_);
        break;
      }
      case EventType::kCheckpoint:
        break;  // checkpoints are modelled analytically; no discrete events
    }
    apply(e.time);
  }

  BGL_CHECK(service_.stats().finished == n,
            "simulation ended with unfinished jobs (deadlock?)");
  SimResult result = service_.result();
  result.outcomes = std::move(outcomes_);
  service_.finish_stream();
  return result;
}

}  // namespace

SimResult run_simulation(const Workload& workload, const FailureTrace& trace,
                         const SimConfig& config,
                         const PartitionCatalog* shared_catalog) {
  validate(config.dims);
  const auto t_begin = std::chrono::steady_clock::now();
  SimResult result = SimLoop(workload, trace, config, shared_catalog).run();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin)
          .count();
  return result;
}

}  // namespace bgl
