#include "sched/scheduler.hpp"

#include <chrono>
#include <string>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "sched/algorithm.hpp"
#include "util/error.hpp"

namespace bgl {

const char* to_string(BackfillMode mode) {
  switch (mode) {
    case BackfillMode::kNone: return "none";
    case BackfillMode::kEasy: return "easy";
    case BackfillMode::kConservative: return "conservative";
  }
  return "?";
}

Scheduler::Scheduler(const PartitionCatalog& catalog,
                     std::unique_ptr<PlacementPolicy> policy,
                     const FaultPredictor& predictor, SchedulerConfig config)
    : catalog_(&catalog),
      policy_(std::move(policy)),
      predictor_(&predictor),
      config_(config) {
  BGL_CHECK(policy_ != nullptr, "scheduler requires a placement policy");
  BGL_CHECK(config_.backfill_depth >= 0, "backfill depth must be non-negative");
  // kConservative is krevat's approximate multi-reservation mode. easy and
  // easy-holdback run the same loop but record one reservation, the head's,
  // and the conservative algorithm keeps its own profile: under any of them
  // the mode would be misreported or ignored.
  if (config_.backfill == BackfillMode::kConservative &&
      config_.algorithm != SchedAlgorithm::kKrevat) {
    throw ConfigError(std::string("backfill 'conservative' is implemented only "
                                  "by algorithm 'krevat', not by algorithm '") +
                      to_string(config_.algorithm) + "'");
  }
}

Scheduler::~Scheduler() = default;

SchedulingDecision Scheduler::schedule(double now, const std::vector<WaitingJob>& queue,
                                       const std::vector<RunningJob>& running,
                                       const NodeSet& occupied) const {
  return decide(now, queue, running, occupied, nullptr);
}

SchedulingDecision Scheduler::schedule(double now, const std::vector<WaitingJob>& queue,
                                       const std::vector<RunningJob>& running,
                                       FreePartitionIndex& index) const {
  return decide(now, queue, running, index.occupied(), &index);
}

SchedulingDecision Scheduler::decide(double now, const std::vector<WaitingJob>& queue,
                                     const std::vector<RunningJob>& running,
                                     const NodeSet& occupied,
                                     FreePartitionIndex* index) const {
  // Decision latency feeds both the counter (total ns) and the histogram
  // (per-decision µs); time manually so one clock read serves both.
  // decide() has a single return, so no scope guard is needed.
  const bool timing = obs_.counters != nullptr || obs_.histograms != nullptr;
  std::chrono::steady_clock::time_point t_begin;
  if (timing) t_begin = std::chrono::steady_clock::now();
  if (obs_.counters != nullptr) {
    obs_.counters->add(obs::Counter::kSchedInvocations);
  }
  // The sched.pass span opens after t_begin and closes before the elapsed
  // read below, so its total is contained in sched.decision_ns — the
  // tiling property the bench_scale acceptance check asserts.
  obs::PhaseProfiler* const prof = obs_.profiler;
  if (prof != nullptr) prof->begin(obs::Phase::kSchedPass);

  SchedulingDecision decision;

  // The pooled scratch: after the first pass, zero heap allocations per pass.
  if (pass_scratch_ == nullptr) {
    pass_scratch_ = std::make_unique<SchedulerPassScratch>();
  }
  SchedulerPassScratch& s = *pass_scratch_;
  s.arena.reset();
  // Copied before the pass mutates the caller's index, which `occupied`
  // may alias; copy-assign reuses the pooled buffer when widths match.
  s.occ = occupied;
  s.live.assign(running.begin(), running.end());

  // The configured discipline drives the pass; every commit — occupancy,
  // the caller's index, live set, counters, audit records — goes through
  // SchedulingPass so the observability contract is discipline-independent.
  SchedulingPass pass(*catalog_, *policy_, *predictor_, config_, obs_, now,
                      queue, s, index, decision);
  switch (config_.algorithm) {
    case SchedAlgorithm::kKrevat:
    case SchedAlgorithm::kEasy:
    case SchedAlgorithm::kEasyHoldback: run_krevat(pass); break;
    case SchedAlgorithm::kConservative: run_conservative(pass); break;
  }

  if (prof != nullptr) prof->end();
  if (obs_.counters != nullptr) {
    obs_.counters->add(obs::Counter::kSchedMigrations,
                       static_cast<std::uint64_t>(decision.migrations.size()));
  }
  if (timing) {
    const auto elapsed = std::chrono::steady_clock::now() - t_begin;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    if (obs_.counters != nullptr) {
      obs_.counters->add(obs::Counter::kSchedDecisionNanos,
                         static_cast<std::uint64_t>(ns));
    }
    if (obs_.histograms != nullptr) {
      obs_.histograms->add(obs::Hist::kDecisionUs,
                           static_cast<double>(ns) / 1000.0);
    }
  }
  return decision;
}

std::unique_ptr<Scheduler> make_krevat_scheduler(const PartitionCatalog& catalog,
                                                 const FaultPredictor& predictor,
                                                 SchedulerConfig config) {
  return std::make_unique<Scheduler>(catalog, std::make_unique<MfpLossPolicy>(),
                                     predictor, config);
}

std::unique_ptr<Scheduler> make_balancing_scheduler(const PartitionCatalog& catalog,
                                                    const FaultPredictor& predictor,
                                                    SchedulerConfig config) {
  return std::make_unique<Scheduler>(catalog, std::make_unique<BalancingPolicy>(),
                                     predictor, config);
}

std::unique_ptr<Scheduler> make_tiebreak_scheduler(const PartitionCatalog& catalog,
                                                   const FaultPredictor& predictor,
                                                   SchedulerConfig config) {
  return std::make_unique<Scheduler>(catalog, std::make_unique<TieBreakPolicy>(),
                                     predictor, config);
}

}  // namespace bgl
