// Counter / timer registry for scheduler and driver hot-path statistics.
//
// Design constraints (docs/OBSERVABILITY.md has the full glossary):
//
//   * allocation-free hot path — the registry is a fixed std::array indexed
//     by a compile-time enum; add() is one integer add, no locks, no heap.
//     A simulation sweep may call add() hundreds of millions of times.
//   * zero-cost when disabled — every instrumentation site holds a nullable
//     CounterRegistry* and guards with one branch; a null registry makes the
//     instrumented code identical to the uninstrumented seed.
//   * timers are counters — ScopedTimer accumulates steady-clock nanoseconds
//     into an ordinary counter slot, so one dump format covers both and the
//     derived averages (e.g. finder microseconds per scheduling decision)
//     are computed only at write_json() time, never on the hot path.
//
// The registry is intentionally not thread-safe: one simulation run owns one
// registry. Sweeps that share a registry across sequential runs (the bench
// harness does) simply keep accumulating; merge() combines parallel ones.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string_view>

namespace bgl::obs {

/// Every counter the simulator exposes. Names (counter_name) are stable API:
/// docs, dashboards, and tests key on them.
enum class Counter : std::size_t {
  // Scheduling-engine hot path.
  kSchedInvocations = 0,   ///< schedule() calls (one per driver event burst).
  kSchedDecisionNanos,     ///< Total wall ns spent inside schedule().
  kSchedStarts,            ///< Jobs started (head-of-queue and backfill).
  kSchedBackfillStarts,    ///< Subset of starts placed by the backfill pass.
  kSchedMigrations,        ///< Migrations emitted by compaction.
  kMigrationOverCapacity,  ///< Compaction attempts refused by the capacity bound.
  kPartitionsScanned,      ///< Catalog entries examined by free-list scans.
  kMfpEvaluations,         ///< mfp_with() evaluations by placement policies.
  kCandidatesConsidered,   ///< Free candidate partitions offered to policies.
  kQueueViewCapped,        ///< Passes whose waiting queue exceeded the view cap.
  // Predictor traffic.
  kPredictorQueries,       ///< flagged_nodes() calls.
  kPredictorNodesFlagged,  ///< Total nodes flagged across all queries.
  // Realized forecast quality, scored once per metrics window at node-window
  // granularity (flagged-at-window-start vs failed-inside-window). The
  // derived pred.precision / pred.recall ratios come from these.
  kPredWindowsScored,        ///< Metrics windows scored.
  kPredWindowTruePositives,  ///< Flagged nodes that did fail in the window.
  kPredWindowFalsePositives, ///< Flagged nodes that did not fail.
  kPredWindowFalseNegatives, ///< Failing nodes the forecast missed.
  // Simulation lifecycle: events are the simulator's, the rest counted by
  // svc::SchedulerService for simulated and served sessions alike.
  kDriverEvents,           ///< Discrete events popped from the event queue.
  kDriverFailures,         ///< Node-failure events processed.
  kDriverKills,            ///< Jobs killed (and requeued) by failures.
  kDriverCheckpoints,      ///< Checkpoints accounted (analytic model).
  // Trace plumbing.
  kTraceEvents,            ///< JSONL events written by the trace sink.
  kCount_,                 ///< Sentinel; keep last.
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount_);

/// Stable dotted name of a counter (e.g. "sched.decision_ns").
std::string_view counter_name(Counter c);

class CounterRegistry {
 public:
  void add(Counter c, std::uint64_t n = 1) {
    values_[static_cast<std::size_t>(c)] += n;
  }
  std::uint64_t value(Counter c) const {
    return values_[static_cast<std::size_t>(c)];
  }

  void reset() { values_.fill(0); }
  void merge(const CounterRegistry& other);

  /// {"counters":{...},"derived":{...}} — raw values plus the ratios the
  /// glossary documents (average decision latency, candidates per decision,
  /// flags per query). Derived entries appear only when their denominator
  /// is non-zero.
  void write_json(std::ostream& out) const;

 private:
  std::array<std::uint64_t, kNumCounters> values_{};
};

/// RAII timer: accumulates elapsed steady-clock nanoseconds into `slot` on
/// destruction. A null registry skips the clock reads entirely.
class ScopedTimer {
 public:
  ScopedTimer(CounterRegistry* registry, Counter slot)
      : registry_(registry), slot_(slot) {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (registry_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      registry_->add(slot_, static_cast<std::uint64_t>(
                                std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    elapsed)
                                    .count()));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  CounterRegistry* registry_;
  Counter slot_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bgl::obs
