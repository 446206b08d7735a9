#include "obs/counters.hpp"

#include <ostream>

#include "util/strings.hpp"

namespace bgl::obs {

std::string_view counter_name(Counter c) {
  switch (c) {
    case Counter::kSchedInvocations: return "sched.invocations";
    case Counter::kSchedDecisionNanos: return "sched.decision_ns";
    case Counter::kSchedStarts: return "sched.starts";
    case Counter::kSchedBackfillStarts: return "sched.backfill_starts";
    case Counter::kSchedMigrations: return "sched.migrations";
    case Counter::kMigrationOverCapacity: return "sched.migration_over_capacity";
    case Counter::kPartitionsScanned: return "sched.partitions_scanned";
    case Counter::kMfpEvaluations: return "sched.mfp_evaluations";
    case Counter::kCandidatesConsidered: return "sched.candidates_considered";
    case Counter::kQueueViewCapped: return "sched.queue_view_capped";
    case Counter::kPredictorQueries: return "predictor.queries";
    case Counter::kPredictorNodesFlagged: return "predictor.nodes_flagged";
    case Counter::kPredWindowsScored: return "pred.windows_scored";
    case Counter::kPredWindowTruePositives: return "pred.window_tp";
    case Counter::kPredWindowFalsePositives: return "pred.window_fp";
    case Counter::kPredWindowFalseNegatives: return "pred.window_fn";
    case Counter::kDriverEvents: return "driver.events";
    case Counter::kDriverFailures: return "driver.failures";
    case Counter::kDriverKills: return "driver.kills";
    case Counter::kDriverCheckpoints: return "driver.checkpoints";
    case Counter::kTraceEvents: return "trace.events";
    case Counter::kCount_: break;
  }
  return "?";
}

void CounterRegistry::merge(const CounterRegistry& other) {
  for (std::size_t i = 0; i < kNumCounters; ++i) values_[i] += other.values_[i];
}

void CounterRegistry::write_json(std::ostream& out) const {
  out << "{\"counters\":{";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (i > 0) out << ',';
    out << '"' << counter_name(static_cast<Counter>(i)) << "\":" << values_[i];
  }
  out << "},\"derived\":{";
  bool first = true;
  auto ratio = [&](std::string_view name, double numer, std::uint64_t denom) {
    if (denom == 0) return;
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":"
        << format_double(numer / static_cast<double>(denom), 4);
  };
  const auto v = [this](Counter c) { return value(c); };
  ratio("avg_decision_us",
        static_cast<double>(v(Counter::kSchedDecisionNanos)) / 1000.0,
        v(Counter::kSchedInvocations));
  ratio("avg_candidates_per_decision",
        static_cast<double>(v(Counter::kCandidatesConsidered)),
        v(Counter::kSchedInvocations));
  ratio("avg_partitions_scanned_per_decision",
        static_cast<double>(v(Counter::kPartitionsScanned)),
        v(Counter::kSchedInvocations));
  ratio("avg_mfp_evaluations_per_start",
        static_cast<double>(v(Counter::kMfpEvaluations)),
        v(Counter::kSchedStarts));
  ratio("avg_nodes_flagged_per_query",
        static_cast<double>(v(Counter::kPredictorNodesFlagged)),
        v(Counter::kPredictorQueries));
  // Realized precision/recall of the windowed forecast scorer.
  ratio("pred.precision",
        static_cast<double>(v(Counter::kPredWindowTruePositives)),
        v(Counter::kPredWindowTruePositives) +
            v(Counter::kPredWindowFalsePositives));
  ratio("pred.recall",
        static_cast<double>(v(Counter::kPredWindowTruePositives)),
        v(Counter::kPredWindowTruePositives) +
            v(Counter::kPredWindowFalseNegatives));
  out << "}}";
}

}  // namespace bgl::obs
