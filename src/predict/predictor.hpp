// Fault predictors (§4 of the paper).
//
// The paper deliberately does not run a real prediction algorithm; it
// *simulates* one against the ground-truth failure log with a single knob:
//
//   * BalancingPredictor (§4.1) — flags exactly the nodes that truly fail
//     inside the query window and assigns each the probability a
//     ("confidence"). The balancing scheduler converts the per-node
//     probabilities into a partition failure probability.
//   * TieBreakPredictor (§4.2) — boolean forecasts with false-negative
//     probability 1 - a ("accuracy") and no false positives, as in the
//     paper (which argues measured p_f+ stays below half of p_f-).
//
// Stochastic predictors must answer the *same* question identically when
// the scheduler re-asks it while comparing candidate partitions during one
// decision. We therefore derive each per-node coin from a hash of
// (predictor seed, node, query_key), where the scheduler passes the job id
// as query_key: deterministic per (job, node), independent across jobs.
//
// The interface returns the full flagged-node bitmask for a window; the
// placement policies intersect it with candidate partition masks, which
// keeps the per-candidate cost at two word-ops.
#pragma once

#include <cstdint>
#include <deque>

#include "failure/trace.hpp"
#include "torus/nodeset.hpp"

namespace bgl {

class FaultPredictor {
 public:
  virtual ~FaultPredictor() = default;

  // --- observation interface (event-fed lifecycle) -----------------------
  //
  // svc::SchedulerService feeds the predictor the failure stream as it
  // unfolds: observe_failure() at every node failure, observe_repair() when
  // a down node returns, and advance() at every event, the simulator's
  // superseded finishes and expiries included, so time-based state can
  // retire. The paper's oracle predictors answer from the ground-truth
  // trace and ignore all three (the no-op defaults below keep every golden
  // CSV byte-identical); HistoryPredictor builds its entire state from
  // these calls and never sees the future.
  //
  // Contract for implementers, pinned by tests/sim_pinned_test.cpp:
  // advance(t) must be monotone and idempotent — advance(a); advance(b)
  // with a <= b must leave the same state as advance(b) alone — because
  // one event may advance it more than once. No query asks about a time
  // before the last advance(). Queries must not mutate state (they are
  // re-asked within one scheduling pass), and `down_for` is advisory only:
  // the simulator passes its configured downtime, while a live stream's
  // "down":true failure ends with a repair event and passes 0.

  /// A node failed at time `t`; it will be unschedulable for `down_for`
  /// seconds (0 = transient / unknown, see contract above).
  virtual void observe_failure(int node, double t, double down_for) {
    (void)node, (void)t, (void)down_for;
  }

  /// A down node came back at time `t`.
  virtual void observe_repair(int node, double t) { (void)node, (void)t; }

  /// Simulation/stream time reached `t`; retire expired internal state.
  virtual void advance(double t) { (void)t; }

  /// Nodes flagged as "will fail" for the window (t0, t1], written into
  /// `out` (resized to the machine if needed). `query_key` seeds any
  /// stochastic decisions (pass the job id). The scheduler issues one query
  /// per candidate-bearing job, so the answer is filled in place rather than
  /// allocated per placement.
  virtual void flagged_nodes_into(NodeSet& out, double t0, double t1,
                                  std::uint64_t query_key) const = 0;

  /// The same verdict by value, for callers off the hot path.
  NodeSet flagged_nodes(double t0, double t1, std::uint64_t query_key) const {
    NodeSet out;
    flagged_nodes_into(out, t0, t1, query_key);
    return out;
  }

  /// Probability the predictor attaches to each flagged node (the paper's
  /// confidence a for the balancing predictor; 1.0 for boolean predictors).
  virtual double confidence() const = 0;
};

/// Never predicts anything (the fault-unaware baseline, a = 0).
class NullPredictor final : public FaultPredictor {
 public:
  explicit NullPredictor(int num_nodes) : num_nodes_(num_nodes) {}
  void flagged_nodes_into(NodeSet& out, double, double, std::uint64_t) const override {
    if (out.bits() != num_nodes_) out = NodeSet(num_nodes_);
    out.clear();
  }
  double confidence() const override { return 0.0; }

 private:
  int num_nodes_;
};

/// §4.1: flags the true failing nodes, each with probability `confidence`.
class BalancingPredictor final : public FaultPredictor {
 public:
  BalancingPredictor(const FailureTrace& trace, double confidence);
  void flagged_nodes_into(NodeSet& out, double t0, double t1,
                          std::uint64_t) const override;
  double confidence() const override { return confidence_; }

 private:
  const FailureTrace* trace_;
  double confidence_;
};

/// §4.2: boolean forecast; true failing nodes are reported with probability
/// `accuracy` (false-negative rate 1 - accuracy); healthy nodes never are.
class TieBreakPredictor final : public FaultPredictor {
 public:
  TieBreakPredictor(const FailureTrace& trace, double accuracy,
                    std::uint64_t seed = 0x74696562726bULL);
  void flagged_nodes_into(NodeSet& out, double t0, double t1,
                          std::uint64_t query_key) const override;
  double confidence() const override { return 1.0; }
  double accuracy() const { return accuracy_; }

 private:
  const FailureTrace* trace_;
  double accuracy_;
  std::uint64_t seed_;
  /// Ground-truth scratch for the in-place query path. Predictors are
  /// consulted from one scheduler pass at a time (each driver owns its
  /// predictor), so a single buffer suffices.
  mutable NodeSet truth_scratch_;
};

/// A *real* predictor (extension): flags node n for a future window iff n
/// was observed failing within the preceding `lookback` seconds. Unlike the
/// paper's simulated predictors it holds no trace: its state is the window
/// of failures fed through observe_failure(), so it runs the same in the
/// simulator and on a live stream and never peeks at the future. Its
/// effectiveness comes entirely from the empirical structure of failure
/// logs — temporal bursts and repeat-offender nodes (Sahoo et al., KDD'03).
/// Its realised precision/recall can be measured with evaluate_predictor()
/// and compared against the paper's parametric confidence knob.
class HistoryPredictor final : public FaultPredictor {
 public:
  HistoryPredictor(int num_nodes, double lookback_seconds, double confidence = 0.5);
  void observe_failure(int node, double t, double down_for) override;
  /// Drops the failures at or before t - lookback: no later query reaches them.
  void advance(double t) override;
  /// Flags the nodes with an observed failure in (t0 - lookback, t0]; the
  /// forecast window's end does not change what is known.
  void flagged_nodes_into(NodeSet& out, double t0, double t1,
                          std::uint64_t) const override;
  double confidence() const override { return confidence_; }
  double lookback() const { return lookback_; }
  /// Observed failures still held: those after the last advance()'s horizon.
  std::size_t window_size() const { return window_.size(); }

 private:
  int num_nodes_;
  double lookback_;
  double confidence_;
  std::deque<FailureEvent> window_;  ///< Observed failures, time-ordered.
};

/// Realised forecast quality of a predictor measured against ground truth:
/// sample windows of length `window` every `step` seconds across the trace
/// span and compare flagged vs actually-failing node sets.
struct PredictionQuality {
  double precision = 0.0;  ///< flagged ∩ failing / flagged
  double recall = 0.0;     ///< flagged ∩ failing / failing
  std::size_t windows = 0;
  std::size_t flagged = 0;
  std::size_t failing = 0;
};

/// Before each sampled window starting at t, the predictor is fed
/// (observe_failure + advance) every truth event with time <= t — exactly
/// the information a live deployment would have — and only then queried for
/// (t, t + window]. Oracle predictors ignore the feed; event-fed ones are
/// measured on *realized* precision/recall with no future leakage. Takes the
/// predictor by non-const reference because feeding observations mutates
/// it; evaluate a fresh instance, not one mid-simulation.
PredictionQuality evaluate_predictor(FaultPredictor& predictor,
                                     const FailureTrace& truth, double window,
                                     double step);

/// Oracle: flags exactly the failing nodes with probability 1 (upper bound).
class PerfectPredictor final : public FaultPredictor {
 public:
  explicit PerfectPredictor(const FailureTrace& trace) : trace_(&trace) {}
  void flagged_nodes_into(NodeSet& out, double t0, double t1,
                          std::uint64_t) const override {
    trace_->failing_nodes_into(out, t0, t1);
  }
  double confidence() const override { return 1.0; }

 private:
  const FailureTrace* trace_;
};

}  // namespace bgl
