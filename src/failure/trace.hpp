// Failure traces: ground truth for both fault injection and prediction.
//
// The paper drives its simulator with a filtered/normalised year-long
// failure log from a 350-node cluster (Sahoo et al., KDD'03), scaled so
// each job log sees a target number of failures (4000 for NASA/SDSC, 1000
// for LLNL) within its span. A FailureTrace here is an immutable,
// time-sorted list of (time, node) events. The predictors ask it one
// question, which nodes fail in a job's window (t0, t1]; one binary search
// over the sorted events finds the window's first event.
#pragma once

#include <string>
#include <vector>

#include "torus/nodeset.hpp"

namespace bgl {

struct FailureEvent {
  double time = 0.0;
  int node = 0;
  friend bool operator==(const FailureEvent&, const FailureEvent&) = default;
};

class FailureTrace {
 public:
  FailureTrace() = default;

  /// Build from events (any order) on a machine with `num_nodes` nodes.
  FailureTrace(std::vector<FailureEvent> events, int num_nodes);

  int num_nodes() const { return num_nodes_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const std::vector<FailureEvent>& events() const { return events_; }

  /// Bitmask of all nodes with at least one failure in (t0, t1].
  NodeSet failing_nodes(double t0, double t1) const;

  /// Same, written into `out` (resized to the machine if needed) — the
  /// allocation-free form the scheduler's per-job predictor queries use.
  void failing_nodes_into(NodeSet& out, double t0, double t1) const;

  /// Failures per day averaged over the event span (0 if < 2 events).
  double mean_rate_per_day() const;

 private:
  int num_nodes_ = 0;
  std::vector<FailureEvent> events_;  ///< time-ascending
};

/// CSV I/O: lines of "time_seconds,node". '#' comments allowed.
FailureTrace read_failure_csv(const std::string& path, int num_nodes);
void write_failure_csv(const std::string& path, const FailureTrace& trace);

}  // namespace bgl
