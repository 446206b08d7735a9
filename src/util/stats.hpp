// Streaming statistics accumulators used by the metrics collector and the
// workload analyser, and the exact percentile the log histograms are tested
// against.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace bgl {

/// Welford-style streaming mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double value);
  void merge(const RunningStats& other);
  void clear();

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact percentile over a retained sample vector. The simulator produces at
/// most a few hundred thousand jobs per run, so exact retention is fine.
class PercentileTracker {
 public:
  void add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  std::size_t count() const { return values_.size(); }

  /// p in [0, 100]; linear interpolation between closest ranks.
  double percentile(double p) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace bgl
