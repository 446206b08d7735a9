#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bgl {

void RunningStats::add(double value) {
  ++count_;
  sum_ += value;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::clear() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double PercentileTracker::percentile(double p) const {
  BGL_CHECK(p >= 0.0 && p <= 100.0, "percentile must be within [0, 100]");
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const auto upper = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lower);
  return values_[lower] * (1.0 - frac) + values_[upper] * frac;
}

}  // namespace bgl
