// AdaptivePredictor: an online learned failure predictor (ROADMAP item 4).
//
// Unlike the paper's oracles it never sees the ground-truth trace; its whole
// state is built from the observation interface (observe_failure /
// observe_repair / advance) as failures arrive, so the identical predictor
// runs under the simulator and under a live sched_server stream. The hazard
// model is ATLAS-style (adaptive failure-aware scheduling) crossed with the
// empirical structure Sahoo et al. (KDD'03) report for real failure logs and
// that HistoryPredictor already exploits offline:
//
//   * repeat offenders — a node that fails is flagged for a base window;
//     a node that fails again within `repeat_window` gets the window
//     multiplied by `repeat_boost` (failures cluster on few nodes);
//   * spatial correlation — `midplane_threshold` failures inside one
//     midplane (a contiguous group of `midplane_nodes` node ids) within
//     `midplane_window` flag the whole midplane (shared power/cooling/links
//     take out neighbours);
//   * temporal bursts — when the last `burst_threshold` machine-wide
//     failures span less than `burst_window`, new flags are stretched by
//     `burst_boost` (failures arrive in bursts);
//   * time-of-day — per-hour failure rates are estimated online; flags
//     raised during hours that historically fail more last proportionally
//     longer (bounded by `tod_max_boost`, inactive until `tod_min_samples`
//     failures have been seen).
//
// Mechanics: every flag is a per-node expiry time plus a bit in a cached
// NodeSet; a lazy-deletion min-heap lets advance() retire expired flags in
// O(log n) per transition, and flagged_nodes_into() is a straight word-copy
// of the cache — allocation-free on the scheduler's hot path and identical
// under re-query. advance() is monotone and idempotent (see the
// FaultPredictor contract).
#pragma once

#include <cstdint>
#include <vector>

#include "predict/predictor.hpp"

namespace bgl {

struct AdaptiveConfig {
  /// Per-node failure probability reported for flagged nodes (the balancing
  /// scheduler's a; boolean consumers ignore it). Same role as
  /// HistoryPredictor's confidence.
  double confidence = 0.5;

  double node_flag_window = 6.0 * 3600.0;  ///< Base flag after one failure.
  double repeat_window = 7.0 * 86400.0;    ///< Repeat-offender memory.
  double repeat_boost = 4.0;               ///< Window multiplier on repeat.

  int midplane_nodes = 32;                  ///< Node-ids per midplane group.
  int midplane_threshold = 3;               ///< Failures that flag the group.
  double midplane_window = 86400.0;         ///< ...within this span.
  double midplane_flag_window = 6.0 * 3600.0;

  int burst_threshold = 3;         ///< Machine-wide failures that open a burst.
  double burst_window = 1800.0;    ///< ...within this span (Sahoo: minutes).
  double burst_boost = 2.0;        ///< Flag-window multiplier during a burst.

  std::uint64_t tod_min_samples = 24;  ///< Failures before time-of-day kicks in.
  double tod_max_boost = 2.0;          ///< Clamp for the per-hour rate ratio.
};

class AdaptivePredictor final : public FaultPredictor {
 public:
  explicit AdaptivePredictor(int num_nodes, const AdaptiveConfig& config = {});

  // --- event-fed lifecycle ---
  void observe_failure(int node, double t, double down_for) override;
  void observe_repair(int node, double t) override;
  void advance(double t) override;

  // --- query (const, deterministic, allocation-free in-place form) ---
  NodeSet flagged_nodes(double t0, double t1, std::uint64_t) const override;
  void flagged_nodes_into(NodeSet& out, double t0, double t1,
                          std::uint64_t) const override;
  double confidence() const override { return config_.confidence; }

  // --- introspection (tests, provenance, stats lines) ---
  const AdaptiveConfig& config() const { return config_; }
  int flagged_count() const { return flagged_.count(); }
  std::uint64_t failures_seen() const { return failures_seen_; }
  std::uint64_t repairs_seen() const { return repairs_seen_; }
  std::uint64_t bursts_detected() const { return bursts_detected_; }
  std::uint64_t midplane_flags() const { return midplane_flags_; }
  /// Flag expiry of one node (0 when unflagged or expired before `now`).
  double flag_until(int node) const {
    return flag_until_[static_cast<std::size_t>(node)];
  }

 private:
  void flag(int node, double until);
  double window_multiplier(int node, double t) const;

  AdaptiveConfig config_;
  int num_nodes_;
  int num_midplanes_;

  NodeSet flagged_;                 ///< Cache: bit set iff flag not expired.
  std::vector<double> flag_until_;  ///< Authoritative per-node expiry.
  /// Lazy-deletion min-heap of (expiry, node); extensions push a new entry
  /// and stale pops are discarded by comparing against flag_until_.
  std::vector<std::pair<double, int>> expiry_heap_;

  std::vector<double> last_fail_;  ///< Previous failure time; < 0 = never.

  /// Last `burst_threshold` machine-wide failure times (circular).
  std::vector<double> burst_times_;
  std::size_t burst_pos_ = 0;
  std::uint64_t burst_count_ = 0;  ///< Total failures pushed into the ring.

  /// Per-midplane circular ring of the last `midplane_threshold` failure
  /// times, flattened: midplane mp owns [mp * threshold, (mp+1) * threshold).
  std::vector<double> mp_times_;
  std::vector<std::uint32_t> mp_pos_;
  std::vector<std::uint64_t> mp_count_;

  std::uint64_t tod_counts_[24] = {};
  std::uint64_t tod_total_ = 0;

  std::uint64_t failures_seen_ = 0;
  std::uint64_t repairs_seen_ = 0;
  std::uint64_t bursts_detected_ = 0;
  std::uint64_t midplane_flags_ = 0;
};

}  // namespace bgl
