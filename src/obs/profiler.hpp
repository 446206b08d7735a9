// Hierarchical phase profiler for the scheduler decision path.
//
// The counter registry answers "how long does schedule() take in total"
// (sched.decision_ns); this profiler answers "where inside the pass the time
// goes" — candidate enumeration vs scoring vs placement commit vs backfill
// vs migration vs reservation — plus the DES event loop, the service event
// dispatch above it and the service's index deltas. Design constraints mirror
// counters.hpp (docs/OBSERVABILITY.md has the phase glossary):
//
//   * allocation-free span stack — begin()/end() push and pop a fixed-depth
//     stack of open spans; aggregation nodes live in a fixed array keyed by
//     (parent node, phase), so the dynamic call tree is interned without a
//     single heap allocation on the hot path.
//   * zero-cost when disabled — every instrumentation site holds a nullable
//     PhaseProfiler* (via obs::Observer) behind one branch; ScopedPhase with
//     a null profiler performs no clock read, exactly like ScopedTimer.
//   * self/cumulative accounting — each node accumulates count, total and
//     max wall nanoseconds plus the time spent in *recorded* child spans, so
//     self = total - children holds exactly and the per-phase self times of
//     a subtree tile its root's total (the property the bench_scale
//     acceptance check asserts against sched.decision_ns).
//
// Like the registries the profiler is not thread-safe: one run owns one
// profiler; the sweep engine merges per-unit profilers deterministically in
// (cell, repeat) order. Wall-clock totals are host-dependent; the tree
// *structure* and span counts are deterministic for a deterministic run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace bgl::obs {

/// Every instrumented phase. Names (phase_name) are stable API: docs,
/// dashboards, metrics_report and tests key on them.
enum class Phase : std::size_t {
  kDesEvent = 0,  ///< One discrete event popped by the simulation loop.
  kSvcEvent,      ///< One protocol event handled by SchedulerService.
  kSvcIndex,      ///< The service's index deltas outside a pass: release, down, repair.
  kSchedPass,     ///< One Scheduler::schedule() pass (the decision path root).
  kEnumerate,     ///< Free-candidate enumeration (scan or index free-list).
  kPlace,         ///< Placing one job: scoring + occupancy/index/live commit.
  kScore,         ///< PlacementPolicy::choose over the candidate list.
  kPredict,       ///< FaultPredictor::flagged_nodes query.
  kBackfill,      ///< The discipline's backfill section (wraps enumerate/place).
  kMigration,     ///< Migration/repack attempt.
  kReservation,   ///< Head-of-queue reservation computation.
  kCount_,        ///< Sentinel; keep last.
};

inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount_);

/// Stable dotted name of a phase (e.g. "sched.enumerate").
std::string_view phase_name(Phase p);

class PhaseProfiler {
 public:
  /// Distinct (parent, phase) tree nodes; spans beyond the cap are counted
  /// in dropped_spans() instead of silently vanishing.
  static constexpr std::size_t kMaxNodes = 64;
  /// Open-span stack depth; deeper nesting is dropped, never unbalanced.
  static constexpr std::size_t kMaxDepth = 32;

  PhaseProfiler() { reset(); }

  /// Open a span of phase `p` nested under the currently open span (or at
  /// the root). Every begin() must be matched by one end(); use ScopedPhase.
  void begin(Phase p) {
    if (depth_ >= kMaxDepth) {
      ++overflow_;
      ++dropped_;
      return;
    }
    const std::int16_t parent = depth_ > 0 ? stack_[depth_ - 1].node : kRoot;
    // A child of a dropped span is dropped too (a -2 parent is not a valid
    // child_lookup_ row).
    const std::int16_t node = parent < kRoot ? kDropped : intern(parent, p);
    if (node < 0) ++dropped_;
    stack_[depth_].node = node;
    stack_[depth_].start = std::chrono::steady_clock::now();
    ++depth_;
  }

  void end() {
    if (overflow_ > 0) {
      --overflow_;
      return;
    }
    if (depth_ == 0) return;  // unbalanced end(); ignore
    const auto now = std::chrono::steady_clock::now();
    --depth_;
    const OpenSpan& span = stack_[depth_];
    if (span.node < 0) return;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - span.start)
            .count());
    Node& node = nodes_[static_cast<std::size_t>(span.node)];
    ++node.count;
    node.total_ns += ns;
    if (ns > node.max_ns) node.max_ns = ns;
    if (depth_ > 0 && stack_[depth_ - 1].node >= 0) {
      nodes_[static_cast<std::size_t>(stack_[depth_ - 1].node)].child_ns += ns;
    }
  }

  void reset();
  /// Accumulate another profiler's tree into this one, interning its nodes
  /// by (parent path, phase). Deterministic given a deterministic call order.
  void merge(const PhaseProfiler& other);

  bool empty() const { return num_nodes_ == 0; }
  std::size_t num_nodes() const { return num_nodes_; }
  /// Spans lost to the node or depth caps (0 in every in-tree workload).
  std::uint64_t dropped_spans() const { return dropped_; }

  /// Aggregates over every tree node of phase `p` (a phase can appear under
  /// several parents, e.g. sched.enumerate under the pass root and under
  /// sched.backfill).
  std::uint64_t count(Phase p) const;
  std::uint64_t total_ns(Phase p) const;
  std::uint64_t self_ns(Phase p) const;

  /// Materialized view of one tree node, for renderers outside the class
  /// (obs::prometheus_render, tools/metrics_report). `i` < num_nodes().
  struct NodeView {
    std::string path;        ///< Phase names root-down joined with '/'.
    std::string_view phase;  ///< Leaf phase name.
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t max_ns = 0;
  };
  NodeView node_view(std::size_t i) const;

  /// {"dropped":0,"tree":[{"phase":...,"count":...,"total_ns":...,
  ///  "self_ns":...,"max_ns":...,"children":[...]},...]} — the cumulative
  /// tree in first-seen order; self_ns = total_ns - recorded child time.
  void write_json(std::ostream& out) const;

  /// Flat fields for the server's one-line stats reply (the trace schema
  /// forbids nested containers): for every tree node, appends
  ///   ,"ph_count:<path>":N,"ph_total_ns:<path>":T,"ph_self_ns:<path>":S
  /// where <path> joins phase names root-down with '/'.
  void append_stats_fields(std::string& out) const;

 private:
  static constexpr std::int16_t kRoot = -1;
  /// Span marker for "no node" (capacity exhausted or dropped parent).
  static constexpr std::int16_t kDropped = -2;

  struct Node {
    Phase phase = Phase::kCount_;
    std::int16_t parent = kRoot;  ///< Node index of the parent, kRoot at top.
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint64_t child_ns = 0;  ///< Time recorded by direct child spans.
  };

  struct OpenSpan {
    std::int16_t node = kRoot;  ///< < 0 when the span was dropped.
    std::chrono::steady_clock::time_point start;
  };

  std::int16_t intern(std::int16_t parent, Phase p) {
    std::int16_t& slot =
        child_lookup_[static_cast<std::size_t>(parent + 1)][static_cast<std::size_t>(p)];
    if (slot >= 0) return slot;
    if (num_nodes_ >= kMaxNodes) return kDropped;
    const auto idx = static_cast<std::int16_t>(num_nodes_++);
    Node& node = nodes_[static_cast<std::size_t>(idx)];
    node.phase = p;
    node.parent = parent;
    slot = idx;
    return idx;
  }

  std::string path_of(std::size_t node) const;
  void write_node_json(std::ostream& out, std::size_t node) const;

  std::array<Node, kMaxNodes> nodes_;
  /// (parent node + 1) x phase -> node index, -1 when not yet interned.
  std::array<std::array<std::int16_t, kNumPhases>, kMaxNodes + 1> child_lookup_;
  std::array<OpenSpan, kMaxDepth> stack_;
  std::size_t num_nodes_ = 0;
  std::size_t depth_ = 0;
  std::size_t overflow_ = 0;  ///< Opens beyond kMaxDepth awaiting their end().
  std::uint64_t dropped_ = 0;
};

/// RAII span guard: opens `phase` on construction, closes it on destruction.
/// A null profiler skips the clock reads entirely (same contract as
/// ScopedTimer).
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, Phase phase) : profiler_(profiler) {
    if (profiler_ != nullptr) profiler_->begin(phase);
  }
  ~ScopedPhase() {
    if (profiler_ != nullptr) profiler_->end();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler* profiler_;
};

}  // namespace bgl::obs
