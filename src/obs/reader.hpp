// Streaming reader for the JSONL trace format written by obs::TraceSink.
//
// The schema (docs/OBSERVABILITY.md) is deliberately flat — one JSON object
// per line, scalar values only — so the reader is a small hand-rolled RFC
// 8259 scanner, not a general JSON library: it accepts exactly the subset
// the sink emits (strings with escapes, numbers, true/false/null) and
// rejects nested objects/arrays with a ParseError carrying the line number.
//
// Reading is allocation-light: TraceReader reuses one TraceRecord's field
// buffers across lines, and field keys/values reference storage owned by
// the record (valid until the next next() call).
//
// Two consumption levels:
//   * TraceRecord — generic (key, scalar) view with checked accessors;
//   * typed event structs (JobStartEvent, ...) mirroring the documented
//     event types, each with a from(record) factory that validates the
//     required fields. trace_audit and describe-trace build on these.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bgl::obs {

/// Every documented trace event type, in the order a well-formed trace
/// first introduces them; kUnknown covers forward-compatible extensions.
enum class EventType {
  kSimBegin,
  kJobSubmit,
  kPredictorQuery,
  kSchedDecision,
  kJobStart,
  kMigration,
  kNodeFailure,
  kJobKill,
  kCheckpoint,
  kNodeRepair,
  kJobFinish,
  kMachineState,
  kMetrics,
  kSimEnd,
  kUnknown,
};

EventType event_type_from(std::string_view name);
const char* to_string(EventType type);

/// One parsed trace line: the mandatory (type, t) header plus a flat list
/// of scalar fields. String storage is owned by the record and reused by
/// the reader; copy values out before advancing.
class TraceRecord {
 public:
  EventType type() const { return type_; }
  std::string_view type_name() const { return type_name_; }
  double t() const { return t_; }
  std::size_t line_number() const { return line_number_; }

  bool has(std::string_view key) const;
  std::optional<double> num(std::string_view key) const;
  std::optional<std::string_view> str(std::string_view key) const;
  std::optional<bool> boolean(std::string_view key) const;

  /// Checked accessors: throw ParseError naming the key and line on a
  /// missing field or a type mismatch. require_int also throws on a number
  /// that is not an integer in int64's range (fractional, inf, 1e300).
  double require_num(std::string_view key) const;
  std::int64_t require_int(std::string_view key) const;
  std::string_view require_str(std::string_view key) const;
  bool require_bool(std::string_view key) const;

 private:
  friend class TraceReader;

  enum class Kind : std::uint8_t { kNumber, kString, kBool, kNull };
  struct Field {
    std::string key;
    Kind kind = Kind::kNull;
    double number = 0.0;
    bool flag = false;
    std::string text;
  };
  const Field* find(std::string_view key) const;

  EventType type_ = EventType::kUnknown;
  std::string type_name_;
  double t_ = 0.0;
  std::size_t line_number_ = 0;
  std::vector<Field> fields_;
  std::size_t num_fields_ = 0;  ///< Used entries of fields_ (reused storage).
};

class TraceReader {
 public:
  /// Read from an externally owned stream (tests use std::istringstream).
  explicit TraceReader(std::istream& in);

  /// Parse the next line into `record` (reusing its buffers). Returns false
  /// at end of input; skips blank lines; throws ParseError (with the line
  /// number) on malformed JSON or a line without the mandatory type/t pair.
  bool next(TraceRecord& record);

  /// Parse one already-read line (no trailing newline) into `record`,
  /// tagging errors and the record with `line_number`. Shared by next() and
  /// callers that own their line transport (tools/loadgen reads reply lines
  /// from a pipe). Throws ParseError exactly like next().
  static void parse_line(std::string_view line, std::size_t line_number,
                         TraceRecord& record);

  std::size_t lines_read() const { return line_number_; }

 private:
  std::istream* in_;
  std::string line_;
  std::size_t line_number_ = 0;
};

// --- typed event structs (field semantics: docs/OBSERVABILITY.md) ---

struct SimBeginEvent {
  double t = 0.0;
  std::string machine;    ///< Torus dims, e.g. "4x4x8".
  int nodes = 0;
  std::string topology;   ///< "torus" | "mesh".
  std::string scheduler;
  std::string policy;
  std::string predictor;
  double alpha = 0.0;
  std::string backfill;
  bool migration = false;
  std::int64_t jobs = 0;
  std::int64_t failure_events = 0;
  // Scale-up knobs, written only when they deviate from the defaults
  // (docs/OBSERVABILITY.md): empty/zero means the default configuration.
  std::string catalog;     ///< "" (boxes) | "blocks".
  int min_block = 0;       ///< kBlocks only: smallest block size.
  std::string algorithm;   ///< "" (krevat) | "easy" | "conservative" | ...
  static SimBeginEvent from(const TraceRecord& r);
};

struct JobSubmitEvent {
  double t = 0.0;
  std::int64_t job = 0;
  int size = 0;
  int alloc_size = 0;
  double estimate = 0.0;
  double runtime = 0.0;
  static JobSubmitEvent from(const TraceRecord& r);
};

struct PredictorQueryEvent {
  double t = 0.0;
  std::int64_t job = 0;
  double window_start = 0.0;
  double window_end = 0.0;
  int nodes_flagged = 0;
  static PredictorQueryEvent from(const TraceRecord& r);
};

struct SchedDecisionEvent {
  double t = 0.0;
  std::int64_t job = 0;
  std::string policy;
  int entry = -1;
  int candidates = 0;
  double l_mfp = 0.0;
  double l_pf = 0.0;
  double e_loss = 0.0;
  int mfp_after = 0;
  int flags_in_chosen = 0;
  bool backfill = false;
  // Reservation provenance, written only by the reservation-carrying
  // algorithms (easy/conservative/easy-holdback) on backfill placements:
  // the binding reservation this filler was admitted against. res_entry < 0
  // means the fields were absent (krevat, or a non-backfill start).
  double res_time = -1.0;
  int res_entry = -1;
  static SchedDecisionEvent from(const TraceRecord& r);
};

struct JobStartEvent {
  double t = 0.0;
  std::int64_t job = 0;
  int entry = -1;
  int alloc_size = 0;
  double wait_so_far = 0.0;
  int restarts = 0;
  static JobStartEvent from(const TraceRecord& r);
};

struct MigrationEvent {
  double t = 0.0;
  std::int64_t job = 0;
  int from_entry = -1;
  int to_entry = -1;
  static MigrationEvent from(const TraceRecord& r);
};

struct NodeFailureEvent {
  double t = 0.0;
  int node = -1;
  int victims = 0;
  double down_for = 0.0;
  /// Down until a later node_repair (no duration known up front).
  bool down = false;
  static NodeFailureEvent from(const TraceRecord& r);
};

struct NodeRepairEvent {
  double t = 0.0;
  int node = -1;
  static NodeRepairEvent from(const TraceRecord& r);
};

struct JobKillEvent {
  double t = 0.0;
  std::int64_t job = 0;
  int entry = -1;
  double elapsed = 0.0;
  double work_lost = 0.0;   ///< Node-seconds destroyed.
  double work_saved = 0.0;  ///< Node-seconds preserved by checkpoints.
  int restarts = 0;
  static JobKillEvent from(const TraceRecord& r);
};

struct CheckpointEvent {
  double t = 0.0;
  std::int64_t job = 0;
  std::int64_t count = 0;
  double work_saved = 0.0;  ///< Node-seconds.
  static CheckpointEvent from(const TraceRecord& r);
};

struct JobFinishEvent {
  double t = 0.0;
  std::int64_t job = 0;
  int entry = -1;
  double wait = 0.0;
  double response = 0.0;
  double bounded_slowdown = 0.0;
  int restarts = 0;
  static JobFinishEvent from(const TraceRecord& r);
};

struct MachineStateEvent {
  double t = 0.0;
  int queue_depth = 0;    ///< Waiting jobs.
  int queued_nodes = 0;   ///< Nodes requested by waiting jobs (Σ s_j).
  int running_jobs = 0;
  int free_nodes = 0;     ///< Schedulable free nodes (down nodes excluded).
  int down_nodes = 0;
  int mfp = 0;            ///< Maximal free partition size.
  double frag = 0.0;      ///< 1 - mfp/free_nodes (0 when free_nodes == 0).
  int flagged_nodes = 0;  ///< Predictor flags for the next snapshot window.
  static MachineStateEvent from(const TraceRecord& r);
};

/// Periodic telemetry snapshot (docs/OBSERVABILITY.md, "metrics"): queue /
/// occupancy gauges at t plus windowed rates since the previous metrics
/// event. All fields except the decision_us_* quantiles (wall-clock, host-
/// dependent) are re-derived and cross-checked by the auditor.
struct MetricsEvent {
  double t = 0.0;
  int queue_depth = 0;     ///< Waiting jobs.
  int queued_nodes = 0;    ///< Nodes requested by waiting jobs (Σ s_j).
  int running_jobs = 0;
  int busy_nodes = 0;      ///< Nodes held by running jobs (down excluded).
  int down_nodes = 0;
  double utilization = 0.0;  ///< busy_nodes / machine nodes.
  double interval = 0.0;     ///< Seconds since the previous metrics event.
  // Event counts within the interval.
  std::int64_t submits = 0;
  std::int64_t starts = 0;
  std::int64_t finishes = 0;
  std::int64_t kills = 0;
  std::int64_t migrations = 0;
  double finished_per_hour = 0.0;  ///< finishes * 3600 / interval.
  /// Scheduler passes within the interval; the decision_us_* quantiles are
  /// nearest-rank over the window's per-pass wall latencies (LatencyRing) —
  /// the only non-reconstructable (wall-clock) fields besides wall_us.
  std::int64_t decisions = 0;
  double decision_us_p50 = 0.0;
  double decision_us_p99 = 0.0;
  double decision_us_max = 0.0;
  /// Realized forecast quality of the window that just closed: the flagged
  /// set captured at the window's start scored against the nodes that
  /// failed inside it (node-window granularity). Absent in pre-predictor
  /// traces; the auditor treats them as ordering/sanity-only (the flagged
  /// capture is predictor-internal state, not reconstructable).
  std::int64_t pred_tp = 0;
  std::int64_t pred_fp = 0;
  std::int64_t pred_fn = 0;
  static MetricsEvent from(const TraceRecord& r);
};

struct SimEndEvent {
  double t = 0.0;
  std::int64_t jobs_completed = 0;
  double span = 0.0;
  double avg_wait = 0.0;
  double avg_response = 0.0;
  double avg_bounded_slowdown = 0.0;
  double utilization = 0.0;
  double unused = 0.0;
  double lost = 0.0;
  std::int64_t job_kills = 0;
  std::int64_t migrations = 0;
  std::int64_t checkpoints = 0;
  double work_lost_node_seconds = 0.0;
  static SimEndEvent from(const TraceRecord& r);
};

}  // namespace bgl::obs
