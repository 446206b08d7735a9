// JSONL event/decision protocol of the online scheduling service.
//
// The service consumes a typed stream of events — one JSON object per line,
// the same flat scalar subset obs::TraceReader scans — and answers with
// decision lines. The protocol is the seam between the scheduler core
// (SchedulerService, which owns queue/occupancy/index state but no clock)
// and whatever drives it: the discrete-event simulator (sim/driver.hpp's
// run_simulation), tools/sched_server over stdin or a Unix socket, or tests.
//
// Events (docs/SERVICE.md):
//   {"type":"submit","t":T,"job":J,"size":S,"estimate":E[,"runtime":R]}
//   {"type":"complete","t":T,"job":J}
//   {"type":"fail","t":T,"node":N[,"down":true]}
//   {"type":"repair","t":T,"node":N}
//   {"type":"tick","t":T}
//
// Decisions:
//   {"type":"start","t":T,"job":J,"entry":E}
//   {"type":"kill","t":T,"job":J,"entry":E,"node":N}
//   {"type":"migrate","t":T,"job":J,"from_entry":A,"to_entry":B}
//
// Malformed or illegal events never crash the service and never silently
// default: they raise a ProtocolError carrying a stable machine-readable
// code and the 1-based input line number, which the session loop turns into
// an {"type":"error","line":L,"code":C,"message":M} reply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "util/error.hpp"

namespace bgl::obs {
class TraceRecord;
}

namespace bgl::svc {

enum class EventKind { kSubmit, kComplete, kFail, kRepair, kTick };

const char* to_string(EventKind kind);

/// One protocol event. Only the fields of the event's kind are meaningful.
struct Event {
  EventKind kind = EventKind::kTick;
  double time = 0.0;
  std::uint64_t job = 0;    ///< submit/complete.
  int size = 0;             ///< submit: requested nodes s_j.
  double estimate = 0.0;    ///< submit: user walltime estimate, seconds.
  /// submit, optional: actual runtime when the producer knows it (the
  /// simulator and loadgen do). Used only for trace metrics; negative means
  /// unknown and is traced as 0.
  double runtime = -1.0;
  /// submit, in-process only: the id trace lines and outcomes name the job
  /// by, when it differs from `job`. The simulator submits workload indices
  /// (the scheduler-facing ids that salt the tie-break coins) and traces
  /// workload job numbers. Absent on the wire: traces then name `job`.
  std::optional<std::uint64_t> trace_id;
  int node = -1;            ///< fail/repair.
  bool down = false;        ///< fail: node stays down until a repair event.
  /// fail, in-process only: how long the node stays down when the producer
  /// knows it up front (the simulator's node_downtime), for the trace and
  /// the predictor. 0 = unknown; the repair event still ends the down-time.
  double down_for = 0.0;
};

enum class DecisionKind { kStart, kKill, kMigrate };

const char* to_string(DecisionKind kind);

struct Decision {
  DecisionKind kind = DecisionKind::kStart;
  double time = 0.0;
  std::uint64_t job = 0;
  int entry = -1;       ///< start: chosen entry; kill: entry released.
  int from_entry = -1;  ///< migrate: previous entry (entry = destination).
  int node = -1;        ///< kill: the failed node that triggered it.
};

/// Stable rejection codes; to_string() values are protocol API.
enum class RejectCode {
  kParse,         ///< Line is not a valid flat JSON object.
  kUnknownType,   ///< "type" is not a protocol event.
  kBadField,      ///< Required field missing or of the wrong type.
  kBadValue,      ///< Field value out of domain (size < 1, estimate < 0...).
  kTimeOrder,     ///< Event time precedes the stream's current time.
  kDuplicateJob,  ///< submit with a job id already seen this session.
  kUnknownJob,    ///< complete for a job id never submitted.
  kNotRunning,    ///< complete for a job that is not running.
  kBadNode,       ///< fail/repair node id outside the machine.
  kNodeState,     ///< repair for a node that is not down.
  kNoPartition,   ///< submit size has no allocatable partition.
};

const char* to_string(RejectCode code);

/// Typed rejection of one event; the service guarantees its state is
/// unchanged when this is thrown.
class ProtocolError : public Error {
 public:
  ProtocolError(RejectCode code, std::size_t line, const std::string& what)
      : Error(what), code_(code), line_(line) {}

  RejectCode code() const { return code_; }
  /// 1-based input line (0 when the event did not come from a stream).
  std::size_t line() const { return line_; }

 private:
  RejectCode code_;
  std::size_t line_;
};

/// Decode one scanned line into an Event. Throws ProtocolError
/// (kUnknownType/kBadField/kBadValue) carrying the record's line number.
Event event_from(const obs::TraceRecord& record);

/// Append the canonical JSONL encoding (newline included) to `out`.
/// Doubles use shortest round-trip formatting (obs::append_json_double).
void append_event_line(std::string& out, const Event& event);
void append_decision_line(std::string& out, const Decision& decision);

/// {"type":"error","t":T,"line":L,"code":C,"message":M}\n  (message JSON-escaped).
void append_error_line(std::string& out, double t, const ProtocolError& error);

}  // namespace bgl::svc
