// SchedulerService: the scheduler core split from the simulation clock.
//
// The service owns everything a scheduling decision depends on — the
// Scheduler engine and its predictor, the PartitionCatalog, the machine's
// one FreePartitionIndex, the waiting queue and the running set (each pass
// reads the queue and commits into the index and the running set in
// place), the job-owned and down node sets — and everything
// that describes decisions: kill and checkpoint accounting, the capacity
// integral, the run aggregates, and the trace lines of the JSONL schema.
// It owns no clock and no pending-event set. Time only
// advances when an Event arrives; each event is validated, applied, and
// answered with zero or more Decisions (start/kill/migrate). That inversion
// lets one core be driven by:
//
//   * the discrete-event simulator (sim/driver.hpp's run_simulation), whose
//     loop owns the clock: event queue, finish times, down-time timers and
//     per-job outcomes;
//   * a live JSONL stream over stdin or a Unix socket (svc/server.hpp,
//     tools/sched_server);
//   * tests and load generators (tools/loadgen).
//
// Events the service refuses (unknown job, duplicate id, time running
// backwards, ...) raise ProtocolError and leave the state untouched; a
// remote client's bad line must not kill the server. A failed internal
// check (ContractViolation) may leave the index half-applied; it is never
// rolled back because it ends the session (svc/server.cpp catches only
// ParseError and ProtocolError).
//
// Configuration: svc::ServiceConfig, declared in svc/config.hpp; the
// simulator's SimConfig extends it and is passed in as is.
//
// Tracing: with ServiceConfig::obs.trace attached the service emits the
// standard JSONL schema (sim_begin at begin() or lazily at the first event,
// job_submit / sched_decision / job_start / migration / node_failure /
// checkpoint / job_kill / node_repair / job_finish, and sim_end from
// finish_stream()), auditable by tools/trace_audit --strict.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "failure/trace.hpp"
#include "obs/observer.hpp"
#include "sched/types.hpp"
#include "sim/metrics.hpp"
#include "svc/config.hpp"
#include "svc/protocol.hpp"
#include "torus/catalog.hpp"
#include "torus/index.hpp"
#include "util/stats.hpp"

namespace bgl {
class Scheduler;
class FaultPredictor;
}  // namespace bgl

namespace bgl::obs {
class LatencyRing;
}  // namespace bgl::obs

namespace bgl::svc {

/// What a producer knows about its stream up front, for sim_begin. A live
/// stream knows nothing: its sim_begin says jobs=0, failure_events=0.
struct StreamCensus {
  std::size_t jobs = 0;
  std::size_t failure_events = 0;
};

/// Aggregates the service accumulates across a session (the server's stats
/// line, and with the capacity integral the run's SimResult and sim_end).
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t finished = 0;
  std::size_t starts = 0;
  std::size_t kills = 0;
  std::size_t avoidable_kills = 0;
  std::size_t migrations = 0;
  std::size_t failures = 0;
  std::size_t failures_hitting_jobs = 0;
  std::size_t starts_on_flagged = 0;
  std::size_t flagged_with_alternative = 0;
  std::size_t checkpoints = 0;
  double work_lost_node_seconds = 0.0;
  RunningStats wait;
  RunningStats response;
  RunningStats slowdown;
};

class SchedulerService {
 public:
  /// `oracle` (nullable, borrowed) feeds the paper's simulated predictors;
  /// required iff the configured predictor model consults one (throws the
  /// typed OracleRequiredError — naming the model — otherwise; kHistory
  /// and kNone need no oracle). `shared_catalog` (nullable, borrowed) skips
  /// catalog construction, exactly like run_simulation's parameter.
  explicit SchedulerService(const ServiceConfig& config,
                            const FailureTrace* oracle = nullptr,
                            const PartitionCatalog* shared_catalog = nullptr);
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Apply one event; decisions are appended to `out` in application order
  /// (kills of the fail event first, then migrations, then starts). Throws
  /// ProtocolError — with the service state unchanged — on an event it
  /// refuses. `line` tags the error with the input line for the session
  /// loop; pass 0 from library callers.
  void handle(const Event& event, std::vector<Decision>& out,
              std::size_t line = 0);

  // --- hooks for a producer that owns the clock (the simulator) ---

  /// Open the stream at time `t` (no later than its first event): sim_begin
  /// with the census, and the cadence anchors. Without it, the first
  /// accepted event opens the stream with an empty census.
  void begin(double t, const StreamCensus& census);
  /// Time reached `t` on an event the service never sees (a superseded
  /// finish or down-time timer): advance the capacity integral and the
  /// predictor, and emit the machine_state / metrics lines now due.
  void advance(double t);

  /// End of stream: emit the sim_end trace event iff tracing is on, at
  /// least one job was submitted, and no job is still waiting or running.
  /// Returns true when sim_end was written (or already had been).
  bool finish_stream();

  // --- views ---
  double now() const { return now_; }
  /// Nodes neither occupied nor down (the capacity integrator's f(t)).
  int usable_free_nodes() const;
  std::size_t waiting_jobs() const { return queue_.size(); }
  std::size_t running_jobs() const { return running_.size(); }
  bool node_down(int node) const { return down_.test(node); }
  const ServiceStats& stats() const { return stats_; }
  /// Work job `job` has left: its runtime, less what its checkpoints saved
  /// before kills, plus restart overheads. A start decision's job runs for
  /// walltime_for_work(remaining_work(job), ckpt).
  double remaining_work(std::uint64_t job) const;
  /// Outcome of the job the last accepted complete event finished (id = the
  /// job's trace id).
  const JobOutcome& last_finished() const { return last_finished_; }
  /// The session's aggregates as a SimResult (no outcomes): the numbers
  /// sim_end reports.
  SimResult result() const;

 private:
  enum class Phase { kWaiting, kRunning, kDone };

  struct JobRec {
    std::uint64_t id = 0;        ///< Scheduler-facing id (the protocol's).
    std::uint64_t trace_id = 0;  ///< Id in trace lines and outcomes.
    int size = 1;
    int alloc_size = 1;
    double arrival = 0.0;
    double estimate = 0.0;
    double runtime = -1.0;  ///< As submitted; < 0 when unknown.
    double remaining_work = 0.0;
    double first_start = -1.0;
    double last_start = -1.0;
    int restarts = 0;
    int entry = -1;
    Phase phase = Phase::kWaiting;
  };

  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};

  /// Job records by slot, in submit order. Chunks never move, so a growing
  /// session never holds two copies of the table, as a regrown vector would.
  class JobTable {
   public:
    std::size_t size() const { return size_; }
    JobRec& operator[](Slot s) { return chunks_[s >> kShift][s & kMask]; }
    const JobRec& operator[](Slot s) const { return chunks_[s >> kShift][s & kMask]; }
    void push_back(const JobRec& rec) {
      if ((size_ & kMask) == 0) chunks_.push_back(std::make_unique<JobRec[]>(kMask + 1));
      (*this)[static_cast<Slot>(size_++)] = rec;
    }

   private:
    static constexpr int kShift = 9;
    static constexpr Slot kMask = (Slot{1} << kShift) - 1;
    std::vector<std::unique_ptr<JobRec[]>> chunks_;
    std::size_t size_ = 0;
  };

  void build_scheduler(const FailureTrace* oracle);
  void ensure_begin(double t);
  void advance_to(double t);
  /// Slot of job `id`, kNoSlot if it was never submitted. Producers that
  /// number jobs in submit order (the simulator, loadgen) hit their own
  /// slot without a hash lookup; only other ids go through slot_index_.
  Slot find_slot(std::uint64_t id) const {
    if (id < jobs_.size() && jobs_[static_cast<Slot>(id)].id == id) {
      return static_cast<Slot>(id);
    }
    const auto it = slot_index_.find(id);
    return it == slot_index_.end() ? kNoSlot : it->second;
  }
  void enqueue(Slot slot);
  void run_pass(double now, std::vector<Decision>& out);
  void kill_job(Slot slot, double now, int node, std::vector<Decision>& out);
  void account_checkpoints(const JobRec& job, double now, std::size_t taken,
                           double saved);
  void release_allocation(Slot slot);
  /// index_ holds exactly busy_ ∪ down_ (checked once per pass).
  bool index_in_sync() const;

  void on_submit(const Event& e, std::vector<Decision>& out, std::size_t line);
  void on_complete(const Event& e, std::vector<Decision>& out, std::size_t line);
  void on_fail(const Event& e, std::vector<Decision>& out);
  void on_repair(const Event& e, std::vector<Decision>& out, std::size_t line);

  /// Emit machine_state / metrics events for every cadence boundary ≤
  /// `horizon`, in time order (machine_state first on ties).
  void emit_snapshots_until(double horizon);
  void emit_machine_state(double t);
  void emit_metrics(double t);

  const ServiceConfig config_;
  std::unique_ptr<PartitionCatalog> owned_catalog_;
  const PartitionCatalog* catalog_;
  std::unique_ptr<FaultPredictor> predictor_;
  std::unique_ptr<Scheduler> scheduler_;
  /// The machine's free-partition state: job-owned and down nodes. Passes
  /// commit their starts and compactions into it; the service applies the
  /// remaining deltas (releases, down and repaired nodes).
  FreePartitionIndex index_;

  JobTable jobs_;
  /// Slot of every job whose id is not its own slot number.
  std::unordered_map<std::uint64_t, Slot> slot_index_;
  /// Waiting jobs in priority order (estimate or size first when the queue
  /// order says so, then arrival, read from the job table, then id). A pass
  /// reads its first kQueueViewCap entries in place.
  std::vector<WaitingJob> queue_;
  /// Running jobs, unordered: the pass commits its starts and compactions
  /// into it in place; kills and completions release from it by id.
  std::vector<RunningJob> running_;

  /// Nodes owned by running jobs: the union of their partitions.
  NodeSet busy_;
  NodeSet down_;
  int down_count_ = 0;  ///< |down_|: spares a full-width scan per pass.
  /// Down nodes whose failure announced no duration: they trace the
  /// node_failure "down" flag and, when repaired, a node_repair line.
  NodeSet down_untimed_;
  double now_ = 0.0;
  bool any_event_ = false;

  // Capacity integral (§6.1): starts at the first submit, advances before
  // each event's mutations; f(t) and q(t) are updated where they change.
  CapacityIntegrator integrator_;
  bool integrator_started_ = false;
  double min_submit_ = 0.0;
  double max_finish_ = 0.0;
  double useful_work_ = 0.0;
  ServiceStats stats_;
  JobOutcome last_finished_;

  obs::TraceSink* tr_;
  obs::HistogramRegistry* hg_;
  obs::CounterRegistry* ct_;
  StreamCensus census_;
  bool begin_emitted_ = false;
  bool end_emitted_ = false;
  bool cadences_anchored_ = false;

  // Periodic-emission state: cadence cursors (0 = off / not yet anchored),
  // the metrics window's event counts — incremented exactly where the
  // matching trace lines are written, so the auditor's stream-order
  // reconstruction matches — and the wall-clock latency of every scheduler
  // pass in the window.
  double next_snapshot_ = 0.0;
  double next_metrics_ = 0.0;
  double last_metrics_t_ = 0.0;
  std::int64_t m_submits_ = 0;
  std::int64_t m_starts_ = 0;
  std::int64_t m_finishes_ = 0;
  std::int64_t m_kills_ = 0;
  std::int64_t m_migrations_ = 0;
  std::int64_t m_decisions_ = 0;
  std::unique_ptr<obs::LatencyRing> decision_ring_;  ///< Null = metrics off.

  // Rolling forecast scorer (same cadence as `metrics`): at each boundary
  // the previous window's forecast — the flagged set captured at the
  // window's start — is scored against the nodes that actually failed
  // inside it, at node-window granularity. Feeds the pred_tp/pred_fp/
  // pred_fn metrics fields and the cumulative pred.* counters (from which
  // write_json / prometheus_render derive realized precision/recall).
  // Armed when metrics_interval > 0 and a trace sink or counter registry is
  // attached.
  bool pred_armed_ = false;
  NodeSet pred_flagged_;
  NodeSet pred_failed_;
};

}  // namespace bgl::svc
