#include "obs/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "obs/reader.hpp"
#include "torus/catalog.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bgl::obs {

const char* to_string(ViolationCode code) {
  switch (code) {
    case ViolationCode::kFormat: return "format";
    case ViolationCode::kTimeOrder: return "time_order";
    case ViolationCode::kLifecycle: return "lifecycle";
    case ViolationCode::kDecisionPairing: return "decision_pairing";
    case ViolationCode::kEntryMismatch: return "entry_mismatch";
    case ViolationCode::kOverlap: return "overlap";
    case ViolationCode::kWaitMismatch: return "wait_mismatch";
    case ViolationCode::kResponseMismatch: return "response_mismatch";
    case ViolationCode::kSlowdownMismatch: return "slowdown_mismatch";
    case ViolationCode::kRestartMismatch: return "restart_mismatch";
    case ViolationCode::kWorkAccounting: return "work_accounting";
    case ViolationCode::kVictimsMismatch: return "victims_mismatch";
    case ViolationCode::kFieldMismatch: return "field_mismatch";
    case ViolationCode::kReservation: return "reservation";
    case ViolationCode::kSnapshotMismatch: return "snapshot_mismatch";
    case ViolationCode::kMetricsMismatch: return "metrics_mismatch";
    case ViolationCode::kPredictorMismatch: return "predictor_mismatch";
    case ViolationCode::kAggregateMismatch: return "aggregate_mismatch";
    case ViolationCode::kTruncated: return "truncated";
    case ViolationCode::kUnknownEvent: return "unknown_event";
  }
  return "?";
}

namespace {

// Traced doubles go through %.10g, so two independently derived copies of
// the same quantity agree to ~5e-10 relative; 1e-8 leaves a 20x margin
// while still catching any corruption a test (or bug) would introduce.
bool near(double a, double b, double scale = 0.0) {
  const double tol =
      1e-6 + 1e-8 * std::max({std::abs(a), std::abs(b), std::abs(scale)});
  return std::abs(a - b) <= tol;
}

std::string fmt(double v) { return format_double(v, 10); }

/// Rebuilding the catalog is O(nodes^2)-ish in memory; cap it so a hostile
/// or exotic trace cannot OOM the auditor. The paper machine is 128 nodes
/// and the complexity-study cubes stop at 16^3 = 4096.
constexpr int kMaxReconstructedNodes = 4096;

class Auditor {
 public:
  explicit Auditor(const AuditOptions& opts) : opts_(opts) {}

  AuditReport run(std::istream& in) {
    TraceReader reader(in);
    TraceRecord rec;
    for (;;) {
      bool more = false;
      try {
        more = reader.next(rec);
      } catch (const ParseError& e) {
        add(ViolationCode::kFormat, reader.lines_read(), -1, e.what());
        break;  // field offsets are unreliable past malformed JSON
      }
      if (!more) break;
      ++report_.events;

      if (report_.events == 1 && rec.type() != EventType::kSimBegin) {
        add(ViolationCode::kFormat, rec.line_number(), -1,
            "trace does not begin with sim_begin");
      }
      if (ended_) {
        add(ViolationCode::kFormat, rec.line_number(), -1,
            std::string("event after sim_end: ") + std::string(rec.type_name()));
      }
      if (have_t_ && rec.t() < last_t_ - 1e-9) {
        add(ViolationCode::kTimeOrder, rec.line_number(), -1,
            "t decreased: " + fmt(rec.t()) + " after " + fmt(last_t_));
      }
      last_t_ = std::max(last_t_, rec.t());
      have_t_ = true;

      // A sched_decision must be immediately followed by its job_start.
      if (pending_decision_ && rec.type() != EventType::kJobStart) {
        add(ViolationCode::kDecisionPairing, pending_line_,
            pending_decision_->job,
            "sched_decision not followed by a job_start");
        pending_decision_.reset();
      }
      // A node_failure's kill block is contiguous: only checkpoint/job_kill
      // events at the failure time may follow before the block closes.
      if (fail_open_ && (rec.t() > fail_t_ + 1e-9 ||
                         (rec.type() != EventType::kJobKill &&
                          rec.type() != EventType::kCheckpoint))) {
        close_failure();
      }
      // Migrations are applied two-phase (movers may rotate through one
      // another's old partitions), so disjointness only holds after the
      // whole batch; check it when the batch ends.
      if (mig_check_pending_ && rec.type() != EventType::kMigration) {
        flush_migration_check();
      }

      try {
        dispatch(rec);
      } catch (const ParseError& e) {
        add(ViolationCode::kFormat, rec.line_number(), -1, e.what());
      }
    }

    if (pending_decision_) {
      add(ViolationCode::kDecisionPairing, pending_line_, pending_decision_->job,
          "sched_decision not followed by a job_start (end of trace)");
    }
    close_failure();
    flush_migration_check();
    if (report_.events > 0 && !ended_) {
      add(ViolationCode::kTruncated, 0, -1, "trace ends without sim_end");
    }
    if (report_.events == 0) {
      add(ViolationCode::kTruncated, 0, -1, "trace is empty");
    }
    return std::move(report_);
  }

 private:
  struct JobAudit {
    enum class Phase { kWaiting, kRunning, kDone };
    Phase phase = Phase::kWaiting;
    double submit_t = 0.0;
    double last_start_t = 0.0;
    int size = 0;
    int alloc_size = 0;
    double estimate = 0.0;
    double runtime = 0.0;
    int entry = -1;
    int kills = 0;
    bool have_ckpt = false;  ///< A checkpoint event not yet consumed by a kill.
    double ckpt_t = 0.0;
    double ckpt_saved = 0.0;
  };

  void add(ViolationCode code, std::size_t line, std::int64_t job,
           std::string message) {
    if (report_.violations.size() >= opts_.max_violations) {
      ++report_.dropped_violations;
      return;
    }
    report_.violations.push_back(Violation{code, line, job, std::move(message)});
  }

  JobAudit* get(std::int64_t job, std::size_t line, const char* event) {
    const auto it = jobs_.find(job);
    if (it == jobs_.end()) {
      add(ViolationCode::kLifecycle, line, job,
          std::string(event) + " for a job that was never submitted");
      return nullptr;
    }
    return &it->second;
  }

  const NodeSet* entry_mask(int entry) const {
    if (catalog_ == nullptr || entry < 0 || entry >= catalog_->num_entries()) {
      return nullptr;
    }
    return &catalog_->entry(entry).mask;
  }

  /// Entry must exist in the catalog and have exactly the job's alloc size.
  void check_entry(int entry, const JobAudit& j, std::int64_t job,
                   std::size_t line, const char* event) {
    if (catalog_ == nullptr) return;
    if (entry < 0 || entry >= catalog_->num_entries()) {
      add(ViolationCode::kFieldMismatch, line, job,
          std::string(event) + " entry " + std::to_string(entry) +
              " outside catalog [0, " +
              std::to_string(catalog_->num_entries()) + ")");
      return;
    }
    const int esize = catalog_->entry(entry).size;
    if (esize != j.alloc_size) {
      add(ViolationCode::kFieldMismatch, line, job,
          std::string(event) + " entry " + std::to_string(entry) + " has size " +
              std::to_string(esize) + ", job alloc_size is " +
              std::to_string(j.alloc_size));
    }
  }

  /// Flag any overlap of `mask` with running jobs (except `self`) or with
  /// nodes that are strictly down at time t.
  void check_overlap(const NodeSet& mask, std::int64_t self, double t,
                     std::size_t line) {
    for (const std::int64_t other : running_) {
      if (other == self) continue;
      const JobAudit& o = jobs_.at(other);
      const NodeSet* om = entry_mask(o.entry);
      if (om != nullptr && mask.intersects(*om)) {
        add(ViolationCode::kOverlap, line, self,
            "partition overlaps running job " + std::to_string(other) +
                " (entry " + std::to_string(o.entry) + ")");
      }
    }
    const double eps = 1e-6 + 1e-9 * std::abs(t);
    for (const int n : mask.to_ids()) {
      if (down_until_[static_cast<std::size_t>(n)] > t + eps) {
        add(ViolationCode::kOverlap, line, self,
            "partition contains down node " + std::to_string(n));
      }
    }
  }

  void close_failure() {
    if (!fail_open_) return;
    fail_open_ = false;
    if (fail_remaining_ > 0) {
      add(ViolationCode::kVictimsMismatch, fail_line_, -1,
          "node_failure announced " + std::to_string(fail_victims_) +
              " victims but only " +
              std::to_string(fail_victims_ - fail_remaining_) +
              " job_kill events followed");
    }
  }

  void dispatch(const TraceRecord& rec) {
    const std::size_t line = rec.line_number();
    switch (rec.type()) {
      case EventType::kSimBegin: on_sim_begin(SimBeginEvent::from(rec), line); break;
      case EventType::kJobSubmit: on_submit(JobSubmitEvent::from(rec), line); break;
      case EventType::kPredictorQuery:
        on_query(PredictorQueryEvent::from(rec), line);
        break;
      case EventType::kSchedDecision:
        on_decision(SchedDecisionEvent::from(rec), line);
        break;
      case EventType::kJobStart: on_start(JobStartEvent::from(rec), line); break;
      case EventType::kMigration: on_migration(MigrationEvent::from(rec), line); break;
      case EventType::kNodeFailure:
        on_failure(NodeFailureEvent::from(rec), line);
        break;
      case EventType::kJobKill: on_kill(JobKillEvent::from(rec), line); break;
      case EventType::kCheckpoint: on_checkpoint(CheckpointEvent::from(rec), line); break;
      case EventType::kNodeRepair: on_repair(NodeRepairEvent::from(rec), line); break;
      case EventType::kJobFinish: on_finish(JobFinishEvent::from(rec), line); break;
      case EventType::kMachineState:
        on_snapshot(MachineStateEvent::from(rec), line);
        break;
      case EventType::kMetrics: on_metrics(MetricsEvent::from(rec), line); break;
      case EventType::kSimEnd: on_sim_end(SimEndEvent::from(rec), line); break;
      case EventType::kUnknown:
        ++report_.unknown_events;
        if (opts_.strict) {
          add(ViolationCode::kUnknownEvent, line, -1,
              "unknown event type '" + std::string(rec.type_name()) + "'");
        }
        break;
    }
  }

  /// True when the declared configuration provably runs the NullPredictor:
  /// predictor "none", or "paper" resolved under the krevat scheduler (its
  /// PaperRole is kNull — see predict/registry.hpp). Such a run must never
  /// flag a node anywhere in the stream.
  bool predictor_inert() const {
    return begin_ && (begin_->predictor == "none" ||
                      (begin_->predictor == "paper" &&
                       begin_->scheduler == "krevat"));
  }

  void on_sim_begin(const SimBeginEvent& e, std::size_t line) {
    if (begin_) {
      add(ViolationCode::kFormat, line, -1, "duplicate sim_begin");
      return;
    }
    begin_ = e;
    int x = 0, y = 0, z = 0;
    if (std::sscanf(e.machine.c_str(), "%dx%dx%d", &x, &y, &z) != 3 ||
        x <= 0 || y <= 0 || z <= 0) {
      add(ViolationCode::kFormat, line, -1,
          "unparsable machine dims '" + e.machine + "'");
      return;
    }
    const Dims dims{x, y, z};
    if (dims.volume() != e.nodes) {
      add(ViolationCode::kFormat, line, -1,
          "machine " + e.machine + " has " + std::to_string(dims.volume()) +
              " nodes, sim_begin says " + std::to_string(e.nodes));
    }
    Topology topo = Topology::kTorus;
    if (e.topology == "mesh") {
      topo = Topology::kMesh;
    } else if (e.topology != "torus") {
      add(ViolationCode::kFormat, line, -1,
          "unknown topology '" + e.topology + "'");
    }
    CatalogOptions copts;
    if (e.catalog == "blocks") {
      copts.mode = CatalogOptions::Mode::kBlocks;
      if (e.min_block > 0) copts.min_block = e.min_block;
    } else if (!e.catalog.empty() && e.catalog != "boxes") {
      add(ViolationCode::kFormat, line, -1,
          "unknown catalog mode '" + e.catalog + "'");
      return;
    }
    // The node cap guards the O(volume^2)-entry box enumeration only; a
    // block catalog is a few hundred entries at any machine size, so
    // full-scale traces remain fully auditable.
    if (copts.mode == CatalogOptions::Mode::kBoxes &&
        dims.volume() > kMaxReconstructedNodes) {
      if (opts_.strict) {
        add(ViolationCode::kFormat, line, -1,
            "machine too large to reconstruct (" +
                std::to_string(dims.volume()) + " nodes > " +
                std::to_string(kMaxReconstructedNodes) +
                "); overlap/snapshot checks disabled");
      }
      return;
    }
    try {
      catalog_ = std::make_unique<PartitionCatalog>(dims, topo, copts);
    } catch (const Error& err) {
      add(ViolationCode::kFormat, line, -1,
          std::string("cannot rebuild partition catalog: ") + err.what());
      return;
    }
    down_until_.assign(static_cast<std::size_t>(dims.volume()),
                       -std::numeric_limits<double>::infinity());
  }

  void on_submit(const JobSubmitEvent& e, std::size_t line) {
    if (jobs_.count(e.job) != 0) {
      add(ViolationCode::kLifecycle, line, e.job, "job submitted twice");
      return;
    }
    if (e.size <= 0 || e.alloc_size < e.size) {
      add(ViolationCode::kFieldMismatch, line, e.job,
          "bad sizes: size=" + std::to_string(e.size) +
              " alloc_size=" + std::to_string(e.alloc_size));
    }
    if (e.runtime < 0.0 || e.estimate < 0.0) {
      add(ViolationCode::kFieldMismatch, line, e.job,
          "negative runtime/estimate");
    }
    JobAudit j;
    j.submit_t = e.t;
    j.size = e.size;
    j.alloc_size = e.alloc_size;
    j.estimate = e.estimate;
    j.runtime = e.runtime;
    jobs_.emplace(e.job, j);
    ++report_.jobs;
    ++waiting_jobs_;
    ++w_submits_;
    waiting_nodes_ += e.size;
    min_submit_ = std::min(min_submit_, e.t);
    useful_work_ += static_cast<double>(e.size) * e.runtime;
  }

  void on_query(const PredictorQueryEvent& e, std::size_t line) {
    JobAudit* j = get(e.job, line, "predictor_query");
    if (j == nullptr) return;
    if (j->phase != JobAudit::Phase::kWaiting) {
      add(ViolationCode::kLifecycle, line, e.job,
          "predictor_query for a non-waiting job");
    }
    if (e.window_end < e.window_start) {
      add(ViolationCode::kFieldMismatch, line, e.job,
          "query window ends before it starts");
    }
    if (e.nodes_flagged < 0 ||
        (begin_ && e.nodes_flagged > begin_->nodes)) {
      add(ViolationCode::kFieldMismatch, line, e.job,
          "nodes_flagged out of range: " + std::to_string(e.nodes_flagged));
    }
    if (e.nodes_flagged > 0 && predictor_inert()) {
      add(ViolationCode::kPredictorMismatch, line, e.job,
          "predictor '" + begin_->predictor + "' under scheduler '" +
              begin_->scheduler + "' flagged " +
              std::to_string(e.nodes_flagged) + " nodes");
    }
  }

  void on_decision(const SchedDecisionEvent& e, std::size_t line) {
    JobAudit* j = get(e.job, line, "sched_decision");
    if (j != nullptr) {
      if (j->phase != JobAudit::Phase::kWaiting) {
        add(ViolationCode::kLifecycle, line, e.job,
            "sched_decision for a non-waiting job");
      }
      if (e.candidates < 1) {
        add(ViolationCode::kFieldMismatch, line, e.job,
            "decision with no candidates");
      }
      if (e.flags_in_chosen > 0 && predictor_inert()) {
        add(ViolationCode::kPredictorMismatch, line, e.job,
            "flags_in_chosen=" + std::to_string(e.flags_in_chosen) +
                " from an inert predictor pairing");
      }
      check_entry(e.entry, *j, e.job, line, "sched_decision");
    }
    check_reservation(e, j, line);
    pending_decision_ = e;
    pending_line_ = line;
  }

  /// Reservation provenance (docs/SCHEDULERS.md). When sim_begin declares a
  /// reservation-carrying algorithm, every backfill decision must stamp the
  /// binding reservation, and the admission rule must be re-derivable from
  /// the trace alone: the filler's estimated finish (t + submit estimate)
  /// precedes res_time, or its partition avoids the reserved one entirely.
  /// Conversely, the default (krevat) algorithm never emits these fields.
  void check_reservation(const SchedDecisionEvent& e, const JobAudit* j,
                         std::size_t line) {
    const bool res_algo =
        begin_ && !begin_->algorithm.empty() && begin_->algorithm != "krevat";
    const bool has_res = e.res_entry >= 0;
    if (!has_res) {
      if (res_algo && e.backfill) {
        add(ViolationCode::kReservation, line, e.job,
            "backfill decision without res_time/res_entry under algorithm '" +
                begin_->algorithm + "'");
      }
      return;
    }
    if (!e.backfill) {
      add(ViolationCode::kReservation, line, e.job,
          "reservation fields on a non-backfill decision");
      return;
    }
    if (begin_ && !res_algo) {
      add(ViolationCode::kReservation, line, e.job,
          "reservation fields from the default (krevat) algorithm");
      return;
    }
    if (catalog_ == nullptr) return;
    if (e.res_entry >= catalog_->num_entries()) {
      add(ViolationCode::kReservation, line, e.job,
          "res_entry " + std::to_string(e.res_entry) + " outside catalog [0, " +
              std::to_string(catalog_->num_entries()) + ")");
      return;
    }
    if (j == nullptr || e.entry < 0 || e.entry >= catalog_->num_entries()) {
      return;  // entry/lifecycle problems already reported above
    }
    const double est_finish = e.t + j->estimate;
    // The scheduler admits on est_finish <= res_time + 1e-9; both sides
    // round-trip through %.10g here, so compare with the trace tolerance.
    const bool in_time =
        est_finish <= e.res_time || near(est_finish, e.res_time, e.t);
    if (!in_time &&
        catalog_->entry(e.entry).intersects(catalog_->entry(e.res_entry))) {
      add(ViolationCode::kReservation, line, e.job,
          "filler finishing at t=" + fmt(est_finish) +
              " delays the reservation at t=" + fmt(e.res_time) +
              " on an intersecting partition");
    }
  }

  void on_start(const JobStartEvent& e, std::size_t line) {
    if (!pending_decision_) {
      add(ViolationCode::kDecisionPairing, line, e.job,
          "job_start without a preceding sched_decision");
    } else {
      const SchedDecisionEvent& d = *pending_decision_;
      if (d.job != e.job || d.t != e.t) {
        add(ViolationCode::kDecisionPairing, line, e.job,
            "job_start does not match the preceding sched_decision (job " +
                std::to_string(d.job) + " at t=" + fmt(d.t) + ")");
      } else if (d.entry != e.entry) {
        add(ViolationCode::kEntryMismatch, line, e.job,
            "sched_decision chose entry " + std::to_string(d.entry) +
                " but job_start committed entry " + std::to_string(e.entry));
      }
      pending_decision_.reset();
    }

    JobAudit* j = get(e.job, line, "job_start");
    if (j == nullptr) return;
    if (j->phase != JobAudit::Phase::kWaiting) {
      add(ViolationCode::kLifecycle, line, e.job,
          "job_start for a non-waiting job");
      return;  // state unreliable; skip the derived checks
    }
    if (!near(e.wait_so_far, e.t - j->submit_t, e.t)) {
      add(ViolationCode::kWaitMismatch, line, e.job,
          "wait_so_far=" + fmt(e.wait_so_far) + " but t-submit=" +
              fmt(e.t - j->submit_t));
    }
    if (e.restarts != j->kills) {
      add(ViolationCode::kRestartMismatch, line, e.job,
          "job_start restarts=" + std::to_string(e.restarts) + ", observed " +
              std::to_string(j->kills) + " kills");
    }
    if (e.alloc_size != j->alloc_size) {
      add(ViolationCode::kFieldMismatch, line, e.job,
          "alloc_size changed since submit");
    }
    check_entry(e.entry, *j, e.job, line, "job_start");
    const NodeSet* mask = entry_mask(e.entry);
    if (mask != nullptr) check_overlap(*mask, e.job, e.t, line);

    j->phase = JobAudit::Phase::kRunning;
    j->last_start_t = e.t;
    j->entry = e.entry;
    running_.push_back(e.job);
    --waiting_jobs_;
    ++w_starts_;
    waiting_nodes_ -= j->size;
  }

  void on_migration(const MigrationEvent& e, std::size_t line) {
    JobAudit* j = get(e.job, line, "migration");
    if (j == nullptr) return;
    if (j->phase != JobAudit::Phase::kRunning) {
      add(ViolationCode::kLifecycle, line, e.job,
          "migration of a non-running job");
      return;
    }
    if (e.from_entry != j->entry) {
      add(ViolationCode::kFieldMismatch, line, e.job,
          "migration from_entry=" + std::to_string(e.from_entry) +
              " but job is on entry " + std::to_string(j->entry));
    }
    check_entry(e.to_entry, *j, e.job, line, "migration");
    j->entry = e.to_entry;
    mig_check_pending_ = true;
    mig_t_ = e.t;
    mig_line_ = line;
    ++migrations_total_;
    ++w_migrations_;
  }

  /// After a migration batch, every running job must again sit on a
  /// partition disjoint from all others and from down nodes.
  void flush_migration_check() {
    if (!mig_check_pending_) return;
    mig_check_pending_ = false;
    if (catalog_ == nullptr) return;
    NodeSet acc(catalog_->num_nodes());
    for (const std::int64_t id : running_) {
      const NodeSet* m = entry_mask(jobs_.at(id).entry);
      if (m == nullptr) continue;
      if (acc.intersects(*m)) {
        add(ViolationCode::kOverlap, mig_line_, id,
            "running jobs on overlapping partitions after migration batch");
      }
      acc |= *m;
    }
    const double eps = 1e-6 + 1e-9 * std::abs(mig_t_);
    for (std::size_t n = 0; n < down_until_.size(); ++n) {
      if (down_until_[n] > mig_t_ + eps && acc.test(static_cast<int>(n))) {
        add(ViolationCode::kOverlap, mig_line_, -1,
            "running job occupies down node " + std::to_string(n) +
                " after migration batch");
      }
    }
  }

  void on_failure(const NodeFailureEvent& e, std::size_t line) {
    close_failure();
    if (begin_ && (e.node < 0 || e.node >= begin_->nodes)) {
      add(ViolationCode::kFieldMismatch, line, -1,
          "failed node " + std::to_string(e.node) + " out of range");
      return;
    }
    if (e.victims < 0 || e.down_for < 0.0) {
      add(ViolationCode::kFieldMismatch, line, -1,
          "negative victims/down_for");
    }
    if (catalog_ != nullptr) {
      int expected = 0;
      for (const std::int64_t id : running_) {
        const NodeSet* m = entry_mask(jobs_.at(id).entry);
        if (m != nullptr && m->test(e.node)) ++expected;
      }
      if (expected != e.victims) {
        add(ViolationCode::kVictimsMismatch, line, -1,
            "node_failure claims " + std::to_string(e.victims) +
                " victims; " + std::to_string(expected) +
                " running jobs hold node " + std::to_string(e.node));
      }
    }
    if (!down_until_.empty()) {
      auto& until = down_until_[static_cast<std::size_t>(e.node)];
      if (e.down_for > 0.0) until = std::max(until, e.t + e.down_for);
      // Down with no known duration: until the node_repair line.
      if (e.down) until = std::numeric_limits<double>::infinity();
    }
    fail_open_ = true;
    fail_node_ = e.node;
    fail_t_ = e.t;
    fail_victims_ = e.victims;
    fail_remaining_ = e.victims;
    fail_line_ = line;
  }

  void on_repair(const NodeRepairEvent& e, std::size_t line) {
    if (begin_ && (e.node < 0 || e.node >= begin_->nodes)) {
      add(ViolationCode::kFieldMismatch, line, -1,
          "repaired node " + std::to_string(e.node) + " out of range");
      return;
    }
    if (down_until_.empty()) return;
    auto& until = down_until_[static_cast<std::size_t>(e.node)];
    if (until != std::numeric_limits<double>::infinity()) {
      add(ViolationCode::kFieldMismatch, line, -1,
          "node_repair for node " + std::to_string(e.node) +
              ", which no down node_failure holds down");
    }
    until = e.t;
  }

  void on_checkpoint(const CheckpointEvent& e, std::size_t line) {
    JobAudit* j = get(e.job, line, "checkpoint");
    if (j == nullptr) return;
    if (j->phase != JobAudit::Phase::kRunning) {
      add(ViolationCode::kLifecycle, line, e.job,
          "checkpoint for a non-running job");
    }
    if (e.count < 1) {
      add(ViolationCode::kFieldMismatch, line, e.job, "checkpoint count < 1");
    }
    if (e.work_saved < -1e-9) {
      add(ViolationCode::kWorkAccounting, line, e.job,
          "negative work_saved");
    }
    j->have_ckpt = true;
    j->ckpt_t = e.t;
    j->ckpt_saved = e.work_saved;
    checkpoints_total_ += e.count;
  }

  void on_kill(const JobKillEvent& e, std::size_t line) {
    // Victim bookkeeping first: a kill is only legal inside a failure block.
    if (!fail_open_) {
      add(ViolationCode::kVictimsMismatch, line, e.job,
          "job_kill without a preceding node_failure");
    } else {
      --fail_remaining_;
      if (fail_remaining_ < 0) {
        add(ViolationCode::kVictimsMismatch, line, e.job,
            "more job_kill events than node_failure victims");
      }
      const NodeSet* m = entry_mask(e.entry);
      if (m != nullptr && !m->test(fail_node_)) {
        add(ViolationCode::kVictimsMismatch, line, e.job,
            "killed job's partition does not contain failed node " +
                std::to_string(fail_node_));
      }
    }

    JobAudit* j = get(e.job, line, "job_kill");
    if (j == nullptr) return;
    if (j->phase != JobAudit::Phase::kRunning) {
      add(ViolationCode::kLifecycle, line, e.job,
          "job_kill for a non-running job");
      return;
    }
    if (e.entry != j->entry) {
      add(ViolationCode::kFieldMismatch, line, e.job,
          "job_kill entry=" + std::to_string(e.entry) + " but job is on entry " +
              std::to_string(j->entry));
    }
    if (!near(e.elapsed, e.t - j->last_start_t, e.t)) {
      add(ViolationCode::kFieldMismatch, line, e.job,
          "elapsed=" + fmt(e.elapsed) + " but t-last_start=" +
              fmt(e.t - j->last_start_t));
    }
    const double cap =
        e.elapsed * static_cast<double>(j->size);  // node-seconds ceiling
    if (e.work_lost < -1e-9 || e.work_saved < -1e-9 ||
        e.work_lost + e.work_saved > cap + 1e-6 + 1e-8 * cap) {
      add(ViolationCode::kWorkAccounting, line, e.job,
          "work_lost=" + fmt(e.work_lost) + " + work_saved=" +
              fmt(e.work_saved) + " exceeds elapsed*size=" + fmt(cap));
    }
    if (e.work_saved > 1e-9) {
      if (!j->have_ckpt || j->ckpt_t != e.t ||
          !near(j->ckpt_saved, e.work_saved, cap)) {
        add(ViolationCode::kWorkAccounting, line, e.job,
            "work_saved=" + fmt(e.work_saved) +
                " not backed by a matching checkpoint event");
      }
    }
    if (e.restarts != j->kills + 1) {
      add(ViolationCode::kRestartMismatch, line, e.job,
          "job_kill restarts=" + std::to_string(e.restarts) + ", expected " +
              std::to_string(j->kills + 1));
    }

    ++j->kills;
    j->have_ckpt = false;
    j->phase = JobAudit::Phase::kWaiting;
    j->entry = -1;
    running_.erase(std::find(running_.begin(), running_.end(), e.job));
    ++waiting_jobs_;
    waiting_nodes_ += j->size;
    ++kills_total_;
    ++w_kills_;
    work_lost_total_ += e.work_lost;
  }

  void on_finish(const JobFinishEvent& e, std::size_t line) {
    JobAudit* j = get(e.job, line, "job_finish");
    if (j == nullptr) return;
    if (j->phase != JobAudit::Phase::kRunning) {
      add(ViolationCode::kLifecycle, line, e.job,
          "job_finish for a non-running job");
      return;
    }
    if (e.entry != j->entry) {
      add(ViolationCode::kFieldMismatch, line, e.job,
          "job_finish entry=" + std::to_string(e.entry) +
              " but job is on entry " + std::to_string(j->entry));
    }
    if (!near(e.wait, j->last_start_t - j->submit_t, e.t)) {
      add(ViolationCode::kWaitMismatch, line, e.job,
          "wait=" + fmt(e.wait) + " but last_start-submit=" +
              fmt(j->last_start_t - j->submit_t));
    }
    if (!near(e.response, e.t - j->submit_t, e.t)) {
      add(ViolationCode::kResponseMismatch, line, e.job,
          "response=" + fmt(e.response) + " but finish-submit=" +
              fmt(e.t - j->submit_t));
    }
    const double expected_sd = std::max(e.response, opts_.gamma) /
                               std::max(j->runtime, opts_.gamma);
    if (!near(e.bounded_slowdown, expected_sd, expected_sd)) {
      add(ViolationCode::kSlowdownMismatch, line, e.job,
          "bounded_slowdown=" + fmt(e.bounded_slowdown) +
              " but max(response,g)/max(runtime,g)=" + fmt(expected_sd));
    }
    if (e.restarts != j->kills) {
      add(ViolationCode::kRestartMismatch, line, e.job,
          "job_finish restarts=" + std::to_string(e.restarts) +
              ", observed " + std::to_string(j->kills) + " kills");
    }

    j->phase = JobAudit::Phase::kDone;
    running_.erase(std::find(running_.begin(), running_.end(), e.job));
    ++finished_;
    ++w_finishes_;
    wait_sum_ += e.wait;
    response_sum_ += e.response;
    slowdown_sum_ += e.bounded_slowdown;
    max_finish_ = std::max(max_finish_, e.t);
  }

  void on_snapshot(const MachineStateEvent& e, std::size_t line) {
    if (e.queue_depth != waiting_jobs_ || e.queued_nodes != waiting_nodes_) {
      add(ViolationCode::kSnapshotMismatch, line, -1,
          "queue_depth=" + std::to_string(e.queue_depth) + "/queued_nodes=" +
              std::to_string(e.queued_nodes) + " but reconstruction has " +
              std::to_string(waiting_jobs_) + "/" +
              std::to_string(waiting_nodes_));
    }
    if (e.running_jobs != static_cast<int>(running_.size())) {
      add(ViolationCode::kSnapshotMismatch, line, -1,
          "running_jobs=" + std::to_string(e.running_jobs) +
              " but reconstruction has " + std::to_string(running_.size()));
    }
    if (begin_ && (e.flagged_nodes < 0 || e.flagged_nodes > begin_->nodes)) {
      add(ViolationCode::kSnapshotMismatch, line, -1,
          "flagged_nodes out of range");
    }
    const double expected_frag =
        e.free_nodes > 0
            ? 1.0 - static_cast<double>(e.mfp) / static_cast<double>(e.free_nodes)
            : 0.0;
    if (!near(e.frag, expected_frag)) {
      add(ViolationCode::kSnapshotMismatch, line, -1,
          "frag=" + fmt(e.frag) + " but 1-mfp/free=" + fmt(expected_frag));
    }
    if (catalog_ == nullptr) return;

    NodeSet occ(catalog_->num_nodes());
    for (const std::int64_t id : running_) {
      const NodeSet* m = entry_mask(jobs_.at(id).entry);
      if (m != nullptr) occ |= *m;
    }
    // A snapshot can land exactly on a down-node expiry; the driver may
    // emit it on either side of the expiry event, so accept both readings.
    const double eps = 1e-6 + 1e-9 * std::abs(e.t);
    bool matched = false;
    std::string got;
    for (const double boundary : {e.t + eps, e.t - eps}) {
      NodeSet blocked = occ;
      int down = 0;
      for (std::size_t n = 0; n < down_until_.size(); ++n) {
        if (down_until_[n] > boundary) {
          blocked.set(static_cast<int>(n));
          ++down;
        }
      }
      const int free = catalog_->num_nodes() - blocked.count();
      const int mfp = catalog_->mfp(blocked);
      if (e.free_nodes == free && e.down_nodes == down && e.mfp == mfp) {
        matched = true;
        break;
      }
      if (!got.empty()) got += " | ";
      got += "free=" + std::to_string(free) + " down=" + std::to_string(down) +
             " mfp=" + std::to_string(mfp);
    }
    if (!matched) {
      add(ViolationCode::kSnapshotMismatch, line, -1,
          "free_nodes=" + std::to_string(e.free_nodes) + " down_nodes=" +
              std::to_string(e.down_nodes) + " mfp=" + std::to_string(e.mfp) +
              " but reconstruction has " + got);
    }
  }

  /// `metrics` events carry the same reconstructible gauges as machine_state
  /// (queue/running/busy/down) plus windowed rates; everything except the
  /// wall-clock decision_us_* quantiles is re-derived from the event stream.
  void on_metrics(const MetricsEvent& e, std::size_t line) {
    auto mm = [&](bool ok, const std::string& what) {
      if (!ok) add(ViolationCode::kMetricsMismatch, line, -1, what);
    };
    mm(e.queue_depth == waiting_jobs_ && e.queued_nodes == waiting_nodes_,
       "queue_depth=" + std::to_string(e.queue_depth) + "/queued_nodes=" +
           std::to_string(e.queued_nodes) + " but reconstruction has " +
           std::to_string(waiting_jobs_) + "/" + std::to_string(waiting_nodes_));
    mm(e.running_jobs == static_cast<int>(running_.size()),
       "running_jobs=" + std::to_string(e.running_jobs) +
           " but reconstruction has " + std::to_string(running_.size()));

    // Window deltas: the emitters count events with the same emit-before-
    // the-event discipline the stream itself is written in, so stream-order
    // counting matches exactly.
    mm(e.submits == w_submits_ && e.starts == w_starts_ &&
           e.finishes == w_finishes_ && e.kills == w_kills_ &&
           e.migrations == w_migrations_,
       "window deltas submits/starts/finishes/kills/migrations=" +
           std::to_string(e.submits) + "/" + std::to_string(e.starts) + "/" +
           std::to_string(e.finishes) + "/" + std::to_string(e.kills) + "/" +
           std::to_string(e.migrations) + " but stream has " +
           std::to_string(w_submits_) + "/" + std::to_string(w_starts_) + "/" +
           std::to_string(w_finishes_) + "/" + std::to_string(w_kills_) + "/" +
           std::to_string(w_migrations_));

    if (last_metrics_t_) {
      mm(near(e.interval, e.t - *last_metrics_t_, e.t),
         "interval=" + fmt(e.interval) + " but previous metrics event was at " +
             fmt(*last_metrics_t_));
    } else {
      mm(e.interval > 0.0, "first metrics event has interval <= 0");
    }
    if (e.interval > 0.0) {
      mm(near(e.finished_per_hour,
              static_cast<double>(e.finishes) * 3600.0 / e.interval,
              e.finished_per_hour),
         "finished_per_hour=" + fmt(e.finished_per_hour) + ", recomputed " +
             fmt(static_cast<double>(e.finishes) * 3600.0 / e.interval));
    }

    if (begin_) {
      mm(e.busy_nodes >= 0 && e.busy_nodes <= begin_->nodes,
         "busy_nodes out of range");
      const double expected_util =
          static_cast<double>(e.busy_nodes) / static_cast<double>(begin_->nodes);
      mm(near(e.utilization, expected_util),
         "utilization=" + fmt(e.utilization) + " but busy/nodes=" +
             fmt(expected_util));
    }
    if (catalog_ != nullptr) {
      NodeSet occ(catalog_->num_nodes());
      for (const std::int64_t id : running_) {
        const NodeSet* m = entry_mask(jobs_.at(id).entry);
        if (m != nullptr) occ |= *m;
      }
      mm(e.busy_nodes == occ.count(),
         "busy_nodes=" + std::to_string(e.busy_nodes) +
             " but running partitions cover " + std::to_string(occ.count()));
      // Same two-sided boundary reading as machine_state: the snapshot may
      // land exactly on a down-node expiry.
      const double eps = 1e-6 + 1e-9 * std::abs(e.t);
      bool down_ok = false;
      for (const double boundary : {e.t + eps, e.t - eps}) {
        int down = 0;
        for (const double until : down_until_) {
          if (until > boundary) ++down;
        }
        if (e.down_nodes == down) {
          down_ok = true;
          break;
        }
      }
      mm(down_ok, "down_nodes=" + std::to_string(e.down_nodes) +
                      " does not match the down-overlay reconstruction");
    }

    // Decision-latency fields are wall-clock (not reconstructable); enforce
    // internal consistency only.
    mm(e.decisions >= 0, "decisions < 0");
    if (e.decisions == 0) {
      mm(e.starts == 0 && e.migrations == 0,
         "starts/migrations in a window with zero scheduler passes");
      mm(e.decision_us_p50 == 0.0 && e.decision_us_p99 == 0.0 &&
             e.decision_us_max == 0.0,
         "decision_us quantiles nonzero with zero passes");
    } else {
      mm(e.decision_us_p50 >= 0.0 &&
             e.decision_us_p50 <= e.decision_us_p99 + 1e-9 &&
             e.decision_us_p99 <= e.decision_us_max + 1e-9,
         "decision_us quantiles not ordered: p50=" + fmt(e.decision_us_p50) +
             " p99=" + fmt(e.decision_us_p99) + " max=" +
             fmt(e.decision_us_max));
    }

    // Forecast-quality fields score predictor-internal state (the flagged
    // set captured at the window's start), so like the latency quantiles
    // they are not reconstructable — range-check them instead: each count
    // is a node subset of the machine.
    if (e.pred_tp < 0 || e.pred_fp < 0 || e.pred_fn < 0 ||
        (begin_ && (e.pred_tp + e.pred_fp > begin_->nodes ||
                    e.pred_tp + e.pred_fn > begin_->nodes))) {
      add(ViolationCode::kMetricsMismatch, line, -1,
          "pred_tp/pred_fp/pred_fn out of range: " +
              std::to_string(e.pred_tp) + "/" + std::to_string(e.pred_fp) +
              "/" + std::to_string(e.pred_fn));
    }
    if ((e.pred_tp > 0 || e.pred_fp > 0) && predictor_inert()) {
      add(ViolationCode::kPredictorMismatch, line, -1,
          "forecast scored flagged nodes (pred_tp=" +
              std::to_string(e.pred_tp) + ", pred_fp=" +
              std::to_string(e.pred_fp) + ") from an inert predictor pairing");
    }

    last_metrics_t_ = e.t;
    w_submits_ = w_starts_ = w_finishes_ = w_kills_ = w_migrations_ = 0;
  }

  void on_sim_end(const SimEndEvent& e, std::size_t line) {
    ended_ = true;
    for (const auto& [id, j] : jobs_) {
      if (j.phase != JobAudit::Phase::kDone) {
        add(ViolationCode::kLifecycle, line, id, "job unfinished at sim_end");
      }
    }
    auto agg = [&](bool ok, const std::string& what) {
      if (!ok) add(ViolationCode::kAggregateMismatch, line, -1, what);
    };
    agg(e.jobs_completed == finished_,
        "jobs_completed=" + std::to_string(e.jobs_completed) + ", counted " +
            std::to_string(finished_));
    if (finished_ > 0) {
      agg(near(e.t, max_finish_, e.t),
          "sim_end t=" + fmt(e.t) + " but last job_finish at " + fmt(max_finish_));
      const double n = static_cast<double>(finished_);
      agg(near(e.avg_wait, wait_sum_ / n, e.avg_wait),
          "avg_wait=" + fmt(e.avg_wait) + ", recomputed " + fmt(wait_sum_ / n));
      agg(near(e.avg_response, response_sum_ / n, e.avg_response),
          "avg_response=" + fmt(e.avg_response) + ", recomputed " +
              fmt(response_sum_ / n));
      agg(near(e.avg_bounded_slowdown, slowdown_sum_ / n, e.avg_bounded_slowdown),
          "avg_bounded_slowdown=" + fmt(e.avg_bounded_slowdown) +
              ", recomputed " + fmt(slowdown_sum_ / n));
    }
    if (report_.jobs > 0) {
      agg(near(e.span, e.t - min_submit_, e.t),
          "span=" + fmt(e.span) + ", recomputed " + fmt(e.t - min_submit_));
    }
    if (begin_ && e.span > 0.0) {
      const double tn = e.span * static_cast<double>(begin_->nodes);
      agg(near(e.utilization, useful_work_ / tn, 1.0),
          "utilization=" + fmt(e.utilization) + ", recomputed " +
              fmt(useful_work_ / tn));
      agg(near(e.lost, 1.0 - e.utilization - e.unused, 1.0),
          "lost=" + fmt(e.lost) + " but 1-utilization-unused=" +
              fmt(1.0 - e.utilization - e.unused));
    }
    agg(e.job_kills == kills_total_,
        "job_kills=" + std::to_string(e.job_kills) + ", counted " +
            std::to_string(kills_total_));
    agg(e.migrations == migrations_total_,
        "migrations=" + std::to_string(e.migrations) + ", counted " +
            std::to_string(migrations_total_));
    agg(e.checkpoints == checkpoints_total_,
        "checkpoints=" + std::to_string(e.checkpoints) + ", counted " +
            std::to_string(checkpoints_total_));
    agg(near(e.work_lost_node_seconds, work_lost_total_,
             e.work_lost_node_seconds),
        "work_lost_node_seconds=" + fmt(e.work_lost_node_seconds) +
            ", recomputed " + fmt(work_lost_total_));
  }

  AuditOptions opts_;
  AuditReport report_;

  std::optional<SimBeginEvent> begin_;
  std::unique_ptr<PartitionCatalog> catalog_;
  std::vector<double> down_until_;

  std::unordered_map<std::int64_t, JobAudit> jobs_;
  std::vector<std::int64_t> running_;
  int waiting_jobs_ = 0;
  int waiting_nodes_ = 0;

  std::optional<SchedDecisionEvent> pending_decision_;
  std::size_t pending_line_ = 0;

  bool mig_check_pending_ = false;
  double mig_t_ = 0.0;
  std::size_t mig_line_ = 0;

  bool fail_open_ = false;
  int fail_node_ = -1;
  double fail_t_ = 0.0;
  int fail_victims_ = 0;
  int fail_remaining_ = 0;
  std::size_t fail_line_ = 0;

  bool ended_ = false;
  bool have_t_ = false;
  double last_t_ = 0.0;

  // Windowed event counts since the last `metrics` event (reset there).
  std::int64_t w_submits_ = 0;
  std::int64_t w_starts_ = 0;
  std::int64_t w_finishes_ = 0;
  std::int64_t w_kills_ = 0;
  std::int64_t w_migrations_ = 0;
  std::optional<double> last_metrics_t_;

  std::int64_t finished_ = 0;
  std::int64_t kills_total_ = 0;
  std::int64_t migrations_total_ = 0;
  std::int64_t checkpoints_total_ = 0;
  double work_lost_total_ = 0.0;
  double wait_sum_ = 0.0;
  double response_sum_ = 0.0;
  double slowdown_sum_ = 0.0;
  double min_submit_ = std::numeric_limits<double>::infinity();
  double max_finish_ = -std::numeric_limits<double>::infinity();
  double useful_work_ = 0.0;
};

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

AuditReport audit_trace(std::istream& in, const AuditOptions& options) {
  return Auditor(options).run(in);
}

void AuditReport::write_json(std::ostream& out) const {
  out << "{\"ok\":" << (ok() ? "true" : "false") << ",\"events\":" << events
      << ",\"jobs\":" << jobs << ",\"unknown_events\":" << unknown_events
      << ",\"dropped_violations\":" << dropped_violations << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i > 0) out << ',';
    out << "{\"code\":\"" << to_string(v.code) << "\",\"line\":" << v.line
        << ",\"job\":" << v.job << ",\"message\":";
    write_json_string(out, v.message);
    out << '}';
  }
  out << "]}\n";
}

}  // namespace bgl::obs
