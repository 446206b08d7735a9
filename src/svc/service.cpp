#include "svc/service.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"
#include "predict/predictor.hpp"
#include "predict/registry.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"

namespace bgl::svc {

namespace {

/// Queue jobs the scheduler actually needs to see: it can start at most
/// num_nodes jobs per pass plus examine backfill_depth fillers. A pass reads
/// this prefix of the queue in place; passes whose queue is longer count in
/// sched.queue_view_capped.
constexpr std::size_t kQueueViewCap = 512;

}  // namespace

SchedulerService::SchedulerService(const ServiceConfig& config,
                                   const FailureTrace* oracle,
                                   const PartitionCatalog* shared_catalog)
    : config_(config),
      owned_catalog_(shared_catalog
                         ? nullptr
                         : new PartitionCatalog(config.dims, config.topology,
                                                config.catalog)),
      catalog_(shared_catalog ? shared_catalog : owned_catalog_.get()),
      index_(*catalog_),
      busy_(config.dims.volume()),
      down_(config.dims.volume()),
      down_untimed_(config.dims.volume()),
      tr_(config.obs.trace),
      hg_(config.obs.histograms),
      ct_(config.obs.counters) {
  BGL_CHECK(catalog_->dims() == config.dims, "shared catalog dims mismatch");
  BGL_CHECK(catalog_->topology() == config.topology,
            "shared catalog topology mismatch");
  if (tr_ != nullptr && config_.metrics_interval > 0.0) {
    decision_ring_ = std::make_unique<obs::LatencyRing>();
  }
  build_scheduler(oracle);
}

SchedulerService::~SchedulerService() = default;

void SchedulerService::build_scheduler(const FailureTrace* oracle) {
  const int n = config_.dims.volume();
  // One registry for every frontend: make_predictor raises the typed
  // OracleRequiredError — naming the model — when an oracle-backed model is
  // configured without a trace. kHistory needs none: it is fed by the
  // stream's fail events.
  PredictorSpec spec;
  spec.model = config_.predictor_model;
  spec.paper_role = paper_role_for(config_.scheduler);
  spec.alpha = config_.alpha;
  spec.history_lookback = config_.history_lookback;
  spec.seed = config_.seed;
  predictor_ = make_predictor(spec, n, oracle);

  switch (config_.scheduler) {
    case SchedulerKind::kKrevat:
      scheduler_ = make_krevat_scheduler(*catalog_, *predictor_, config_.sched);
      break;
    case SchedulerKind::kBalancing:
      scheduler_ = make_balancing_scheduler(*catalog_, *predictor_, config_.sched);
      break;
    case SchedulerKind::kTieBreak:
      scheduler_ = make_tiebreak_scheduler(*catalog_, *predictor_, config_.sched);
      break;
  }
  scheduler_->set_observer(config_.obs);
}

int SchedulerService::usable_free_nodes() const {
  return catalog_->num_nodes() - index_.occupied_count();
}

bool SchedulerService::index_in_sync() const {
  if (down_count_ == 0) return index_.occupied() == busy_;
  const NodeSet::WordSpan occ = index_.occupied().words();
  const NodeSet::WordSpan busy = busy_.words();
  const NodeSet::WordSpan down = down_.words();
  for (std::size_t w = 0; w < occ.size(); ++w) {
    if (occ[w] != (busy[w] | down[w])) return false;
  }
  return true;
}

double SchedulerService::remaining_work(std::uint64_t job) const {
  const Slot slot = find_slot(job);
  BGL_CHECK(slot != kNoSlot, "remaining_work of an unknown job");
  return jobs_[slot].remaining_work;
}

void SchedulerService::begin(double t, const StreamCensus& census) {
  BGL_CHECK(!any_event_ && !cadences_anchored_, "begin() after the stream opened");
  census_ = census;
  ensure_begin(t);
}

void SchedulerService::ensure_begin(double t) {
  // Cadence anchoring is independent of tracing: the metrics window (and
  // the forecast scorer riding on it) also runs counters-only, so a live
  // sched_server scrape or a --stats-out run shows pred.* without a trace.
  if (!cadences_anchored_) {
    cadences_anchored_ = true;
    if (tr_ != nullptr && config_.snapshot_interval > 0.0) {
      next_snapshot_ = t + config_.snapshot_interval;
    }
    if (config_.metrics_interval > 0.0 && (tr_ != nullptr || ct_ != nullptr)) {
      last_metrics_t_ = t;
      next_metrics_ = t + config_.metrics_interval;
      pred_armed_ = true;
      pred_flagged_ = predictor_->flagged_nodes(t, t + config_.metrics_interval, 0);
      pred_failed_ = NodeSet(catalog_->num_nodes());
    }
  }
  if (tr_ == nullptr || begin_emitted_) return;
  begin_emitted_ = true;
  auto begin = tr_->event("sim_begin", t);
  begin.field("machine", to_string(config_.dims))
      .field("nodes", catalog_->num_nodes())
      .field("topology", to_string(config_.topology))
      .field("scheduler", to_string(config_.scheduler))
      .field("policy", scheduler_->name())
      .field("predictor", to_string(config_.predictor_model))
      .field("alpha", config_.alpha)
      .field("backfill", to_string(config_.sched.backfill))
      .field("migration", config_.sched.migration)
      // A live stream has no job/failure census up front; 0 marks "unknown"
      // (the auditor counts submits itself and never reads these back).
      .field("jobs", static_cast<std::int64_t>(census_.jobs))
      .field("failure_events", static_cast<std::int64_t>(census_.failure_events));
  // Scale-up knobs are emitted only when they deviate from the defaults so
  // every pre-existing trace stays byte-identical.
  if (catalog_->options().mode != CatalogOptions::Mode::kBoxes) {
    begin.field("catalog", to_string(catalog_->options().mode))
        .field("min_block", catalog_->options().min_block);
  }
  if (config_.sched.algorithm != SchedAlgorithm::kKrevat) {
    begin.field("algorithm", to_string(config_.sched.algorithm));
  }
}

void SchedulerService::advance(double t) {
  BGL_CHECK(!any_event_ || t >= now_, "advance() moved time backwards");
  advance_to(t);
  any_event_ = true;
  now_ = std::max(now_, t);
}

/// Time passes to `t`, before any of its event's mutations: the capacity
/// integral closes the interval, due cadence lines are written from the
/// state the machine and the predictor held across their timestamps, and
/// only then does the predictor retire what no query from `t` on can reach
/// (the advance() contract makes repeats harmless).
void SchedulerService::advance_to(double t) {
  if (integrator_started_ && t >= min_submit_) integrator_.advance(t);
  emit_snapshots_until(t);
  predictor_->advance(t);
}

void SchedulerService::emit_snapshots_until(double horizon) {
  while (true) {
    const bool snap_due = next_snapshot_ > 0.0 && next_snapshot_ <= horizon;
    const bool metrics_due = next_metrics_ > 0.0 && next_metrics_ <= horizon;
    if (!snap_due && !metrics_due) break;
    if (snap_due && (!metrics_due || next_snapshot_ <= next_metrics_)) {
      const double t = next_snapshot_;
      next_snapshot_ += config_.snapshot_interval;
      emit_machine_state(t);
    } else {
      const double t = next_metrics_;
      next_metrics_ += config_.metrics_interval;
      emit_metrics(t);
    }
  }
}

void SchedulerService::emit_machine_state(double t) {
  const int mfp = index_.mfp();
  const int free = usable_free_nodes();
  const double frag =
      free > 0 ? 1.0 - static_cast<double>(mfp) / static_cast<double>(free)
               : 0.0;
  // Predictors are const and deterministic per (window, key); an extra
  // query cannot perturb later scheduling decisions.
  const int flagged =
      predictor_->flagged_nodes(t, t + config_.snapshot_interval, 0).count();

  tr_->event("machine_state", t)
      .field("queue_depth", static_cast<std::int64_t>(queue_.size()))
      .field("queued_nodes",
             static_cast<std::int64_t>(integrator_.queued_demand()))
      .field("running_jobs", static_cast<std::int64_t>(running_.size()))
      .field("free_nodes", free)
      .field("down_nodes", down_count_)
      .field("mfp", mfp)
      .field("frag", frag)
      .field("flagged_nodes", flagged);
}

void SchedulerService::emit_metrics(double t) {
  // Score the closing window's forecast before anything is emitted, then
  // re-capture for the next window below.
  std::int64_t pred_tp = 0, pred_fp = 0, pred_fn = 0;
  if (pred_armed_) {
    pred_tp = pred_flagged_.intersect_count(pred_failed_);
    pred_fp = pred_flagged_.count() - pred_tp;
    pred_fn = pred_failed_.count() - pred_tp;
    if (ct_ != nullptr) {
      ct_->add(obs::Counter::kPredWindowTruePositives,
               static_cast<std::uint64_t>(pred_tp));
      ct_->add(obs::Counter::kPredWindowFalsePositives,
               static_cast<std::uint64_t>(pred_fp));
      ct_->add(obs::Counter::kPredWindowFalseNegatives,
               static_cast<std::uint64_t>(pred_fn));
      ct_->add(obs::Counter::kPredWindowsScored);
    }
  }

  if (tr_ != nullptr) {
    // busy = nodes held by running jobs: exactly the union of live
    // allocation masks (down nodes sit in a separate overlay), which is what
    // the auditor recomputes from the stream.
    const int busy = busy_.count();
    const int nodes = catalog_->num_nodes();
    const double interval = t - last_metrics_t_;
    double p50 = 0.0, p99 = 0.0, max_us = 0.0;
    if (decision_ring_ != nullptr && decision_ring_->size() > 0) {
      p50 = decision_ring_->quantile(0.5);
      p99 = decision_ring_->quantile(0.99);
      max_us = decision_ring_->max();
    }

    tr_->event("metrics", t)
        .field("queue_depth", static_cast<std::int64_t>(queue_.size()))
        .field("queued_nodes",
               static_cast<std::int64_t>(integrator_.queued_demand()))
        .field("running_jobs", static_cast<std::int64_t>(running_.size()))
        .field("busy_nodes", busy)
        .field("down_nodes", down_count_)
        .field("utilization",
               nodes > 0 ? static_cast<double>(busy) / static_cast<double>(nodes)
                         : 0.0)
        .field("interval", interval)
        .field("submits", m_submits_)
        .field("starts", m_starts_)
        .field("finishes", m_finishes_)
        .field("kills", m_kills_)
        .field("migrations", m_migrations_)
        .field("finished_per_hour",
               interval > 0.0
                   ? static_cast<double>(m_finishes_) * 3600.0 / interval
                   : 0.0)
        .field("decisions", m_decisions_)
        .field("decision_us_p50", p50)
        .field("decision_us_p99", p99)
        .field("decision_us_max", max_us)
        .field("pred_tp", pred_tp)
        .field("pred_fp", pred_fp)
        .field("pred_fn", pred_fn);
  }

  last_metrics_t_ = t;
  m_submits_ = m_starts_ = m_finishes_ = m_kills_ = m_migrations_ = 0;
  m_decisions_ = 0;
  if (decision_ring_ != nullptr) decision_ring_->clear();
  if (pred_armed_) {
    predictor_->flagged_nodes_into(pred_flagged_, t,
                                   t + config_.metrics_interval, 0);
    pred_failed_.clear();
  }
}

void SchedulerService::enqueue(Slot slot) {
  JobRec& job = jobs_[slot];
  job.phase = Phase::kWaiting;
  job.entry = -1;
  auto priority = [&](const WaitingJob& a, const WaitingJob& b) {
    const JobRec& ja = jobs_[find_slot(a.id)];
    const JobRec& jb = jobs_[find_slot(b.id)];
    switch (config_.queue_order) {
      case QueueOrder::kShortestJobFirst:
        if (ja.estimate != jb.estimate) return ja.estimate < jb.estimate;
        break;
      case QueueOrder::kSmallestJobFirst:
        if (ja.size != jb.size) return ja.size < jb.size;
        break;
      case QueueOrder::kFcfs:
        break;
    }
    if (ja.arrival != jb.arrival) return ja.arrival < jb.arrival;
    return ja.id < jb.id;
  };
  const WaitingJob waiting{job.id, job.size, job.alloc_size, job.estimate};
  queue_.insert(std::lower_bound(queue_.begin(), queue_.end(), waiting, priority),
                waiting);
  // §6.1: q(t) counts the nodes *requested* by waiting jobs (s_j, not the
  // rounded-up allocation size).
  integrator_.add_queued(job.size);
}

void SchedulerService::release_allocation(Slot slot) {
  const JobRec& job = jobs_[slot];
  const PartitionCatalog::Entry& entry = catalog_->entry(job.entry);
  busy_.subtract(entry.mask, entry.span());
  {
    // Nodes that are still down stay blocked: a kill triggered by a node
    // failure releases the partition while the failed node stays in the
    // down overlay. Re-occupying the down nodes of the span restores
    // exactly those; the others there are already occupied (set semantics).
    obs::ScopedPhase span(config_.obs.profiler, obs::Phase::kSvcIndex);
    index_.release(entry.mask, entry.span());
    if (down_count_ != 0) index_.occupy(down_, entry.span());
  }
  const auto rpos = std::find_if(running_.begin(), running_.end(),
                                 [&](const RunningJob& r) { return r.id == job.id; });
  BGL_CHECK(rpos != running_.end(), "job missing from running set");
  *rpos = running_.back();
  running_.pop_back();
}

void SchedulerService::run_pass(double now, std::vector<Decision>& out) {
  if (ct_ != nullptr && queue_.size() > kQueueViewCap) {
    ct_->add(obs::Counter::kQueueViewCapped);
  }
  const std::size_t view = std::min(queue_.size(), kQueueViewCap);
  const std::size_t running_before = running_.size();

  // The pass works on the service's state in place: it reads the queue's
  // first `view` jobs, and commits its starts and any compaction into
  // index_ and running_ itself. What follows applies the decision to the
  // job bookkeeping only.
  const SchedulingDecision decision =
      scheduler_->schedule(now, {queue_.data(), view}, running_, index_);
  ++m_decisions_;
  // The pass's own wall time feeds the metrics window (p50/p99/max per
  // interval): a trace sink is attached whenever the window is on, so the
  // scheduler has timed the pass.
  if (decision_ring_ != nullptr) {
    decision_ring_->add(static_cast<double>(decision.wall_ns) / 1000.0);
  }
  BGL_CHECK(running_.size() == running_before + decision.starts.size(),
            "running set out of step with the pass's starts");

  if (tr_ != nullptr) {
    for (const PredictorQueryRecord& q : decision.predictor_queries) {
      tr_->event("predictor_query", now)
          .field("job", jobs_[find_slot(q.id)].trace_id)
          .field("window_start", q.window_start)
          .field("window_end", q.window_end)
          .field("nodes_flagged", q.nodes_flagged);
    }
  }

  // Every committed partition must be free of the jobs already holding
  // nodes, and of down nodes: the sync check below cannot tell a job on a
  // down node from the down node alone.
  const auto claim = [&](int entry_index) {
    const PartitionCatalog::Entry& entry = catalog_->entry(entry_index);
    BGL_CHECK(!busy_.intersects(entry.mask, entry.span()),
              "committed partition overlaps a running job");
    BGL_CHECK(down_count_ == 0 || !down_.intersects(entry.mask, entry.span()),
              "committed partition contains a down node");
    busy_.unite(entry.mask, entry.span());
  };

  // Apply migrations in two phases: jobs may rotate into one another's old
  // partitions, so every mover must release before any re-allocates.
  for (const Migration& m : decision.migrations) {
    const Slot slot = find_slot(m.id);
    BGL_CHECK(slot != kNoSlot, "migration refers to unknown job");
    BGL_CHECK(jobs_[slot].phase == Phase::kRunning, "migrating a non-running job");
    BGL_CHECK(jobs_[slot].entry == m.from_entry,
              "migration from a partition the job does not hold");
    const PartitionCatalog::Entry& from = catalog_->entry(m.from_entry);
    busy_.subtract(from.mask, from.span());
  }
  for (const Migration& m : decision.migrations) {
    claim(m.to_entry);
    JobRec& j = jobs_[find_slot(m.id)];
    j.entry = m.to_entry;
    ++stats_.migrations;
    ++m_migrations_;
    if (tr_ != nullptr) {
      tr_->event("migration", now)
          .field("job", j.trace_id)
          .field("from_entry", m.from_entry)
          .field("to_entry", m.to_entry);
    }
    Decision d;
    d.kind = DecisionKind::kMigrate;
    d.time = now;
    d.job = j.id;
    d.entry = m.to_entry;
    d.from_entry = m.from_entry;
    out.push_back(d);
  }

  // When tracing, starts and placement records were appended pairwise by
  // the engine, so placements[i] explains starts[i]. A compaction in the
  // same pass rewrites both the pending start and its audit record, so the
  // traced entry_index is always the partition actually committed below.
  BGL_CHECK(tr_ == nullptr || decision.placements.size() == decision.starts.size(),
            "placement audit records out of sync with starts");

  for (std::size_t start_i = 0; start_i < decision.starts.size(); ++start_i) {
    const Start& start = decision.starts[start_i];
    const Slot slot = find_slot(start.id);
    BGL_CHECK(slot != kNoSlot, "start refers to unknown job");
    JobRec& j = jobs_[slot];
    BGL_CHECK(j.phase == Phase::kWaiting, "starting a non-waiting job");
    integrator_.add_queued(-static_cast<long long>(j.size));

    claim(start.entry_index);
    j.entry = start.entry_index;
    j.phase = Phase::kRunning;
    j.last_start = now;
    if (j.first_start < 0.0) j.first_start = now;
    ++stats_.starts;
    ++m_starts_;

    if (tr_ != nullptr) {
      const PlacementRecord& p = decision.placements[start_i];
      {
        auto ev = tr_->event("sched_decision", now);
        ev.field("job", j.trace_id)
            .field("policy", scheduler_->name())
            .field("entry", p.entry_index)
            .field("candidates", p.candidates)
            .field("l_mfp", p.l_mfp)
            .field("l_pf", p.l_pf)
            .field("e_loss", p.e_loss)
            .field("mfp_after", p.mfp_after)
            .field("flags_in_chosen", p.flags_in_chosen)
            .field("backfill", p.backfill);
        // Reservation provenance exists only on backfill placements made by
        // the reservation-carrying algorithms (easy/conservative/holdback);
        // the krevat baseline never sets it.
        if (p.res_entry >= 0) {
          ev.field("res_time", p.res_time).field("res_entry", p.res_entry);
        }
      }
      tr_->event("job_start", now)
          .field("job", j.trace_id)
          .field("entry", start.entry_index)
          .field("alloc_size", j.alloc_size)
          .field("wait_so_far", now - j.arrival)
          .field("restarts", j.restarts);
    }

    Decision d;
    d.kind = DecisionKind::kStart;
    d.time = now;
    d.job = j.id;
    d.entry = start.entry_index;
    out.push_back(d);
  }

  if (!decision.starts.empty()) {
    // The started jobs were in the prefix the pass read, and only there.
    const auto started = std::ranges::remove_if(
        queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(view),
        [&](const WaitingJob& w) {
          return jobs_[find_slot(w.id)].phase != Phase::kWaiting;
        });
    BGL_CHECK(started.size() == decision.starts.size(), "started job missing from queue");
    queue_.erase(started.begin(), started.end());
  }

  BGL_CHECK(index_in_sync(),
            "free-partition index out of sync with the jobs and down nodes");
  stats_.starts_on_flagged += static_cast<std::size_t>(decision.starts_on_flagged);
  stats_.flagged_with_alternative +=
      static_cast<std::size_t>(decision.flagged_with_alternative);

  if (!decision.starts.empty() || !decision.migrations.empty()) {
    integrator_.set_free(usable_free_nodes());
  }
}

/// Account `taken` checkpoints of `job` that protected `saved` seconds of
/// its per-node work.
void SchedulerService::account_checkpoints(const JobRec& job, double now,
                                           std::size_t taken, double saved) {
  stats_.checkpoints += taken;
  if (ct_ != nullptr) ct_->add(obs::Counter::kDriverCheckpoints, taken);
  if (tr_ != nullptr && taken > 0) {
    // Work fields are node-seconds throughout the trace (schema:
    // docs/OBSERVABILITY.md), so scale the per-node work by the job size.
    tr_->event("checkpoint", now)
        .field("job", job.trace_id)
        .field("count", static_cast<std::int64_t>(taken))
        .field("work_saved", saved * static_cast<double>(job.size));
  }
}

void SchedulerService::kill_job(Slot slot, double now, int node,
                                std::vector<Decision>& out) {
  JobRec& job = jobs_[slot];
  const double elapsed = now - job.last_start;
  const double saved = saved_work_at(elapsed, job.remaining_work, config_.ckpt);
  if (config_.ckpt.enabled) {
    // The checkpoints inside the saved work, plus the one it resumes from.
    account_checkpoints(job, now,
                        static_cast<std::size_t>(checkpoint_count(saved, config_.ckpt)) +
                            (saved > 0.0 ? 1u : 0u),
                        saved);
  }
  // Work done since the (re)start that no checkpoint protected. An unknown
  // runtime leaves remaining_work infinite: all elapsed work is lost.
  const double wasted =
      std::max(0.0, std::min(elapsed, job.remaining_work) - saved);
  stats_.work_lost_node_seconds += wasted * static_cast<double>(job.size);
  job.remaining_work -= saved;
  if (saved > 0.0) job.remaining_work += config_.ckpt.restart_overhead;
  ++job.restarts;
  ++stats_.kills;
  ++m_kills_;
  if (now <= job.last_start + job.estimate + 1e-9) ++stats_.avoidable_kills;
  if (ct_ != nullptr) ct_->add(obs::Counter::kDriverKills);
  if (tr_ != nullptr) {
    tr_->event("job_kill", now)
        .field("job", job.trace_id)
        .field("entry", job.entry)
        .field("elapsed", elapsed)
        .field("work_lost", wasted * static_cast<double>(job.size))
        .field("work_saved", saved * static_cast<double>(job.size))
        .field("restarts", job.restarts);
  }

  Decision d;
  d.kind = DecisionKind::kKill;
  d.time = now;
  d.job = job.id;
  d.entry = job.entry;
  d.node = node;
  out.push_back(d);

  release_allocation(slot);
  enqueue(slot);
}

void SchedulerService::on_submit(const Event& e, std::vector<Decision>& out,
                                 std::size_t line) {
  if (find_slot(e.job) != kNoSlot) {
    throw ProtocolError(RejectCode::kDuplicateJob, line,
                        "job " + std::to_string(e.job) + " already submitted");
  }
  const int n = catalog_->num_nodes();
  if (e.size < 1 || e.size > n) {
    throw ProtocolError(RejectCode::kBadValue, line,
                        "size " + std::to_string(e.size) +
                            " outside [1, " + std::to_string(n) + "]");
  }
  if (e.estimate < 0.0) {
    throw ProtocolError(RejectCode::kBadValue, line, "estimate must be >= 0");
  }
  if (config_.ckpt.enabled && e.runtime < 0.0) {
    throw ProtocolError(RejectCode::kBadField, line,
                        "checkpoint accounting needs the job's runtime");
  }
  const int alloc = catalog_->allocatable_size(e.size);
  if (alloc <= 0) {
    throw ProtocolError(RejectCode::kNoPartition, line,
                        "no allocatable partition size for " +
                            std::to_string(e.size) + " nodes");
  }

  if (!integrator_started_) {
    // The capacity integral spans [min t_a, max t_f]: it opens at the first
    // submit with the machine's usable capacity.
    integrator_started_ = true;
    min_submit_ = e.time;
    integrator_.start(e.time, usable_free_nodes(), 0);
  }
  advance_to(e.time);
  ensure_begin(e.time);
  ++m_submits_;
  JobRec rec;
  rec.id = e.job;
  rec.trace_id = e.trace_id.value_or(e.job);
  rec.size = e.size;
  rec.alloc_size = alloc;
  rec.arrival = e.time;
  rec.estimate = e.estimate;
  rec.runtime = e.runtime;
  rec.remaining_work =
      e.runtime >= 0.0 ? e.runtime : std::numeric_limits<double>::infinity();
  const Slot slot = static_cast<Slot>(jobs_.size());
  jobs_.push_back(rec);
  if (e.job != slot) slot_index_.emplace(e.job, slot);
  enqueue(slot);
  ++stats_.submitted;
  // sim_end utilization must equal the auditor's recomputation from the
  // runtimes traced here, so unknown runtimes count as 0 in both places.
  useful_work_ += static_cast<double>(rec.size) * std::max(rec.runtime, 0.0);
  if (tr_ != nullptr) {
    tr_->event("job_submit", e.time)
        .field("job", rec.trace_id)
        .field("size", rec.size)
        .field("alloc_size", rec.alloc_size)
        .field("estimate", rec.estimate)
        .field("runtime", std::max(rec.runtime, 0.0));
  }
  run_pass(e.time, out);
}

void SchedulerService::on_complete(const Event& e, std::vector<Decision>& out,
                                   std::size_t line) {
  const Slot slot = find_slot(e.job);
  if (slot == kNoSlot) {
    throw ProtocolError(RejectCode::kUnknownJob, line,
                        "job " + std::to_string(e.job) + " was never submitted");
  }
  JobRec& job = jobs_[slot];
  if (job.phase != Phase::kRunning) {
    throw ProtocolError(RejectCode::kNotRunning, line,
                        "job " + std::to_string(e.job) + " is not running");
  }

  advance_to(e.time);
  if (config_.ckpt.enabled) {
    account_checkpoints(job, e.time,
                        static_cast<std::size_t>(
                            checkpoint_count(job.remaining_work, config_.ckpt)),
                        job.remaining_work);
  }
  job.phase = Phase::kDone;
  ++stats_.finished;
  ++m_finishes_;
  max_finish_ = std::max(max_finish_, e.time);

  JobOutcome& outcome = last_finished_;
  outcome.id = job.trace_id;
  outcome.size = job.size;
  outcome.arrival = job.arrival;
  outcome.first_start = job.first_start;
  outcome.last_start = job.last_start;
  outcome.finish = e.time;
  // Unknown runtime: the elapsed time of the successful run is the actual
  // execution time by definition of a complete event.
  outcome.runtime = job.runtime >= 0.0 ? job.runtime : e.time - job.last_start;
  outcome.estimate = job.estimate;
  outcome.restarts = job.restarts;

  const double slowdown = bounded_slowdown(outcome, config_.metrics);
  stats_.wait.add(outcome.wait());
  stats_.response.add(outcome.response());
  stats_.slowdown.add(slowdown);
  if (hg_ != nullptr) {
    hg_->add(obs::Hist::kWait, outcome.wait());
    hg_->add(obs::Hist::kResponse, outcome.response());
    hg_->add(obs::Hist::kSlowdown, slowdown);
  }
  if (tr_ != nullptr) {
    tr_->event("job_finish", e.time)
        .field("job", job.trace_id)
        .field("entry", job.entry)
        .field("wait", outcome.wait())
        .field("response", outcome.response())
        .field("bounded_slowdown", slowdown)
        .field("restarts", job.restarts);
  }

  release_allocation(slot);
  integrator_.set_free(usable_free_nodes());
  run_pass(e.time, out);
}

void SchedulerService::on_fail(const Event& e, std::vector<Decision>& out) {
  advance_to(e.time);
  ensure_begin(e.time);
  // Feed the failure to the predictor before the kills it causes, so the
  // requeued victims are re-placed with the new evidence.
  predictor_->observe_failure(e.node, e.time, e.down_for);
  if (pred_armed_) pred_failed_.set(e.node);
  ++stats_.failures;
  if (ct_ != nullptr) ct_->add(obs::Counter::kDriverFailures);
  // Partitions are disjoint, so at most one running job holds the node.
  Slot victim = kNoSlot;
  if (busy_.test(e.node)) {
    for (const RunningJob& r : running_) {
      if (catalog_->entry(r.entry_index).mask.test(e.node)) {
        victim = find_slot(r.id);
        break;
      }
    }
  }
  // A down-time with no announced end lasts until a repair event: the
  // trace says so with the "down" flag and a node_repair line, so the
  // auditor can track the node. A known duration is down_for alone.
  const bool untimed = e.down && e.down_for <= 0.0;
  if (tr_ != nullptr) {
    auto ev = tr_->event("node_failure", e.time);
    ev.field("node", e.node)
        .field("victims", static_cast<std::int64_t>(victim != kNoSlot))
        .field("down_for", e.down_for);
    if (untimed) ev.field("down", true);
  }
  if (e.down) {
    if (!down_.test(e.node)) ++down_count_;
    down_.set(e.node);
    if (untimed) down_untimed_.set(e.node);
    // No-op if the victim still holds the node; the victim's release keeps
    // it blocked because release_allocation subtracts the down overlay.
    obs::ScopedPhase span(config_.obs.profiler, obs::Phase::kSvcIndex);
    index_.occupy_node(e.node);
  }
  if (victim != kNoSlot) {
    ++stats_.failures_hitting_jobs;
    kill_job(victim, e.time, e.node, out);
  }
  if (victim != kNoSlot || e.down ||
      config_.failure_semantics == FailureSemantics::kDownFor) {
    integrator_.set_free(usable_free_nodes());
    run_pass(e.time, out);
  }
}

void SchedulerService::on_repair(const Event& e, std::vector<Decision>& out,
                                 std::size_t line) {
  if (!down_.test(e.node)) {
    throw ProtocolError(RejectCode::kNodeState, line,
                        "node " + std::to_string(e.node) + " is not down");
  }
  advance_to(e.time);
  predictor_->observe_repair(e.node, e.time);
  down_.reset(e.node);
  --down_count_;
  {
    // The node cannot be allocated while down, so releasing it in the
    // index exactly undoes the failure-time block.
    obs::ScopedPhase span(config_.obs.profiler, obs::Phase::kSvcIndex);
    index_.release_node(e.node);
  }
  if (down_untimed_.test(e.node)) {
    down_untimed_.reset(e.node);
    if (tr_ != nullptr) tr_->event("node_repair", e.time).field("node", e.node);
  }
  integrator_.set_free(usable_free_nodes());
  run_pass(e.time, out);
}

void SchedulerService::handle(const Event& event, std::vector<Decision>& out,
                              std::size_t line) {
  // One svc.event span per protocol event; scheduler passes it triggers
  // (sched.pass and its subtree) nest under it.
  obs::ScopedPhase svc_span(config_.obs.profiler, obs::Phase::kSvcEvent);
  if (any_event_ && event.time < now_) {
    throw ProtocolError(RejectCode::kTimeOrder, line,
                        "time ran backwards: " + std::to_string(event.time) +
                            " after " + std::to_string(now_));
  }
  if (event.kind == EventKind::kFail || event.kind == EventKind::kRepair) {
    if (event.node < 0 || event.node >= catalog_->num_nodes()) {
      throw ProtocolError(RejectCode::kBadNode, line,
                          "node " + std::to_string(event.node) +
                              " outside machine of " +
                              std::to_string(catalog_->num_nodes()) + " nodes");
    }
  }

  switch (event.kind) {
    case EventKind::kSubmit:
      on_submit(event, out, line);
      break;
    case EventKind::kComplete:
      on_complete(event, out, line);
      break;
    case EventKind::kFail:
      on_fail(event, out);
      break;
    case EventKind::kRepair:
      on_repair(event, out, line);
      break;
    case EventKind::kTick:
      advance_to(event.time);
      run_pass(event.time, out);
      break;
  }
  any_event_ = true;
  now_ = std::max(now_, event.time);
}

SimResult SchedulerService::result() const {
  SimResult r;
  r.jobs_completed = stats_.finished;
  r.job_kills = stats_.kills;
  r.avoidable_kills = stats_.avoidable_kills;
  r.starts_on_flagged = stats_.starts_on_flagged;
  r.flagged_with_alternative = stats_.flagged_with_alternative;
  r.failures_hitting_jobs = stats_.failures_hitting_jobs;
  r.failures_total = stats_.failures;
  r.migrations = stats_.migrations;
  r.checkpoints_taken = stats_.checkpoints;
  r.work_lost_node_seconds = stats_.work_lost_node_seconds;
  r.wait_stats = stats_.wait;
  r.response_stats = stats_.response;
  r.slowdown_stats = stats_.slowdown;
  r.avg_wait = r.wait_stats.mean();
  r.avg_response = r.response_stats.mean();
  r.avg_bounded_slowdown = r.slowdown_stats.mean();
  if (stats_.finished == 0) return r;
  r.span = max_finish_ - min_submit_;
  const double tn = r.span * static_cast<double>(catalog_->num_nodes());
  if (tn > 0.0) {
    r.utilization = useful_work_ / tn;
    r.unused = integrator_.unused_integral() / tn;
    r.lost = 1.0 - r.utilization - r.unused;
  }
  return r;
}

bool SchedulerService::finish_stream() {
  if (tr_ == nullptr) return false;
  if (end_emitted_) return true;
  if (stats_.submitted == 0 || !queue_.empty() || !running_.empty()) {
    return false;  // trace stays truncated: jobs are still in flight
  }
  const SimResult r = result();
  tr_->event("sim_end", max_finish_)
      .field("jobs_completed", static_cast<std::int64_t>(r.jobs_completed))
      .field("span", r.span)
      .field("avg_wait", r.avg_wait)
      .field("avg_response", r.avg_response)
      .field("avg_bounded_slowdown", r.avg_bounded_slowdown)
      .field("utilization", r.utilization)
      .field("unused", r.unused)
      .field("lost", r.lost)
      .field("job_kills", static_cast<std::int64_t>(r.job_kills))
      .field("migrations", static_cast<std::int64_t>(r.migrations))
      .field("checkpoints", static_cast<std::int64_t>(r.checkpoints_taken))
      .field("work_lost_node_seconds", r.work_lost_node_seconds);
  tr_->flush();
  end_emitted_ = true;
  return true;
}

}  // namespace bgl::svc
