#include "sched/algorithm.hpp"

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "sched/migration.hpp"
#include "util/error.hpp"

namespace bgl {

const char* to_string(SchedAlgorithm algorithm) {
  switch (algorithm) {
    case SchedAlgorithm::kKrevat: return "krevat";
    case SchedAlgorithm::kEasy: return "easy";
    case SchedAlgorithm::kConservative: return "conservative";
    case SchedAlgorithm::kEasyHoldback: return "easy-holdback";
  }
  return "?";
}

std::optional<SchedAlgorithm> parse_sched_algorithm(std::string_view name) {
  if (name == "krevat") return SchedAlgorithm::kKrevat;
  if (name == "easy") return SchedAlgorithm::kEasy;
  if (name == "conservative") return SchedAlgorithm::kConservative;
  if (name == "easy-holdback") return SchedAlgorithm::kEasyHoldback;
  return std::nullopt;
}

SchedulingPass::SchedulingPass(const PartitionCatalog& catalog,
                               PlacementPolicy& policy,
                               const FaultPredictor& predictor,
                               const SchedulerConfig& config,
                               const obs::Observer& obs, double now,
                               const std::vector<WaitingJob>& queue,
                               SchedulerPassScratch& scratch,
                               FreePartitionIndex* index,
                               SchedulingDecision& decision)
    : catalog_(&catalog),
      policy_(&policy),
      predictor_(&predictor),
      config_(&config),
      obs_(&obs),
      tracing_(obs.trace != nullptr),
      now_(now),
      queue_(&queue),
      s_(&scratch),
      idx_(index),
      decision_(&decision),
      candidates_(scratch.arena) {}

const std::vector<RunningJob>& SchedulingPass::live() const { return s_->live; }

const NodeSet& SchedulingPass::occupied() const { return s_->occ; }

PlacementArena& SchedulingPass::scratch_arena() { return s_->arena; }

std::vector<Reservation>& SchedulingPass::reservation_scratch() {
  return s_->reservations;
}

// Consult the predictor for a job's execution window, accounting the query
// (and its verdict size) to the observer. The verdict lands in the pooled
// s_->flagged, so the query allocates nothing.
const NodeSet& SchedulingPass::query_predictor(const WaitingJob& job) {
  obs::ScopedPhase span(obs_->profiler, obs::Phase::kPredict);
  predictor_->flagged_nodes_into(s_->flagged, now_, now_ + job.estimate, job.id);
  if (obs_->counters != nullptr || tracing_) {
    const int n_flagged = s_->flagged.count();
    if (obs_->counters != nullptr) {
      obs_->counters->add(obs::Counter::kPredictorQueries);
      obs_->counters->add(obs::Counter::kPredictorNodesFlagged,
                          static_cast<std::uint64_t>(n_flagged));
    }
    if (tracing_) {
      decision_->predictor_queries.push_back(
          PredictorQueryRecord{job.id, now_, now_ + job.estimate, n_flagged});
    }
  }
  return s_->flagged;
}

std::size_t SchedulingPass::start_in_order() {
  std::size_t head = 0;
  while (head < queue_->size()) {
    const int alloc_size = (*queue_)[head].alloc_size;
    const std::span<const int> candidates = free_candidates(alloc_size);
    if (!candidates.empty()) {
      place(head, candidates, /*backfill=*/false);
      ++head;
    } else if (!try_migration(alloc_size)) {
      break;  // blocked; after a compaction the loop retries it
    }
  }
  return head;
}

std::span<const int> SchedulingPass::free_candidates(int alloc_size) {
  obs::ScopedPhase span(obs_->profiler, obs::Phase::kEnumerate);
  BGL_CHECK(alloc_size > 0 && alloc_size <= catalog_->num_nodes(),
            "waiting job has invalid alloc size");
  candidates_.clear();
  if (idx_ != nullptr) {
    idx_->free_entries_of_size(alloc_size, candidates_);
  } else {
    catalog_->free_entries_of_size(s_->occ, alloc_size, candidates_);
  }
  // Account one free-list scan over the entries of this size that offered
  // candidates_.size() candidates.
  if (obs_->counters != nullptr) {
    const auto [first, last] = catalog_->size_range(alloc_size);
    obs_->counters->add(obs::Counter::kPartitionsScanned,
                        static_cast<std::uint64_t>(last - first));
    obs_->counters->add(obs::Counter::kCandidatesConsidered,
                        static_cast<std::uint64_t>(candidates_.size()));
  }
  return candidates_;
}

void SchedulingPass::place(std::size_t q, std::span<const int> candidates,
                           bool backfill, const Reservation* res) {
  obs::ScopedPhase span(obs_->profiler, obs::Phase::kPlace);
  const WaitingJob& job = (*queue_)[q];
  const NodeSet& flagged = query_predictor(job);

  PlacementContext ctx;
  ctx.catalog = catalog_;
  ctx.occupied = &s_->occ;
  ctx.index = idx_;
  ctx.mfp_before_index = idx_ != nullptr ? idx_->first_free_index()
                                         : catalog_->first_free_index(s_->occ);
  ctx.mfp_before_size =
      ctx.mfp_before_index < 0 ? 0 : catalog_->entry(ctx.mfp_before_index).size;
  ctx.flagged = &flagged;
  ctx.confidence = predictor_->confidence();
  ctx.pf_rule = config_->pf_rule;
  ctx.job_size = job.size;
  ctx.counters = obs_->counters;
  ctx.arena = &s_->arena;

  PlacementExplain explain;
  int chosen;
  {
    obs::ScopedPhase score_span(obs_->profiler, obs::Phase::kScore);
    chosen = policy_->choose(ctx, candidates, tracing_ ? &explain : nullptr);
  }

  decision_->starts.push_back(Start{job.id, chosen});
  const PartitionCatalog::Entry& entry = catalog_->entry(chosen);
  if (entry.mask.intersects(flagged, entry.span())) {
    ++decision_->starts_on_flagged;
    for (const int c : candidates) {
      const PartitionCatalog::Entry& alt = catalog_->entry(c);
      if (!alt.mask.intersects(flagged, alt.span())) {
        ++decision_->flagged_with_alternative;
        break;
      }
    }
  }
  s_->occ.unite(entry.mask, entry.span());
  if (idx_ != nullptr) idx_->occupy(entry.mask, entry.span());
  s_->live.push_back(RunningJob{job.id, chosen, now_ + job.estimate});
  if (obs_->counters != nullptr) {
    obs_->counters->add(obs::Counter::kSchedStarts);
    if (backfill) obs_->counters->add(obs::Counter::kSchedBackfillStarts);
  }
  if (obs_->histograms != nullptr) {
    obs_->histograms->add(obs::Hist::kCandidates,
                          static_cast<double>(candidates.size()));
  }
  if (tracing_) {
    PlacementRecord record{job.id, chosen, static_cast<int>(candidates.size()),
                           explain.flags, explain.l_mfp, explain.l_pf,
                           explain.e_loss, explain.mfp_after, backfill};
    if (res != nullptr) {
      record.res_time = res->time;
      record.res_entry = res->entry;
    }
    decision_->placements.push_back(record);
  }
}

bool SchedulingPass::try_migration(int alloc_size) {
  if (!config_->migration || migration_tried_ || s_->live.empty()) return false;
  obs::ScopedPhase span(obs_->profiler, obs::Phase::kMigration);
  migration_tried_ = true;
  // Capacity bound: a repack puts every live job on an entry of its own
  // size around the obstacles, so it never lowers the busy-node count. A
  // head that does not fit by count cannot fit after any repack, and
  // try_repack would only confirm that at O(live x catalog) cost.
  if (s_->occ.count() + alloc_size > catalog_->num_nodes()) {
    if (obs_->counters != nullptr) {
      obs_->counters->add(obs::Counter::kMigrationOverCapacity);
    }
    return false;
  }
  // Occupancy that does not belong to any live job — failed nodes still
  // inside their downtime window — must survive the compaction intact.
  // try_repack rebuilds the occupancy from the re-placed jobs, so without
  // this seed it would silently resurrect down nodes as free space and
  // the retried job (or a backfill filler) could start on them.
  s_->obstacles = s_->occ;
  for (const RunningJob& r : s_->live) {
    const PartitionCatalog::Entry& entry = catalog_->entry(r.entry_index);
    s_->obstacles.subtract(entry.mask, entry.span());
  }
  auto repack =
      try_repack(*catalog_, s_->live, alloc_size, s_->arena, &s_->obstacles);
  if (!repack) return false;
  for (const Migration& m : repack->migrations) {
    // A job started earlier in this same pass has not been committed by the
    // driver yet; rewrite its pending start instead of reporting a
    // migration of a not-yet-running job. The paired placement audit record
    // (placements[i] explains starts[i]) must follow, or the trace would
    // report a placement that was never committed.
    bool was_started_here = false;
    for (std::size_t s_i = 0; s_i < decision_->starts.size(); ++s_i) {
      if (decision_->starts[s_i].id == m.id) {
        decision_->starts[s_i].entry_index = m.to_entry;
        if (tracing_) decision_->placements[s_i].entry_index = m.to_entry;
        was_started_here = true;
        break;
      }
    }
    if (!was_started_here) decision_->migrations.push_back(m);
  }
  s_->occ = std::move(repack->occupied_after);
  s_->live = std::move(repack->running_after);
  // Compaction rewrote the occupancy wholesale; resync the caller's index
  // with one rebuild (migration passes are rare and already
  // O(running x catalog) in try_repack itself).
  if (idx_ != nullptr) idx_->reset(s_->occ);
  return true;
}

std::optional<Reservation> SchedulingPass::reservation(int alloc_size) const {
  obs::ScopedPhase span(obs_->profiler, obs::Phase::kReservation);
  return compute_reservation(*catalog_, s_->occ, s_->live, alloc_size, now_,
                             s_->arena);
}

void SchedulingPass::note_reservation(std::uint64_t job_id,
                                      const Reservation& r) {
  if (!tracing_) return;
  decision_->reservations.push_back(ReservationRecord{job_id, r.time, r.entry});
}

}  // namespace bgl
