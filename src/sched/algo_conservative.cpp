// Conservative backfilling (Mu'alem & Feitelson).
//
// Unlike EASY — where only the blocked head is protected and a deep filler
// may delay mid-queue jobs — conservative backfilling grants *every*
// examined waiting job a reservation, layered into a queue-order schedule
// profile. A job is admitted now only if no earlier-queued reservation is
// delayed (it must finish before each reservation starts or avoid its
// partition); otherwise its own reservation is computed against the live
// jobs AND every reservation already in the profile, then appended. Under
// estimate-faithful execution no queued job's start is ever pushed later by
// a backfilled one — the invariant tests/sched_algorithms_test.cpp asserts
// per pass.
//
// The profile is spatial as well as temporal: each slot pins a concrete
// partition for [start, start + estimate), so feasibility at a time point
// checks free nodes net of unfinished live jobs plus every reservation
// active at that point, and a candidate slot must additionally stay clear
// of reservations that begin inside its window.
//
// Cost: reserving scans candidate time points (live finishes + profile
// boundaries) per blocked job, so a pass is O(depth · points · catalog).
// That is fine for the paper-scale queue views this algorithm targets
// (bench_baselines); the krevat baseline remains the hot-path default.
//
// Phase 1 is SchedulingPass::start_in_order, as for every discipline: jobs
// start in queue order until one blocks, and that job holds the first
// reservation of the profile.
//
// Edge cases: a blocked job whose reservation cannot be computed at all
// (down-node obstacles cover every partition of its size even on an empty
// machine) stops the pass when it is the first blocked job — FCFS order
// must not be silently violated — and is skipped (left unprotected until
// the obstacles clear) when it sits behind an existing profile.
#include <algorithm>
#include <vector>

#include "sched/algorithm.hpp"

namespace bgl {

namespace {

constexpr double kEps = 1e-9;

/// One granted reservation: entry `entry` is held for [start, end).
struct ProfileSlot {
  double start = 0.0;
  double end = 0.0;
  int entry = -1;
};

/// Would a placement finishing at `est_finish` on `entry` delay any reserved
/// job? Admissible iff for every slot it either finishes before the slot
/// starts or stays off the slot's partition.
bool admissible(const PartitionCatalog& catalog, double est_finish,
                const PartitionCatalog::Entry& entry,
                std::span<const ProfileSlot> profile) {
  for (const ProfileSlot& r : profile) {
    const bool in_time = est_finish <= r.start + kEps;
    if (!in_time && entry.intersects(catalog.entry(r.entry))) return false;
  }
  return true;
}

/// Earliest (start, partition) for a job of `alloc_size`/`estimate` that
/// respects the live jobs' estimated finishes and every earlier reservation.
std::optional<ProfileSlot> reserve_against(const SchedulingPass& p,
                                           int alloc_size, double estimate,
                                           std::span<const ProfileSlot> profile) {
  const PartitionCatalog& catalog = p.catalog();
  const double now = p.now();

  // Candidate start times: now, plus every event that frees or claims
  // nodes — live finishes and profile slot boundaries.
  std::vector<double> times;
  times.reserve(1 + p.live().size() + 2 * profile.size());
  times.push_back(now);
  for (const RunningJob& r : p.live()) {
    if (r.est_finish > now) times.push_back(r.est_finish);
  }
  for (const ProfileSlot& r : profile) {
    if (r.start > now) times.push_back(r.start);
    if (r.end > now) times.push_back(r.end);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  NodeSet occ;
  std::vector<int> candidates;
  for (const double t : times) {
    // Occupancy at t under estimate-faithful execution: live jobs that have
    // not finished by t, immovable occupancy (down nodes), and reservations
    // active at t.
    occ = p.occupied();
    for (const RunningJob& r : p.live()) {
      if (std::max(r.est_finish, now) <= t + kEps) {
        const PartitionCatalog::Entry& done = catalog.entry(r.entry_index);
        occ.subtract(done.mask, done.span());
      }
    }
    for (const ProfileSlot& r : profile) {
      if (r.start <= t + kEps && t + kEps < r.end) {
        const PartitionCatalog::Entry& held = catalog.entry(r.entry);
        occ.unite(held.mask, held.span());
      }
    }
    candidates.clear();
    catalog.free_entries_of_size(occ, alloc_size, candidates);
    for (const int c : candidates) {
      const PartitionCatalog::Entry& entry = catalog.entry(c);
      // Free at t is not enough: the slot must also stay clear of
      // reservations that begin inside its own window.
      bool clear = true;
      for (const ProfileSlot& r : profile) {
        if (r.start > t + kEps && r.start < t + estimate - kEps &&
            entry.intersects(catalog.entry(r.entry))) {
          clear = false;
          break;
        }
      }
      if (clear) return ProfileSlot{t, t + estimate, c};
    }
  }
  return std::nullopt;
}

}  // namespace

void run_conservative(SchedulingPass& p) {
  const std::span<const WaitingJob> queue = p.queue();
  const SchedulerConfig& config = p.config();
  const bool fillers_allowed =
      config.backfill != BackfillMode::kNone && config.backfill_depth > 0;

  ArenaVector<ProfileSlot> profile(p.scratch_arena());
  int examined = 0;
  std::size_t q = p.start_in_order();
  while (q < queue.size()) {
    const WaitingJob& job = queue[q];

    if (!profile.empty()) {
      // Backfill phase: admission must respect every reservation.
      if (!fillers_allowed || examined >= config.backfill_depth) break;
      obs::ScopedPhase backfill_span(p.profiler(), obs::Phase::kBackfill);
      ++examined;
      const std::span<const int> candidates = p.free_candidates(job.alloc_size);
      if (!candidates.empty()) {
        ArenaVector<int> allowed(p.scratch_arena());
        const double est_finish = p.now() + job.estimate;
        for (const int c : candidates) {
          if (admissible(p.catalog(), est_finish, p.catalog().entry(c),
                         profile)) {
            allowed.push_back(c);
          }
        }
        if (!allowed.empty()) {
          // The binding reservation recorded on the placement is the
          // earliest-queued one — the slot EASY would have held.
          const Reservation binding{profile[0].start, profile[0].entry};
          p.place(q, allowed, /*backfill=*/true, &binding);
          ++q;
          continue;
        }
      }
    }

    // Blocked: grant this job its reservation, in queue order.
    // (reserve_against builds the full schedule profile itself rather
    // than going through pass.reservation(), so the span is opened here.)
    std::optional<ProfileSlot> slot;
    {
      obs::ScopedPhase res_span(p.profiler(), obs::Phase::kReservation);
      slot = reserve_against(p, job.alloc_size, job.estimate, profile);
    }
    if (slot) {
      p.note_reservation(job.id, Reservation{slot->start, slot->entry});
      profile.push_back(*slot);
    } else if (profile.empty()) {
      break;  // first blocked job can never fit: keep strict FCFS
    }
    ++q;
  }
}

}  // namespace bgl
