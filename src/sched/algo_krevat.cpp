// The paper's scheduling discipline (§5), which is also EASY backfilling.
//
// FCFS with spatial backfilling behind a blocked head job and one migration
// (compaction) attempt per pass, parameterised by BackfillMode: kEasy
// reserves for the head only, kConservative independently reserves for the
// first reservation_depth waiting jobs (each against the current running
// set — a spatially conservative approximation, see backfill.hpp), kNone
// disables fillers entirely.
//
// One loop runs three algorithms (SchedulerConfig::algorithm):
//
//   krevat         the byte-identity anchor: its decisions, counters and
//                  trace output are bit-for-bit those of the pre-seam
//                  Scheduler::schedule() loop (tests/sched_reference_diff_
//                  test.cpp holds it against a frozen copy of that loop;
//                  bench/golden pins the figure CSVs). It never records a
//                  reservation, so its traces carry no provenance.
//   easy           EASY backfilling (Lifka/Skovira, the Maui/SLURM default):
//                  the same decisions, with the head's reservation recorded
//                  in the decision trail (note_reservation) and stamped on
//                  every filler's placement, so traces carry the provenance
//                  the auditor re-checks (res_time / res_entry on
//                  sched_decision).
//   easy-holdback  easy, plus a free-node floor (batsched's
//                  easy_bf_*_holdback lineage): a filler that would shrink
//                  the free pool below SchedulerConfig::holdback_nodes is
//                  skipped, keeping headroom for imminent arrivals at some
//                  cost in utilization.
//
// The Scheduler constructor refuses kConservative under easy and
// easy-holdback, so the one reservation they hold is always the head's.
#include <algorithm>

#include "sched/algorithm.hpp"

namespace bgl {

void run_krevat(SchedulingPass& p) {
  const std::span<const WaitingJob> queue = p.queue();
  const SchedulerConfig& config = p.config();

  const std::size_t head = p.start_in_order();
  if (head >= queue.size()) return;
  if (config.backfill == BackfillMode::kNone || config.backfill_depth <= 0) {
    return;  // FCFS: the head job stays first in line
  }

  // Backfill behind the blocked head job.
  obs::ScopedPhase backfill_span(p.profiler(), obs::Phase::kBackfill);
  // Reservations a filler must not delay. EASY: the head job only.
  // Conservative: the first reservation_depth waiting jobs; each
  // reservation is computed against the current running set, which
  // yields reservation times no later than the true ones — a stricter
  // (hence safe) admission constraint for fillers.
  std::vector<Reservation>& reservations = p.reservation_scratch();
  reservations.clear();
  const int reservation_count = config.backfill == BackfillMode::kEasy
                                    ? 1
                                    : std::max(1, config.reservation_depth);
  for (std::size_t q = head;
       q < queue.size() &&
       static_cast<int>(reservations.size()) < reservation_count;
       ++q) {
    auto r = p.reservation(queue[q].alloc_size);
    if (!r) {
      if (q == head) break;  // head can never fit: no safe backfilling
      continue;
    }
    reservations.push_back(std::move(*r));
  }
  if (reservations.empty()) return;

  // easy and easy-holdback record the head's reservation and bind every
  // filler to it; krevat records nothing.
  const Reservation* binding = nullptr;
  if (config.algorithm != SchedAlgorithm::kKrevat) {
    binding = &reservations.front();
    p.note_reservation(queue[head].id, *binding);
  }
  const bool holdback = config.algorithm == SchedAlgorithm::kEasyHoldback;

  const PartitionCatalog& catalog = p.catalog();
  auto admissible = [&](double est_finish,
                        const PartitionCatalog::Entry& entry) {
    for (const Reservation& r : reservations) {
      const bool in_time = est_finish <= r.time + 1e-9;
      if (!in_time && entry.intersects(catalog.entry(r.entry))) {
        return false;
      }
    }
    return true;
  };

  int examined = 0;
  for (std::size_t j = head + 1;
       j < queue.size() && examined < config.backfill_depth; ++j) {
    ++examined;
    const WaitingJob& filler = queue[j];
    if (holdback) {
      const int free_after =
          catalog.num_nodes() - p.occupied_count() - filler.alloc_size;
      if (free_after < config.holdback_nodes) continue;
    }
    const std::span<const int> free = p.free_candidates(filler.alloc_size);
    if (free.empty()) continue;
    ArenaVector<int> allowed(p.scratch_arena());
    for (const int c : free) {
      if (admissible(p.now() + filler.estimate, catalog.entry(c))) {
        allowed.push_back(c);
      }
    }
    if (allowed.empty()) continue;
    p.place(j, allowed, /*backfill=*/true, binding);
  }
}

}  // namespace bgl
