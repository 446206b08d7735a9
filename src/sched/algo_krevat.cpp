// The paper's scheduling discipline (§5), frozen behind the algorithm seam.
//
// FCFS with spatial backfilling behind a blocked head job and one migration
// (compaction) attempt per pass, parameterised by BackfillMode: kEasy
// reserves for the head only, kConservative independently reserves for the
// first reservation_depth waiting jobs (each against the current running
// set — a spatially conservative approximation, see backfill.hpp), kNone
// disables fillers entirely.
//
// This translation unit is the byte-identity anchor of the seam: its
// decisions, counters and trace output are bit-for-bit those of the
// pre-seam Scheduler::schedule() loop (tests/sched_reference_diff_test.cpp
// holds it against a frozen copy of that loop; bench/golden pins the figure
// CSVs). Deliberately, it never calls note_reservation() or passes a
// binding reservation to place() — reservation provenance in traces is a
// feature of the newer algorithms only.
#include <algorithm>

#include "sched/algorithm.hpp"

namespace bgl {

namespace {

class KrevatAlgorithm final : public ISchedulingAlgorithm {
 public:
  const char* name() const override { return "krevat"; }

  void run(SchedulingPass& p) const override {
    const std::vector<WaitingJob>& queue = p.queue();
    const SchedulerConfig& config = p.config();

    std::size_t head = 0;
    while (head < queue.size()) {
      if (p.placed(head)) {
        ++head;
        continue;
      }
      const WaitingJob& job = queue[head];

      const std::span<const int> candidates = p.free_candidates(job.alloc_size);
      if (!candidates.empty()) {
        p.place(head, candidates, /*backfill=*/false);
        ++head;
        continue;
      }

      // Head job blocked: first try compaction, once per pass.
      if (p.try_migration(job.alloc_size)) {
        continue;  // retry the head job on the compacted torus
      }

      // Backfill behind the blocked head job.
      if (config.backfill != BackfillMode::kNone && config.backfill_depth > 0) {
        obs::ScopedPhase backfill_span(p.profiler(), obs::Phase::kBackfill);
        // Reservations a filler must not delay. EASY: the head job only.
        // Conservative: the first reservation_depth waiting jobs; each
        // reservation is computed against the current running set, which
        // yields reservation times no later than the true ones — a stricter
        // (hence safe) admission constraint for fillers.
        std::vector<Reservation>& reservations = p.reservation_scratch();
        reservations.clear();
        const int reservation_count =
            config.backfill == BackfillMode::kEasy
                ? 1
                : std::max(1, config.reservation_depth);
        for (std::size_t q = head;
             q < queue.size() &&
             static_cast<int>(reservations.size()) < reservation_count;
             ++q) {
          if (p.placed(q)) continue;
          auto r = p.reservation(queue[q].alloc_size);
          if (!r) {
            if (q == head) break;  // head can never fit: no safe backfilling
            continue;
          }
          reservations.push_back(std::move(*r));
        }
        if (reservations.empty()) break;

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
          if (p.placed(j)) continue;
          ++examined;
          const WaitingJob& filler = queue[j];
          const std::span<const int> free =
              p.free_candidates(filler.alloc_size);
          if (free.empty()) continue;
          ArenaVector<int> allowed(p.scratch_arena());
          for (const int c : free) {
            if (admissible(p.now() + filler.estimate, catalog.entry(c))) {
              allowed.push_back(c);
            }
          }
          if (allowed.empty()) continue;
          p.place(j, allowed, /*backfill=*/true);
        }
      }
      break;  // FCFS: the head job stays first in line
    }
  }
};

}  // namespace

std::unique_ptr<ISchedulingAlgorithm> make_krevat_algorithm() {
  return std::make_unique<KrevatAlgorithm>();
}

}  // namespace bgl
