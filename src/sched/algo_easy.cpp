// EASY backfilling (Lifka/Skovira, the Maui/SLURM default) and its
// holdback variant, behind the algorithm seam.
//
// Phase 1 is strict FCFS: jobs start in queue order until the first one
// that does not fit (one compaction attempt is allowed for it, like every
// algorithm here). Phase 2 grants that blocked head job the pass's single
// explicit reservation — earliest estimated start plus a concrete partition
// — and admits later jobs iff they cannot delay it: a filler must finish
// before the reservation time or avoid the reserved partition entirely.
// The reservation is recorded in the decision trail (note_reservation) and
// stamped on every backfill placement, so traces carry the provenance the
// auditor re-checks (res_time / res_entry on sched_decision).
//
// The holdback variant (batsched's easy_bf_*_holdback lineage) additionally
// refuses fillers that would shrink the free pool below
// SchedulerConfig::holdback_nodes, keeping headroom for imminent arrivals
// at some cost in utilization.
//
// With the default BackfillMode (kEasy) and equal depths, phase-1 + phase-2
// decisions coincide with the krevat baseline's — asserted by
// tests/sched_algorithms_test.cpp — making "easy" the documented clean-room
// restatement of the paper discipline, plus trace provenance.
#include "sched/algorithm.hpp"

namespace bgl {

namespace {

class EasyAlgorithm final : public ISchedulingAlgorithm {
 public:
  explicit EasyAlgorithm(bool holdback) : holdback_(holdback) {}

  const char* name() const override {
    return holdback_ ? "easy-holdback" : "easy";
  }

  void run(SchedulingPass& p) const override {
    const std::vector<WaitingJob>& queue = p.queue();
    const SchedulerConfig& config = p.config();

    // Phase 1: FCFS until the head blocks.
    std::size_t head = 0;
    while (head < queue.size()) {
      if (p.placed(head)) {
        ++head;
        continue;
      }
      const std::span<const int> candidates =
          p.free_candidates(queue[head].alloc_size);
      if (!candidates.empty()) {
        p.place(head, candidates, /*backfill=*/false);
        ++head;
        continue;
      }
      if (p.try_migration(queue[head].alloc_size)) continue;
      break;  // head blocked
    }
    if (head >= queue.size()) return;
    if (config.backfill == BackfillMode::kNone || config.backfill_depth <= 0) {
      return;
    }

    // Phase 2: the blocked head holds the pass's single reservation.
    obs::ScopedPhase backfill_span(p.profiler(), obs::Phase::kBackfill);
    const std::optional<Reservation> res =
        p.reservation(queue[head].alloc_size);
    if (!res) return;  // head can never fit: no safe backfilling
    p.note_reservation(queue[head].id, *res);

    const PartitionCatalog& catalog = p.catalog();
    const PartitionCatalog::Entry& reserved = catalog.entry(res->entry);
    const int num_nodes = catalog.num_nodes();
    int examined = 0;
    for (std::size_t j = head + 1;
         j < queue.size() && examined < config.backfill_depth; ++j) {
      if (p.placed(j)) continue;
      ++examined;
      const WaitingJob& filler = queue[j];
      if (holdback_) {
        const int free_after =
            num_nodes - p.occupied().count() - filler.alloc_size;
        if (free_after < config.holdback_nodes) continue;
      }
      const std::span<const int> candidates =
          p.free_candidates(filler.alloc_size);
      if (candidates.empty()) continue;
      ArenaVector<int> allowed(p.scratch_arena());
      const bool in_time = p.now() + filler.estimate <= res->time + 1e-9;
      for (const int c : candidates) {
        if (in_time || !catalog.entry(c).intersects(reserved)) {
          allowed.push_back(c);
        }
      }
      if (allowed.empty()) continue;
      p.place(j, allowed, /*backfill=*/true, &*res);
    }
  }

 private:
  bool holdback_;
};

}  // namespace

std::unique_ptr<ISchedulingAlgorithm> make_easy_algorithm(bool holdback) {
  return std::make_unique<EasyAlgorithm>(holdback);
}

}  // namespace bgl
