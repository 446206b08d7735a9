#include "sched/backfill.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bgl {

std::optional<Reservation> compute_reservation(const PartitionCatalog& catalog,
                                               const NodeSet& occupied,
                                               const std::vector<RunningJob>& running,
                                               int alloc_size, double now,
                                               PlacementArena& arena) {
  // Immediate fit (callers normally ask only after failing to place, but be
  // correct regardless).
  ArenaVector<int> candidates(arena);
  catalog.free_entries_of_size(occupied, alloc_size, candidates);
  if (!candidates.empty()) return Reservation{now, candidates.front()};

  ArenaVector<RunningJob> order(arena);
  order.reserve(running.size());
  for (const RunningJob& r : running) order.push_back(r);
  std::sort(order.data(), order.data() + order.size(),
            [](const RunningJob& a, const RunningJob& b) {
              if (a.est_finish != b.est_finish) return a.est_finish < b.est_finish;
              return a.id < b.id;
            });

  NodeSet scratch = occupied;
  for (const RunningJob& r : order) {
    BGL_CHECK(r.entry_index >= 0, "running job without a partition");
    const PartitionCatalog::Entry& entry = catalog.entry(r.entry_index);
    scratch.subtract(entry.mask, entry.span());
    candidates.clear();
    catalog.free_entries_of_size(scratch, alloc_size, candidates);
    if (!candidates.empty()) {
      return Reservation{std::max(r.est_finish, now), candidates.front()};
    }
  }
  return std::nullopt;
}

}  // namespace bgl
