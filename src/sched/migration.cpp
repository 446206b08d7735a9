#include "sched/migration.hpp"

#include <algorithm>

#include "sched/policy.hpp"
#include "util/error.hpp"

namespace bgl {

std::optional<RepackResult> try_repack(const PartitionCatalog& catalog,
                                       const std::vector<RunningJob>& running,
                                       int head_alloc_size, PlacementArena& arena,
                                       const NodeSet* obstacles) {
  ArenaVector<RunningJob> order(arena);
  order.reserve(running.size());
  ArenaVector<int> candidates(arena);
  for (const RunningJob& r : running) order.push_back(r);
  std::sort(order.data(), order.data() + order.size(),
            [&](const RunningJob& a, const RunningJob& b) {
              const int sa = catalog.entry(a.entry_index).size;
              const int sb = catalog.entry(b.entry_index).size;
              if (sa != sb) return sa > sb;  // largest first packs best
              if (a.est_finish != b.est_finish) return a.est_finish > b.est_finish;
              return a.id < b.id;
            });

  RepackResult result;
  if (obstacles != nullptr) {
    BGL_CHECK(obstacles->bits() == catalog.num_nodes(),
              "obstacle set width must match the machine");
    result.occupied_after = *obstacles;
  } else {
    result.occupied_after = NodeSet(catalog.num_nodes());
  }
  result.running_after.reserve(order.size());

  MfpLossPolicy packer;
  NodeSet no_flags(catalog.num_nodes());

  for (const RunningJob& r : order) {
    const int size = catalog.entry(r.entry_index).size;
    candidates.clear();
    catalog.free_entries_of_size(result.occupied_after, size, candidates);
    if (candidates.empty()) return std::nullopt;  // greedy packing failed

    PlacementContext ctx;
    ctx.catalog = &catalog;
    ctx.occupied = &result.occupied_after;
    ctx.mfp_before_index = catalog.first_free_index(result.occupied_after);
    ctx.mfp_before_size =
        ctx.mfp_before_index < 0 ? 0 : catalog.entry(ctx.mfp_before_index).size;
    ctx.flagged = &no_flags;
    ctx.job_size = size;
    ctx.arena = &arena;
    const int chosen = packer.choose(ctx, std::span<const int>(candidates));

    const PartitionCatalog::Entry& entry = catalog.entry(chosen);
    result.occupied_after.unite(entry.mask, entry.span());
    RunningJob moved = r;
    moved.entry_index = chosen;
    result.running_after.push_back(moved);
    if (chosen != r.entry_index) {
      result.migrations.push_back(Migration{r.id, r.entry_index, chosen});
    }
  }

  if (!catalog.has_free_of_size(result.occupied_after, head_alloc_size)) {
    return std::nullopt;  // compaction does not help the head job
  }
  return result;
}

}  // namespace bgl
