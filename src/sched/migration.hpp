// Migration: torus compaction by re-packing running jobs.
//
// Krevat's scheduler can migrate running jobs (checkpoint, move, restart;
// instantaneous here because the paper's study excludes checkpoint costs)
// to defragment the torus. We re-pack greedily: running jobs sorted by
// partition size descending are placed onto an empty scratch torus with the
// MFP-loss heuristic; the compaction is adopted only if the stuck head job
// then fits.
#pragma once

#include <optional>
#include <vector>

#include "sched/arena.hpp"
#include "sched/types.hpp"
#include "torus/catalog.hpp"

namespace bgl {

struct RepackResult {
  std::vector<Migration> migrations;  ///< Only jobs whose partition changed.
  NodeSet occupied_after;             ///< Occupancy after the re-pack.
  std::vector<RunningJob> running_after;  ///< Same jobs, updated entries.
};

/// Attempt a compaction that frees a partition of `head_alloc_size` nodes.
/// `obstacles`, when non-null, marks nodes that are busy for reasons other
/// than a running job — failed nodes still inside their downtime window —
/// and that the packer must route around; they are seeded into the scratch
/// occupancy and carried through into `occupied_after`.
/// `arena` supplies the sort/candidate scratch buffers (the engine passes
/// its per-decision arena).
/// Returns nullopt if the greedy packing fails or still leaves no room.
std::optional<RepackResult> try_repack(const PartitionCatalog& catalog,
                                       const std::vector<RunningJob>& running,
                                       int head_alloc_size, PlacementArena& arena,
                                       const NodeSet* obstacles = nullptr);

}  // namespace bgl
