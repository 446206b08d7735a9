// Spatial reservation computation shared by every backfilling discipline.
//
// To backfill without delaying a blocked job we compute its *reservation*:
// the earliest time it could start if no further jobs were admitted, found
// by replaying the running jobs' estimated completions onto a scratch
// occupancy. The reservation fixes a concrete partition, a catalog entry
// whose mask admission tests read from the catalog. A waiting job may jump
// the queue iff it fits now and either (a) its estimated completion is no
// later than the reservation time or (b) its partition is disjoint from the
// reserved partition's nodes.
//
// Note this is a *single-shot spatial* reservation against the current
// running set — how many jobs hold one, and whether reservations stack into
// a schedule profile, is the algorithm's discipline (src/sched/algorithm.hpp):
// the krevat baseline reserves for the head only (or the first
// reservation_depth jobs, each independently, under BackfillMode::
// kConservative); the EASY algorithm records the head's reservation in the
// trace; the conservative algorithm layers reservations into a profile so
// no queued job is ever delayed (algo_conservative.cpp).
#pragma once

#include <optional>
#include <vector>

#include "sched/arena.hpp"
#include "sched/types.hpp"
#include "torus/catalog.hpp"

namespace bgl {

struct Reservation {
  double time = 0.0;   ///< Earliest estimated start of the reserved job.
  int entry = -1;      ///< Catalog entry of the partition reserved for it.
};

/// Compute a blocked job's reservation given current occupancy and the
/// estimated finish times of running jobs (including any jobs started
/// earlier in the same scheduling pass). Returns nullopt only if the job
/// can never fit (alloc_size has no partitions — callers guard against it).
/// `arena` supplies the candidate and sorted-running scratch buffers (the
/// engine passes its per-decision arena).
std::optional<Reservation> compute_reservation(const PartitionCatalog& catalog,
                                               const NodeSet& occupied,
                                               const std::vector<RunningJob>& running,
                                               int alloc_size, double now,
                                               PlacementArena& arena);

}  // namespace bgl
