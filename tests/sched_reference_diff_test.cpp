// Differential gate for the algorithm seam (src/sched/algorithm.hpp).
//
// reference_schedule() below is a frozen, line-for-line copy of
// Scheduler::schedule() as it existed immediately before the seam refactor
// (pre-seam scheduler.cpp, with member state turned into locals). The tests
// replay randomized machine states through both the frozen loop and the
// seam-hosted default algorithm and require byte-equal decisions, audit
// records and counters across the whole config grid — backfill modes,
// migration, indexed and scan paths, all three policies.
//
// Do not "fix" or modernise the reference when the engine changes: its
// whole value is that it does NOT follow refactors. If a deliberate
// behaviour change lands, regenerate the reference from the last commit
// before the change and say so in the commit message. Two edits were made.
// When the engine lost its allocating scratch mode, the loop kept only its
// arena branch (pooled predictor query, arena passed to try_repack /
// compute_reservation / the policy). When Reservation lost its node mask,
// the admissibility test began reading the reserved entry's mask from the
// catalog.
#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <sstream>
#include <tuple>

#include "failure/trace.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "sched/backfill.hpp"
#include "sched/migration.hpp"
#include "torus/index.hpp"

namespace bgl {
namespace {

const Dims kBgl = Dims::bluegene_l();

const PartitionCatalog& catalog() {
  static PartitionCatalog instance(kBgl);
  return instance;
}

struct RefScratch {
  PlacementArena arena;
  NodeSet occ;
  NodeSet flagged;
  NodeSet obstacles;
  std::vector<RunningJob> live;
  std::vector<Reservation> reservations;
};

// ---- frozen pre-seam Scheduler::schedule() (do not modernise) ----------
SchedulingDecision reference_schedule(const PartitionCatalog& cat,
                                      PlacementPolicy& policy,
                                      const FaultPredictor& predictor,
                                      const SchedulerConfig& config,
                                      const obs::Observer& obs, double now,
                                      const std::vector<WaitingJob>& queue,
                                      const std::vector<RunningJob>& running,
                                      const NodeSet& occupied,
                                      const FreePartitionIndex* index) {
  if (obs.counters != nullptr) {
    obs.counters->add(obs::Counter::kSchedInvocations);
  }
  const bool tracing = obs.trace != nullptr;

  SchedulingDecision decision;

  RefScratch local;
  RefScratch& s = local;
  PlacementArena* arena = &s.arena;
  s.arena.reset();
  s.occ = occupied;
  s.live.assign(running.begin(), running.end());
  NodeSet& occ = s.occ;
  std::vector<RunningJob>& live = s.live;

  ArenaVector<char> placed(s.arena);
  placed.assign(queue.size(), 0);
  ArenaVector<int> candidates(s.arena);
  bool migration_tried = false;

  std::unique_ptr<FreePartitionIndex> scratch_index;
  FreePartitionIndex* idx = nullptr;
  if (index != nullptr) {
    BGL_CHECK(index->occupied() == occupied,
              "free-partition index out of sync with occupancy");
    scratch_index = std::make_unique<FreePartitionIndex>(*index);
    idx = scratch_index.get();
  }

  auto make_context = [&](const NodeSet& o, const NodeSet& flagged,
                          int job_size, const FreePartitionIndex* ix,
                          PlacementArena* ar) {
    PlacementContext ctx;
    ctx.catalog = &cat;
    ctx.occupied = &o;
    ctx.index = ix;
    ctx.mfp_before_index =
        ix != nullptr ? ix->first_free_index() : cat.first_free_index(o);
    ctx.mfp_before_size =
        ctx.mfp_before_index < 0 ? 0 : cat.entry(ctx.mfp_before_index).size;
    ctx.flagged = &flagged;
    ctx.confidence = predictor.confidence();
    ctx.pf_rule = config.pf_rule;
    ctx.job_size = job_size;
    ctx.counters = obs.counters;
    ctx.arena = ar;
    return ctx;
  };

  auto query_predictor = [&](const WaitingJob& job) -> const NodeSet& {
    predictor.flagged_nodes_into(s.flagged, now, now + job.estimate, job.id);
    if (obs.counters != nullptr || tracing) {
      const int n_flagged = s.flagged.count();
      if (obs.counters != nullptr) {
        obs.counters->add(obs::Counter::kPredictorQueries);
        obs.counters->add(obs::Counter::kPredictorNodesFlagged,
                          static_cast<std::uint64_t>(n_flagged));
      }
      if (tracing) {
        decision.predictor_queries.push_back(
            PredictorQueryRecord{job.id, now, now + job.estimate, n_flagged});
      }
    }
    return s.flagged;
  };

  auto note_scan = [&](int alloc_size, std::size_t found) {
    if (obs.counters == nullptr) return;
    const auto [first, last] = cat.size_range(alloc_size);
    obs.counters->add(obs::Counter::kPartitionsScanned,
                      static_cast<std::uint64_t>(last - first));
    obs.counters->add(obs::Counter::kCandidatesConsidered,
                      static_cast<std::uint64_t>(found));
  };

  auto start_job = [&](const WaitingJob& job, int entry_index,
                       const NodeSet& flagged, std::span<const int> considered,
                       const PlacementExplain& explain, bool backfill) {
    decision.starts.push_back(Start{job.id, entry_index});
    if (cat.entry(entry_index).mask.intersects(flagged)) {
      ++decision.starts_on_flagged;
      for (const int c : considered) {
        if (!cat.entry(c).mask.intersects(flagged)) {
          ++decision.flagged_with_alternative;
          break;
        }
      }
    }
    occ |= cat.entry(entry_index).mask;
    if (idx != nullptr) idx->occupy(cat.entry(entry_index).mask);
    live.push_back(RunningJob{job.id, entry_index, now + job.estimate});
    if (obs.counters != nullptr) {
      obs.counters->add(obs::Counter::kSchedStarts);
      if (backfill) obs.counters->add(obs::Counter::kSchedBackfillStarts);
    }
    if (obs.histograms != nullptr) {
      obs.histograms->add(obs::Hist::kCandidates,
                          static_cast<double>(considered.size()));
    }
    if (tracing) {
      decision.placements.push_back(PlacementRecord{
          job.id, entry_index, static_cast<int>(considered.size()),
          explain.flags, explain.l_mfp, explain.l_pf, explain.e_loss,
          explain.mfp_after, backfill});
    }
  };

  std::size_t head = 0;
  while (head < queue.size()) {
    if (placed[head]) {
      ++head;
      continue;
    }
    const WaitingJob& job = queue[head];
    BGL_CHECK(job.alloc_size > 0 && job.alloc_size <= cat.num_nodes(),
              "waiting job has invalid alloc size");

    candidates.clear();
    if (idx != nullptr) {
      idx->free_entries_of_size(job.alloc_size, candidates);
    } else {
      cat.free_entries_of_size(occ, job.alloc_size, candidates);
    }
    note_scan(job.alloc_size, candidates.size());
    if (!candidates.empty()) {
      const NodeSet& flagged = query_predictor(job);
      const PlacementContext ctx = make_context(occ, flagged, job.size, idx, arena);
      PlacementExplain explain;
      const int chosen =
          policy.choose(ctx, candidates, tracing ? &explain : nullptr);
      start_job(job, chosen, flagged, candidates, explain, /*backfill=*/false);
      placed[head] = 1;
      ++head;
      continue;
    }

    if (config.migration && !migration_tried && !live.empty()) {
      migration_tried = true;
      s.obstacles = occ;
      for (const RunningJob& r : live) {
        s.obstacles.subtract(cat.entry(r.entry_index).mask);
      }
      if (auto repack =
              try_repack(cat, live, job.alloc_size, *arena, &s.obstacles)) {
        for (const Migration& m : repack->migrations) {
          bool was_started_here = false;
          for (std::size_t s_i = 0; s_i < decision.starts.size(); ++s_i) {
            if (decision.starts[s_i].id == m.id) {
              decision.starts[s_i].entry_index = m.to_entry;
              if (tracing) decision.placements[s_i].entry_index = m.to_entry;
              was_started_here = true;
              break;
            }
          }
          if (!was_started_here) decision.migrations.push_back(m);
        }
        occ = std::move(repack->occupied_after);
        live = std::move(repack->running_after);
        if (idx != nullptr) idx->reset(occ);
        continue;
      }
    }

    if (config.backfill != BackfillMode::kNone && config.backfill_depth > 0) {
      std::vector<Reservation>& reservations = s.reservations;
      reservations.clear();
      const int reservation_count =
          config.backfill == BackfillMode::kEasy
              ? 1
              : std::max(1, config.reservation_depth);
      for (std::size_t q = head;
           q < queue.size() &&
           static_cast<int>(reservations.size()) < reservation_count;
           ++q) {
        if (placed[q]) continue;
        auto r = compute_reservation(cat, occ, live, queue[q].alloc_size, now,
                                     *arena);
        if (!r) {
          if (q == head) break;
          continue;
        }
        reservations.push_back(std::move(*r));
      }
      if (reservations.empty()) break;

      auto admissible = [&](double est_finish, const NodeSet& mask) {
        for (const Reservation& r : reservations) {
          const bool in_time = est_finish <= r.time + 1e-9;
          if (!in_time && mask.intersects(cat.entry(r.entry).mask)) return false;
        }
        return true;
      };

      int examined = 0;
      for (std::size_t j = head + 1;
           j < queue.size() && examined < config.backfill_depth; ++j) {
        if (placed[j]) continue;
        ++examined;
        const WaitingJob& filler = queue[j];
        candidates.clear();
        if (idx != nullptr) {
          idx->free_entries_of_size(filler.alloc_size, candidates);
        } else {
          cat.free_entries_of_size(occ, filler.alloc_size, candidates);
        }
        note_scan(filler.alloc_size, candidates.size());
        if (candidates.empty()) continue;
        ArenaVector<int> allowed(s.arena);
        for (const int c : candidates) {
          if (admissible(now + filler.estimate, cat.entry(c).mask)) {
            allowed.push_back(c);
          }
        }
        if (allowed.empty()) continue;
        const NodeSet& flagged = query_predictor(filler);
        const PlacementContext ctx =
            make_context(occ, flagged, filler.size, idx, arena);
        PlacementExplain explain;
        const int chosen =
            policy.choose(ctx, allowed, tracing ? &explain : nullptr);
        start_job(filler, chosen, flagged, allowed, explain, /*backfill=*/true);
        placed[j] = 1;
      }
    }
    break;
  }

  if (obs.counters != nullptr) {
    obs.counters->add(obs::Counter::kSchedMigrations,
                      static_cast<std::uint64_t>(decision.migrations.size()));
  }
  return decision;
}
// ---- end of frozen reference -------------------------------------------

// Deterministic scenario generator: a non-overlapping running set, optional
// orphan (down-node) occupancy, and a queue mixing large blockers with
// small fillers so the backfill and migration paths actually fire.
struct Scenario {
  double now = 0.0;
  std::vector<RunningJob> running;
  NodeSet occupied{128};
  std::vector<WaitingJob> queue;
};

Scenario make_scenario(std::mt19937_64& rng) {
  Scenario sc;
  sc.now = std::uniform_real_distribution<double>(0.0, 1e4)(rng);

  std::uniform_int_distribution<int> entry_dist(0, catalog().num_entries() - 1);
  const int n_running = std::uniform_int_distribution<int>(0, 5)(rng);
  std::uint64_t id = 100;
  for (int i = 0; i < n_running; ++i) {
    for (int tries = 0; tries < 32; ++tries) {
      const int e = entry_dist(rng);
      if (catalog().entry(e).size > 64) continue;
      if (sc.occupied.intersects(catalog().entry(e).mask)) continue;
      sc.occupied |= catalog().entry(e).mask;
      sc.running.push_back(RunningJob{
          id++, e,
          sc.now + std::uniform_real_distribution<double>(10.0, 5e3)(rng)});
      break;
    }
  }
  // Occasionally some occupancy belongs to no job (down nodes): the
  // migration path must carry it through repacks as obstacles.
  if (std::bernoulli_distribution(0.3)(rng)) {
    std::uniform_int_distribution<int> node(0, 127);
    for (int i = 0; i < 4; ++i) sc.occupied.set(node(rng));
  }

  const int n_queue = std::uniform_int_distribution<int>(1, 10)(rng);
  for (int j = 0; j < n_queue; ++j) {
    // Sample sizes from real catalog entries so every request is allocatable;
    // bias the head of the queue toward large blockers.
    int size = catalog().entry(entry_dist(rng)).size;
    if (j == 0 && std::bernoulli_distribution(0.6)(rng)) {
      size = std::max(size, 64 + 8 * std::uniform_int_distribution<int>(0, 8)(rng));
      size = std::min(size, 128);
    }
    sc.queue.push_back(WaitingJob{
        static_cast<std::uint64_t>(j), size, size,
        std::uniform_real_distribution<double>(50.0, 5e3)(rng)});
  }
  return sc;
}

void expect_equal(const SchedulingDecision& a, const SchedulingDecision& b,
                  const char* label) {
  ASSERT_EQ(a.starts.size(), b.starts.size()) << label;
  for (std::size_t i = 0; i < a.starts.size(); ++i) {
    EXPECT_EQ(a.starts[i].id, b.starts[i].id) << label << " start " << i;
    EXPECT_EQ(a.starts[i].entry_index, b.starts[i].entry_index)
        << label << " start " << i;
  }
  ASSERT_EQ(a.migrations.size(), b.migrations.size()) << label;
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    EXPECT_EQ(a.migrations[i].id, b.migrations[i].id) << label;
    EXPECT_EQ(a.migrations[i].from_entry, b.migrations[i].from_entry) << label;
    EXPECT_EQ(a.migrations[i].to_entry, b.migrations[i].to_entry) << label;
  }
  EXPECT_EQ(a.starts_on_flagged, b.starts_on_flagged) << label;
  EXPECT_EQ(a.flagged_with_alternative, b.flagged_with_alternative) << label;
  ASSERT_EQ(a.placements.size(), b.placements.size()) << label;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    const PlacementRecord& pa = a.placements[i];
    const PlacementRecord& pb = b.placements[i];
    EXPECT_EQ(pa.id, pb.id) << label;
    EXPECT_EQ(pa.entry_index, pb.entry_index) << label;
    EXPECT_EQ(pa.candidates, pb.candidates) << label;
    EXPECT_EQ(pa.flags_in_chosen, pb.flags_in_chosen) << label;
    EXPECT_EQ(pa.l_mfp, pb.l_mfp) << label;       // bit-equal, not near
    EXPECT_EQ(pa.l_pf, pb.l_pf) << label;
    EXPECT_EQ(pa.e_loss, pb.e_loss) << label;
    EXPECT_EQ(pa.mfp_after, pb.mfp_after) << label;
    EXPECT_EQ(pa.backfill, pb.backfill) << label;
    EXPECT_EQ(pa.res_time, pb.res_time) << label;
    EXPECT_EQ(pa.res_entry, pb.res_entry) << label;
  }
  ASSERT_EQ(a.predictor_queries.size(), b.predictor_queries.size()) << label;
  for (std::size_t i = 0; i < a.predictor_queries.size(); ++i) {
    EXPECT_EQ(a.predictor_queries[i].id, b.predictor_queries[i].id) << label;
    EXPECT_EQ(a.predictor_queries[i].nodes_flagged,
              b.predictor_queries[i].nodes_flagged)
        << label;
  }
  // The default algorithm must not grow a reservation trail: that would
  // change sched_decision emission and break pre-seam trace identity.
  EXPECT_TRUE(b.reservations.empty()) << label;
}

// `occupied` with `d` applied: every mover leaves its old partition, then
// movers and starts take their new ones. The indexed pass must leave the
// caller's index holding exactly this.
NodeSet applied(const NodeSet& occupied, const SchedulingDecision& d) {
  NodeSet occ = occupied;
  for (const Migration& m : d.migrations) {
    occ.subtract(catalog().entry(m.from_entry).mask);
  }
  for (const Migration& m : d.migrations) occ |= catalog().entry(m.to_entry).mask;
  for (const Start& s : d.starts) occ |= catalog().entry(s.entry_index).mask;
  return occ;
}

// A running set as (id, entry, est_finish) triples. A set, because after a
// compaction the indexed pass leaves the running set in the repack's order,
// which no consumer reads.
using RunningSet = std::set<std::tuple<std::uint64_t, int, double>>;

RunningSet as_set(const std::vector<RunningJob>& running) {
  RunningSet out;
  for (const RunningJob& r : running) out.emplace(r.id, r.entry_index, r.est_finish);
  return out;
}

// The scenario's running set with `d` applied: movers take their new
// partitions, and each started job joins at now + its estimate. The
// indexed pass must leave the caller's running set holding exactly this.
RunningSet applied_running(const Scenario& sc, const SchedulingDecision& d) {
  std::vector<RunningJob> running = sc.running;
  for (const Migration& m : d.migrations) {
    for (RunningJob& r : running) {
      if (r.id == m.id) r.entry_index = m.to_entry;
    }
  }
  for (const Start& st : d.starts) {
    for (const WaitingJob& w : sc.queue) {
      if (w.id == st.id) {
        running.push_back(RunningJob{st.id, st.entry_index, sc.now + w.estimate});
      }
    }
  }
  return as_set(running);
}

// Non-timing counters the two engines must agree on exactly.
const obs::Counter kComparedCounters[] = {
    obs::Counter::kSchedInvocations,    obs::Counter::kSchedStarts,
    obs::Counter::kSchedBackfillStarts, obs::Counter::kSchedMigrations,
    obs::Counter::kPredictorQueries,    obs::Counter::kPredictorNodesFlagged,
    obs::Counter::kPartitionsScanned,   obs::Counter::kCandidatesConsidered,
};

struct PolicyCase {
  const char* label;
  std::unique_ptr<PlacementPolicy> (*make_policy)();
};

TEST(SeamReference, DefaultAlgorithmMatchesFrozenLoopAcrossConfigGrid) {
  const FailureTrace trace({{2e3, 5}, {4e3, 77}, {9e3, 19}, {1.5e4, 101}}, 128);

  const PolicyCase policies[] = {
      {"mfp-loss",
       []() -> std::unique_ptr<PlacementPolicy> {
         return std::make_unique<MfpLossPolicy>();
       }},
      {"balancing",
       []() -> std::unique_ptr<PlacementPolicy> {
         return std::make_unique<BalancingPolicy>();
       }},
      {"tie-break",
       []() -> std::unique_ptr<PlacementPolicy> {
         return std::make_unique<TieBreakPolicy>();
       }},
  };

  std::mt19937_64 rng(20260809);
  int backfill_passes_seen = 0;
  int migrations_seen = 0;
  for (int scenario_i = 0; scenario_i < 60; ++scenario_i) {
    const Scenario sc = make_scenario(rng);
    for (const PolicyCase& pc : policies) {
      // Deterministic (alpha 1) predictors: coin-flip predictors draw from
      // internal RNG state that two engines cannot share.
      BalancingPredictor predictor(trace, 1.0);

      for (const BackfillMode backfill :
           {BackfillMode::kNone, BackfillMode::kEasy,
            BackfillMode::kConservative}) {
        for (const bool migration : {false, true}) {
          SchedulerConfig config;
          config.backfill = backfill;
          config.migration = migration;
          config.backfill_depth = 8;
          config.reservation_depth = 3;

          std::ostringstream ref_trace, eng_trace;
          obs::TraceSink ref_sink(ref_trace), eng_sink(eng_trace);
          obs::CounterRegistry ref_counters, eng_counters;
          obs::Observer ref_obs, eng_obs;
          ref_obs.trace = &ref_sink;
          ref_obs.counters = &ref_counters;
          eng_obs.trace = &eng_sink;
          eng_obs.counters = &eng_counters;

          auto ref_policy = pc.make_policy();
          const SchedulingDecision expected = reference_schedule(
              catalog(), *ref_policy, predictor, config, ref_obs, sc.now,
              sc.queue, sc.running, sc.occupied, nullptr);

          Scheduler engine(catalog(), pc.make_policy(), predictor, config);
          engine.set_observer(eng_obs);
          const SchedulingDecision got =
              engine.schedule(sc.now, sc.queue, sc.running, sc.occupied);

          const std::string label = std::string(pc.label) + "/bf" +
                                    std::to_string(static_cast<int>(backfill)) +
                                    "/mig" + std::to_string(migration) +
                                    "/scenario" + std::to_string(scenario_i);
          expect_equal(expected, got, label.c_str());
          for (const obs::Counter c : kComparedCounters) {
            EXPECT_EQ(ref_counters.value(c), eng_counters.value(c)) << label;
          }

          // The indexed path must match the scan path bit-for-bit too, and
          // commit the decision into the caller's index and running set.
          FreePartitionIndex index(catalog());
          index.reset(sc.occupied);
          std::vector<RunningJob> running = sc.running;
          const SchedulingDecision indexed =
              engine.schedule(sc.now, sc.queue, running, index);
          expect_equal(expected, indexed, (label + "/indexed").c_str());
          EXPECT_TRUE(index.occupied() == applied(sc.occupied, indexed)) << label;
          EXPECT_NO_THROW(index.check_invariants()) << label;
          EXPECT_EQ(running.size(), sc.running.size() + indexed.starts.size())
              << label;
          EXPECT_EQ(as_set(running), applied_running(sc, indexed)) << label;

          for (const PlacementRecord& p : got.placements) {
            if (p.backfill) ++backfill_passes_seen;
          }
          migrations_seen += static_cast<int>(got.migrations.size());
        }
      }
    }
  }
  // The grid must actually exercise the interesting paths, or the identity
  // proof is vacuous.
  EXPECT_GT(backfill_passes_seen, 50);
  EXPECT_GT(migrations_seen, 10);
}

}  // namespace
}  // namespace bgl
