#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "failure/trace.hpp"
#include "obs/trace.hpp"
#include "torus/index.hpp"
#include "util/error.hpp"

namespace bgl {
namespace {

const Dims kBgl = Dims::bluegene_l();

const PartitionCatalog& catalog() {
  static PartitionCatalog instance(kBgl);
  return instance;
}

int entry_of_box(const Box& box) {
  const Box canon = canonicalize(kBgl, box);
  for (int i = 0; i < catalog().num_entries(); ++i) {
    if (catalog().entry(i).box == canon) return i;
  }
  return -1;
}

NodeSet occ_of(const std::vector<RunningJob>& running) {
  NodeSet occ(128);
  for (const RunningJob& r : running) occ |= catalog().entry(r.entry_index).mask;
  return occ;
}

TEST(Scheduler, StartsEveryJobThatFitsFcfs) {
  NullPredictor predictor(128);
  const auto sched = make_krevat_scheduler(catalog(), predictor);
  const std::vector<WaitingJob> queue = {
      WaitingJob{0, 64, 64, 100.0},
      WaitingJob{1, 32, 32, 100.0},
      WaitingJob{2, 32, 32, 100.0},
  };
  const auto decision = sched->schedule(0.0, queue, {}, NodeSet(128));
  ASSERT_EQ(decision.starts.size(), 3u);
  EXPECT_TRUE(decision.migrations.empty());
  // Starts respect queue order.
  EXPECT_EQ(decision.starts[0].id, 0u);
  EXPECT_EQ(decision.starts[1].id, 1u);
  EXPECT_EQ(decision.starts[2].id, 2u);
  // No overlap among chosen partitions.
  NodeSet unioned(128);
  for (const Start& s : decision.starts) {
    const NodeSet& mask = catalog().entry(s.entry_index).mask;
    EXPECT_FALSE(unioned.intersects(mask));
    unioned |= mask;
  }
}

TEST(Scheduler, HeadBlockedStopsFcfsWithoutBackfill) {
  NullPredictor predictor(128);
  SchedulerConfig config;
  config.backfill = BackfillMode::kNone;
  config.migration = false;
  const auto sched = make_krevat_scheduler(catalog(), predictor, config);

  // Half machine busy; head needs the full machine, a small job waits behind.
  const int half = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 4}});
  const std::vector<RunningJob> running = {RunningJob{99, half, 1000.0}};
  const std::vector<WaitingJob> queue = {
      WaitingJob{0, 128, 128, 100.0},
      WaitingJob{1, 8, 8, 100.0},
  };
  const auto decision = sched->schedule(0.0, queue, running, occ_of(running));
  EXPECT_TRUE(decision.starts.empty());  // strict FCFS blocks everyone
}

TEST(Scheduler, BackfillStartsShortJobBehindBlockedHead) {
  NullPredictor predictor(128);
  SchedulerConfig config;
  config.migration = false;
  const auto sched = make_krevat_scheduler(catalog(), predictor, config);

  const int half = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 4}});
  const std::vector<RunningJob> running = {RunningJob{99, half, 1000.0}};
  // Head needs 128 nodes (reservation at t=1000); the filler finishes at
  // t = 0 + 500 <= 1000, so it may run anywhere.
  const std::vector<WaitingJob> queue = {
      WaitingJob{0, 128, 128, 2000.0},
      WaitingJob{1, 8, 8, 500.0},
  };
  const auto decision = sched->schedule(0.0, queue, running, occ_of(running));
  ASSERT_EQ(decision.starts.size(), 1u);
  EXPECT_EQ(decision.starts[0].id, 1u);
}

TEST(Scheduler, BackfillNeverDelaysHeadReservation) {
  NullPredictor predictor(128);
  SchedulerConfig config;
  config.migration = false;
  const auto sched = make_krevat_scheduler(catalog(), predictor, config);

  const int half = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 4}});
  const std::vector<RunningJob> running = {RunningJob{99, half, 1000.0}};
  // Head wants the free half (reservation = now on the free half? no: it
  // wants 128 nodes -> reservation at 1000 over the whole machine). A long
  // filler (estimate 5000 > 1000) would intersect any reservation of the
  // full machine, so it must NOT start.
  const std::vector<WaitingJob> queue = {
      WaitingJob{0, 128, 128, 2000.0},
      WaitingJob{1, 64, 64, 5000.0},
  };
  const auto decision = sched->schedule(0.0, queue, running, occ_of(running));
  EXPECT_TRUE(decision.starts.empty());
}

TEST(Scheduler, BackfillUsesDisjointPartitionForLongFiller) {
  NullPredictor predictor(128);
  SchedulerConfig config;
  config.migration = false;
  const auto sched = make_krevat_scheduler(catalog(), predictor, config);

  // Head wants 64 nodes; it reserves the half freed at t=1000. A long
  // filler fitting in the OTHER free region may start because it is
  // disjoint from the reservation.
  const int busy = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 3}});  // z0-2
  const std::vector<RunningJob> running = {RunningJob{99, busy, 1000.0}};
  // Free: z3-7 (80 nodes). Head wants 128 -> blocked, reservation at 1000 =
  // whole machine... that intersects everything. Make head want 96: no shape
  // of 96 free now (4x4x6 needs 6 contiguous planes, only 5 free) ->
  // reservation at t=1000. Filler of 64 nodes fits in z4-7 and the
  // reservation (full machine region? 96-node partition somewhere) may or
  // may not intersect. To keep the test deterministic use a head of 64 with
  // no current fit: occupy z3 too.
  const int extra = entry_of_box(Box{Coord{0, 0, 3}, Triple{4, 4, 1}});
  std::vector<RunningJob> running2 = {RunningJob{99, busy, 1000.0},
                                      RunningJob{98, extra, 9000.0}};
  // Free: z4-7 = 64 nodes: a 64-node head DOES fit; use 4x4x4 head? It fits
  // immediately then. Instead: head 128, filler 32 in z4-5 with estimate
  // beyond 1000: must still start iff disjoint from reservation. The 128
  // reservation covers everything at t=9000 -> filler with estimate 10000
  // intersects; filler with estimate 8000 <= 9000 starts.
  const std::vector<WaitingJob> queue = {
      WaitingJob{0, 128, 128, 500.0},
      WaitingJob{1, 32, 32, 8000.0},
      WaitingJob{2, 32, 32, 10000.0},
  };
  const auto decision = sched->schedule(0.0, queue, running2, occ_of(running2));
  ASSERT_EQ(decision.starts.size(), 1u);
  EXPECT_EQ(decision.starts[0].id, 1u);
}

TEST(Scheduler, MigrationCompactsForBlockedHead) {
  NullPredictor predictor(128);
  SchedulerConfig config;
  config.backfill = BackfillMode::kNone;
  config.migration = true;
  const auto sched = make_krevat_scheduler(catalog(), predictor, config);

  const int a = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 2}});
  const int b = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 2}});
  const std::vector<RunningJob> running = {RunningJob{10, a, 100.0},
                                           RunningJob{11, b, 200.0}};
  const std::vector<WaitingJob> queue = {WaitingJob{0, 64, 64, 300.0}};
  const auto decision = sched->schedule(0.0, queue, running, occ_of(running));
  ASSERT_EQ(decision.starts.size(), 1u);
  EXPECT_EQ(decision.starts[0].id, 0u);
  EXPECT_FALSE(decision.migrations.empty());
  // Started partition must not overlap the post-migration running jobs.
  NodeSet unioned(128);
  for (const Migration& m : decision.migrations) {
    // applied below via running_after reconstruction
    (void)m;
  }
}

TEST(Scheduler, MigrationDisabledLeavesHeadBlocked) {
  NullPredictor predictor(128);
  SchedulerConfig config;
  config.backfill = BackfillMode::kNone;
  config.migration = false;
  const auto sched = make_krevat_scheduler(catalog(), predictor, config);

  const int a = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 2}});
  const int b = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 2}});
  const std::vector<RunningJob> running = {RunningJob{10, a, 100.0},
                                           RunningJob{11, b, 200.0}};
  const std::vector<WaitingJob> queue = {WaitingJob{0, 64, 64, 300.0}};
  const auto decision = sched->schedule(0.0, queue, running, occ_of(running));
  EXPECT_TRUE(decision.starts.empty());
  EXPECT_TRUE(decision.migrations.empty());
}

TEST(Scheduler, BalancingWithPerfectPredictionAvoidsDoomedPartition) {
  // Node 5 fails at t=50; a job with estimate 100 placed now must avoid it
  // when an equal-quality alternative exists.
  FailureTrace trace({{50.0, 5}}, 128);
  BalancingPredictor predictor(trace, 1.0);
  const auto sched = make_balancing_scheduler(catalog(), predictor);

  const std::vector<WaitingJob> queue = {WaitingJob{0, 64, 64, 100.0}};
  const auto decision = sched->schedule(0.0, queue, {}, NodeSet(128));
  ASSERT_EQ(decision.starts.size(), 1u);
  EXPECT_FALSE(catalog().entry(decision.starts[0].entry_index).mask.test(5));
}

TEST(Scheduler, TieBreakWithPerfectAccuracyAvoidsDoomedPartition) {
  FailureTrace trace({{50.0, 5}}, 128);
  TieBreakPredictor predictor(trace, 1.0);
  const auto sched = make_tiebreak_scheduler(catalog(), predictor);

  const std::vector<WaitingJob> queue = {WaitingJob{0, 64, 64, 100.0}};
  const auto decision = sched->schedule(0.0, queue, {}, NodeSet(128));
  ASSERT_EQ(decision.starts.size(), 1u);
  EXPECT_FALSE(catalog().entry(decision.starts[0].entry_index).mask.test(5));
}

TEST(Scheduler, SchedulerIsPureFunctionOfInputs) {
  FailureTrace trace({{50.0, 5}, {70.0, 9}}, 128);
  TieBreakPredictor predictor(trace, 0.5);
  const auto sched = make_tiebreak_scheduler(catalog(), predictor);
  const std::vector<WaitingJob> queue = {WaitingJob{0, 32, 32, 100.0},
                                         WaitingJob{1, 32, 32, 200.0}};
  const auto d1 = sched->schedule(0.0, queue, {}, NodeSet(128));
  const auto d2 = sched->schedule(0.0, queue, {}, NodeSet(128));
  ASSERT_EQ(d1.starts.size(), d2.starts.size());
  for (std::size_t i = 0; i < d1.starts.size(); ++i) {
    EXPECT_EQ(d1.starts[i].entry_index, d2.starts[i].entry_index);
  }
}

TEST(Scheduler, RepackRewritesPendingStartAndItsPlacementRecord) {
  // Regression: when a same-pass repack relocated a job started earlier in
  // the pass, the pending Start was rewritten but the paired
  // PlacementRecord kept the policy's original (never committed) entry —
  // the trace reported a placement that did not happen.
  //
  // Two single-slab jobs run at z=0 and z=4, fragmenting the torus into
  // two 3-slab runs. Job 0 (16 nodes) starts in one of the runs; job 1
  // (64 nodes) needs 4 contiguous slabs and blocks, triggering a repack.
  // try_repack re-places all three live jobs largest-first from scratch,
  // which packs them into slabs z=0,1,2 — guaranteed to relocate job 0,
  // whose pending start (and audit record) must follow.
  std::ostringstream out;
  obs::TraceSink sink(out);
  NullPredictor predictor(128);
  SchedulerConfig config;
  config.backfill = BackfillMode::kNone;
  config.migration = true;
  const auto sched = make_krevat_scheduler(catalog(), predictor, config);
  obs::Observer observer;
  observer.trace = &sink;
  sched->set_observer(observer);

  const int slab0 = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 1}});
  const int slab4 = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 1}});
  ASSERT_GE(slab0, 0);
  ASSERT_GE(slab4, 0);
  const std::vector<RunningJob> running = {RunningJob{10, slab0, 500.0},
                                           RunningJob{11, slab4, 400.0}};
  const std::vector<WaitingJob> queue = {WaitingJob{0, 16, 16, 300.0},
                                         WaitingJob{1, 64, 64, 100.0}};

  // The entry the policy picks for job 0 when no repack interferes.
  SchedulerConfig no_migration = config;
  no_migration.migration = false;
  const auto plain = make_krevat_scheduler(catalog(), predictor, no_migration);
  const auto undisturbed =
      plain->schedule(0.0, queue, running, occ_of(running));
  ASSERT_EQ(undisturbed.starts.size(), 1u);
  const int original_entry = undisturbed.starts[0].entry_index;

  const auto decision = sched->schedule(0.0, queue, running, occ_of(running));
  ASSERT_EQ(decision.starts.size(), 2u);
  EXPECT_EQ(decision.starts[0].id, 0u);
  EXPECT_EQ(decision.starts[1].id, 1u);
  // The repack relocated job 0's pending start...
  EXPECT_NE(decision.starts[0].entry_index, original_entry);
  // ...as a rewrite, not as a migration of a not-yet-running job...
  for (const Migration& m : decision.migrations) {
    EXPECT_NE(m.id, 0u);
  }
  // ...and the audit record reports the committed partition, not the
  // policy's pre-repack choice.
  ASSERT_EQ(decision.placements.size(), decision.starts.size());
  for (std::size_t i = 0; i < decision.starts.size(); ++i) {
    EXPECT_EQ(decision.placements[i].id, decision.starts[i].id);
    EXPECT_EQ(decision.placements[i].entry_index,
              decision.starts[i].entry_index);
  }
  // Committed starts and post-migration running jobs must not overlap.
  NodeSet occ(128);
  for (const RunningJob& r : running) {
    int entry = r.entry_index;
    for (const Migration& m : decision.migrations) {
      if (m.id == r.id) entry = m.to_entry;
    }
    EXPECT_FALSE(occ.intersects(catalog().entry(entry).mask));
    occ |= catalog().entry(entry).mask;
  }
  for (const Start& s : decision.starts) {
    EXPECT_FALSE(occ.intersects(catalog().entry(s.entry_index).mask));
    occ |= catalog().entry(s.entry_index).mask;
  }

  // The incremental index must not change any of it, and the pass must
  // commit the decision into the caller's index and running set: the
  // repacked jobs plus both starts.
  FreePartitionIndex index(catalog());
  index.reset(occ_of(running));
  std::vector<RunningJob> live = running;
  const auto indexed = sched->schedule(0.0, queue, live, index);
  EXPECT_TRUE(index.occupied() == occ);
  EXPECT_NO_THROW(index.check_invariants());
  // As a set of (id, entry, est_finish): the repack leaves its own order.
  using Key = std::tuple<std::uint64_t, int, double>;
  std::set<Key> want;
  for (const RunningJob& r : running) {
    int entry = r.entry_index;
    for (const Migration& m : decision.migrations) {
      if (m.id == r.id) entry = m.to_entry;
    }
    want.emplace(r.id, entry, r.est_finish);
  }
  for (const Start& st : decision.starts) {
    for (const WaitingJob& w : queue) {
      if (w.id == st.id) want.emplace(st.id, st.entry_index, 0.0 + w.estimate);
    }
  }
  std::set<Key> got;
  for (const RunningJob& r : live) got.emplace(r.id, r.entry_index, r.est_finish);
  EXPECT_EQ(live.size(), want.size());
  EXPECT_EQ(got, want);
  ASSERT_EQ(indexed.starts.size(), decision.starts.size());
  for (std::size_t i = 0; i < decision.starts.size(); ++i) {
    EXPECT_EQ(indexed.starts[i].id, decision.starts[i].id);
    EXPECT_EQ(indexed.starts[i].entry_index, decision.starts[i].entry_index);
  }
  ASSERT_EQ(indexed.migrations.size(), decision.migrations.size());
  for (std::size_t i = 0; i < decision.migrations.size(); ++i) {
    EXPECT_EQ(indexed.migrations[i].id, decision.migrations[i].id);
    EXPECT_EQ(indexed.migrations[i].to_entry, decision.migrations[i].to_entry);
  }
}

TEST(Scheduler, NamesReportPolicies) {
  NullPredictor predictor(128);
  EXPECT_EQ(make_krevat_scheduler(catalog(), predictor)->name(), "mfp-loss");
  EXPECT_EQ(make_balancing_scheduler(catalog(), predictor)->name(), "balancing");
  EXPECT_EQ(make_tiebreak_scheduler(catalog(), predictor)->name(), "tie-break");
}

TEST(Scheduler, ConservativeBackfillOnlyUnderKrevat) {
  // Only the krevat algorithm reads BackfillMode::kConservative; the others
  // would run EASY backfilling under it, so they refuse it instead.
  NullPredictor predictor(128);
  SchedulerConfig config;
  config.backfill = BackfillMode::kConservative;
  EXPECT_NO_THROW(make_krevat_scheduler(catalog(), predictor, config));
  for (const SchedAlgorithm algorithm :
       {SchedAlgorithm::kEasy, SchedAlgorithm::kConservative,
        SchedAlgorithm::kEasyHoldback}) {
    config.algorithm = algorithm;
    try {
      make_krevat_scheduler(catalog(), predictor, config);
      ADD_FAILURE() << to_string(algorithm) << " accepted conservative backfill";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("backfill 'conservative'"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("algorithm '") + to_string(algorithm) + "'"),
                std::string::npos)
          << what;
    }
    config.backfill = BackfillMode::kEasy;
    EXPECT_NO_THROW(make_krevat_scheduler(catalog(), predictor, config));
    config.backfill = BackfillMode::kConservative;
  }
}

TEST(Scheduler, AllocSizeUsedForPlacementSearch) {
  // A 13-node request is rounded to alloc_size 14 by the caller; the
  // scheduler must place the 14-node partition.
  NullPredictor predictor(128);
  const auto sched = make_krevat_scheduler(catalog(), predictor);
  const std::vector<WaitingJob> queue = {WaitingJob{0, 13, 14, 100.0}};
  const auto decision = sched->schedule(0.0, queue, {}, NodeSet(128));
  ASSERT_EQ(decision.starts.size(), 1u);
  EXPECT_EQ(catalog().entry(decision.starts[0].entry_index).size, 14);
}

}  // namespace
}  // namespace bgl
