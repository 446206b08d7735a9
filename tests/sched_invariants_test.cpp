// Property tests: on randomized torus states and queues, every scheduler
// decision must satisfy the structural invariants of §3.3 — no overlap, no
// double starts, no start or move onto a down node, FCFS integrity,
// migration size preservation — regardless of policy, predictor quality,
// algorithm or configuration. Every scenario also runs through the indexed
// pass, which must decide the same and commit exactly that decision into
// the caller's index and running set.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "failure/generator.hpp"
#include "param_names.hpp"
#include "sched/scheduler.hpp"
#include "sim/driver.hpp"  // SchedulerKind
#include "torus/index.hpp"
#include "util/rng.hpp"

namespace bgl {
namespace {

const Dims kBgl = Dims::bluegene_l();

const PartitionCatalog& catalog() {
  static PartitionCatalog instance(kBgl);
  return instance;
}

struct Scenario {
  std::vector<WaitingJob> queue;
  std::vector<RunningJob> running;
  NodeSet occupied{128};
  NodeSet down{128};  ///< Occupied nodes that no running job owns.
  double now = 1000.0;
};

/// Build a random consistent scenario: up to `down_nodes` down nodes, some
/// running jobs on disjoint partitions around them, some waiting jobs with
/// valid alloc sizes. Without down nodes no draw is spent on them.
Scenario random_scenario(Rng& rng, int down_nodes) {
  Scenario sc;
  for (int i = 0; i < down_nodes; ++i) {
    sc.down.set(static_cast<int>(rng.uniform_int(0, 127)));
  }
  sc.occupied |= sc.down;
  // Running jobs: repeatedly pick a random free entry.
  const int num_running = static_cast<int>(rng.uniform_int(0, 6));
  std::uint64_t next_id = 1;
  for (int i = 0; i < num_running; ++i) {
    const int size = catalog().allocatable_size(
        static_cast<int>(rng.uniform_int(1, 64)));
    std::vector<int> free;
    catalog().free_entries_of_size(sc.occupied, size, free);
    if (free.empty()) continue;
    const int entry = free[static_cast<std::size_t>(
        rng.uniform_int(0, free.size() - 1))];
    sc.occupied |= catalog().entry(entry).mask;
    sc.running.push_back(RunningJob{next_id++, entry,
                                    sc.now + rng.uniform(60.0, 7200.0)});
  }
  const int num_waiting = static_cast<int>(rng.uniform_int(1, 10));
  for (int i = 0; i < num_waiting; ++i) {
    const int requested = static_cast<int>(rng.uniform_int(1, 128));
    const int alloc = catalog().allocatable_size(requested);
    sc.queue.push_back(WaitingJob{next_id++, requested, alloc,
                                  rng.uniform(30.0, 36000.0)});
  }
  return sc;
}

struct InvariantCase {
  SchedulerKind kind;
  double alpha;
  BackfillMode backfill;
  bool migration;
  std::uint64_t seed;
  SchedAlgorithm algorithm = SchedAlgorithm::kKrevat;
  int down_nodes = 0;
};

using RunningSet = std::set<std::tuple<std::uint64_t, int, double>>;

RunningSet as_set(const std::vector<RunningJob>& running) {
  RunningSet out;
  for (const RunningJob& r : running) out.emplace(r.id, r.entry_index, r.est_finish);
  return out;
}

class SchedulerInvariants : public ::testing::TestWithParam<InvariantCase> {};

TEST_P(SchedulerInvariants, HoldOnRandomScenarios) {
  const InvariantCase param = GetParam();
  Rng rng(param.seed);

  FailureModel fm = FailureModel::bluegene_l(300, 30.0 * 86400.0);
  const FailureTrace trace = generate_failures(fm, param.seed);

  std::unique_ptr<FaultPredictor> predictor;
  switch (param.kind) {
    case SchedulerKind::kKrevat:
      predictor = std::make_unique<NullPredictor>(128);
      break;
    case SchedulerKind::kBalancing:
      predictor = std::make_unique<BalancingPredictor>(trace, param.alpha);
      break;
    case SchedulerKind::kTieBreak:
      predictor = std::make_unique<TieBreakPredictor>(trace, param.alpha);
      break;
  }
  SchedulerConfig config;
  config.algorithm = param.algorithm;
  config.backfill = param.backfill;
  config.migration = param.migration;
  std::unique_ptr<Scheduler> scheduler;
  switch (param.kind) {
    case SchedulerKind::kKrevat:
      scheduler = make_krevat_scheduler(catalog(), *predictor, config);
      break;
    case SchedulerKind::kBalancing:
      scheduler = make_balancing_scheduler(catalog(), *predictor, config);
      break;
    case SchedulerKind::kTieBreak:
      scheduler = make_tiebreak_scheduler(catalog(), *predictor, config);
      break;
  }

  for (int trial = 0; trial < 40; ++trial) {
    const Scenario sc = random_scenario(rng, param.down_nodes);
    const SchedulingDecision decision =
        scheduler->schedule(sc.now, sc.queue, sc.running, sc.occupied);

    // Determinism: identical inputs give identical decisions.
    const SchedulingDecision again =
        scheduler->schedule(sc.now, sc.queue, sc.running, sc.occupied);
    ASSERT_EQ(decision.starts.size(), again.starts.size());
    for (std::size_t i = 0; i < decision.starts.size(); ++i) {
      EXPECT_EQ(decision.starts[i].id, again.starts[i].id);
      EXPECT_EQ(decision.starts[i].entry_index, again.starts[i].entry_index);
    }

    // Apply migrations to compute the post-migration running masks.
    std::vector<int> entries_after;
    for (const RunningJob& r : sc.running) entries_after.push_back(r.entry_index);
    std::set<std::uint64_t> running_ids;
    for (const RunningJob& r : sc.running) running_ids.insert(r.id);
    for (const Migration& m : decision.migrations) {
      EXPECT_TRUE(running_ids.count(m.id)) << "migration of non-running job";
      EXPECT_EQ(catalog().entry(m.from_entry).size, catalog().entry(m.to_entry).size)
          << "migration changed partition size";
      for (std::size_t i = 0; i < sc.running.size(); ++i) {
        if (sc.running[i].id == m.id) {
          EXPECT_EQ(entries_after[i], m.from_entry) << "stale migration source";
          entries_after[i] = m.to_entry;
        }
      }
    }

    // Post-migration running partitions must be pairwise disjoint and clear
    // of down nodes.
    NodeSet occ_after = sc.down;
    for (const int entry : entries_after) {
      EXPECT_FALSE(catalog().entry(entry).mask.intersects(occ_after));
      occ_after |= catalog().entry(entry).mask;
    }

    // Starts: unique waiting ids, allocation size honoured, disjoint from
    // everything placed so far.
    std::set<std::uint64_t> started;
    std::set<std::uint64_t> waiting_ids;
    for (const WaitingJob& w : sc.queue) waiting_ids.insert(w.id);
    for (const Start& s : decision.starts) {
      EXPECT_TRUE(waiting_ids.count(s.id)) << "start of unknown job";
      EXPECT_TRUE(started.insert(s.id).second) << "job started twice";
      const auto& entry = catalog().entry(s.entry_index);
      const WaitingJob* job = nullptr;
      for (const WaitingJob& w : sc.queue) {
        if (w.id == s.id) job = &w;
      }
      ASSERT_NE(job, nullptr);
      EXPECT_EQ(entry.size, job->alloc_size);
      EXPECT_FALSE(entry.mask.intersects(occ_after)) << "overlapping start";
      occ_after |= entry.mask;
    }

    // FCFS integrity without backfill: started ids form a queue prefix.
    if (param.backfill == BackfillMode::kNone) {
      for (std::size_t i = 0; i < decision.starts.size(); ++i) {
        EXPECT_EQ(decision.starts[i].id, sc.queue[i].id)
            << "non-prefix start without backfill";
      }
    }

    // The head job must start whenever it fits under the original occupancy.
    if (!decision.starts.empty() || true) {
      std::vector<int> head_candidates;
      catalog().free_entries_of_size(sc.occupied, sc.queue.front().alloc_size,
                                     head_candidates);
      if (!head_candidates.empty()) {
        ASSERT_FALSE(decision.starts.empty()) << "placeable head job not started";
        EXPECT_EQ(decision.starts.front().id, sc.queue.front().id);
      }
    }

    // The indexed pass on the same state decides the same, and leaves the
    // caller's index holding occ_after (down nodes, moved jobs, starts) and
    // its running set holding the moved jobs plus the starts, as a set:
    // after a compaction the running set takes the repack's order.
    FreePartitionIndex index(catalog());
    index.reset(sc.occupied);
    std::vector<RunningJob> running = sc.running;
    const SchedulingDecision indexed =
        scheduler->schedule(sc.now, sc.queue, running, index);
    ASSERT_EQ(indexed.starts.size(), decision.starts.size());
    for (std::size_t i = 0; i < decision.starts.size(); ++i) {
      EXPECT_EQ(indexed.starts[i].id, decision.starts[i].id);
      EXPECT_EQ(indexed.starts[i].entry_index, decision.starts[i].entry_index);
    }
    ASSERT_EQ(indexed.migrations.size(), decision.migrations.size());
    for (std::size_t i = 0; i < decision.migrations.size(); ++i) {
      EXPECT_EQ(indexed.migrations[i].id, decision.migrations[i].id);
      EXPECT_EQ(indexed.migrations[i].from_entry, decision.migrations[i].from_entry);
      EXPECT_EQ(indexed.migrations[i].to_entry, decision.migrations[i].to_entry);
    }
    EXPECT_TRUE(index.occupied() == occ_after);
    EXPECT_NO_THROW(index.check_invariants());
    RunningSet want;
    for (std::size_t i = 0; i < sc.running.size(); ++i) {
      want.emplace(sc.running[i].id, entries_after[i], sc.running[i].est_finish);
    }
    for (const Start& s : decision.starts) {
      for (const WaitingJob& w : sc.queue) {
        if (w.id == s.id) want.emplace(s.id, s.entry_index, sc.now + w.estimate);
      }
    }
    EXPECT_EQ(running.size(), want.size());
    EXPECT_EQ(as_set(running), want);
  }
}

std::string algorithm_name(SchedAlgorithm algorithm) {
  switch (algorithm) {
    case SchedAlgorithm::kKrevat: return "Krevat";
    case SchedAlgorithm::kEasy: return "Easy";
    case SchedAlgorithm::kConservative: return "Conservative";
    case SchedAlgorithm::kEasyHoldback: return "EasyHoldback";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, SchedulerInvariants,
    ::testing::Values(
        InvariantCase{SchedulerKind::kKrevat, 0.0, BackfillMode::kEasy, true, 1},
        InvariantCase{SchedulerKind::kKrevat, 0.0, BackfillMode::kNone, false, 2},
        InvariantCase{SchedulerKind::kKrevat, 0.0, BackfillMode::kConservative, false, 3},
        InvariantCase{SchedulerKind::kKrevat, 0.0, BackfillMode::kNone, true, 4},
        InvariantCase{SchedulerKind::kBalancing, 0.1, BackfillMode::kEasy, true, 5},
        InvariantCase{SchedulerKind::kBalancing, 0.9, BackfillMode::kConservative, true, 6},
        InvariantCase{SchedulerKind::kBalancing, 0.5, BackfillMode::kNone, false, 7},
        InvariantCase{SchedulerKind::kTieBreak, 0.1, BackfillMode::kEasy, true, 8},
        InvariantCase{SchedulerKind::kTieBreak, 0.9, BackfillMode::kConservative, false, 9},
        InvariantCase{SchedulerKind::kTieBreak, 0.5, BackfillMode::kNone, true, 10},
        // Down nodes: occupancy no running job owns, which every start and
        // every repack must route around.
        InvariantCase{SchedulerKind::kKrevat, 0.0, BackfillMode::kEasy, true, 11,
                      SchedAlgorithm::kEasyHoldback, 6},
        InvariantCase{SchedulerKind::kBalancing, 0.5, BackfillMode::kEasy, true, 12,
                      SchedAlgorithm::kEasyHoldback, 12},
        InvariantCase{SchedulerKind::kKrevat, 0.0, BackfillMode::kEasy, true, 13,
                      SchedAlgorithm::kConservative, 6},
        InvariantCase{SchedulerKind::kTieBreak, 0.9, BackfillMode::kEasy, false, 14,
                      SchedAlgorithm::kConservative, 12}),
    [](const ::testing::TestParamInfo<InvariantCase>& info) {
      const InvariantCase& c = info.param;
      std::string name = test::scheduler_name(c.kind) + "_Alpha" +
                         test::number_name(c.alpha) + "_" +
                         test::backfill_name(c.backfill) +
                         (c.migration ? "_Migration" : "_NoMigration") + "_Seed" +
                         std::to_string(c.seed);
      if (c.algorithm != SchedAlgorithm::kKrevat) {
        name += "_Algo" + algorithm_name(c.algorithm);
      }
      if (c.down_nodes > 0) name += "_Down" + std::to_string(c.down_nodes);
      return name;
    });

}  // namespace
}  // namespace bgl
