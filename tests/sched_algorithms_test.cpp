// Tests of the scheduling-algorithm portfolio (src/sched/algorithm.hpp):
// name round-trips, the easy/krevat coincidence, and the safety invariant
// each discipline advertises — EASY's head reservation is never violated,
// conservative never delays a reserved job, holdback never dips below its
// free-node floor — plus the end-to-end reservation provenance: traces
// from the new algorithms pass the strict auditor and seeded corruptions
// are caught as "reservation".
#include "sched/algorithm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <sstream>
#include <string>

#include "failure/trace.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sim/driver.hpp"

namespace bgl {
namespace {

const Dims kBgl = Dims::bluegene_l();

const PartitionCatalog& catalog() {
  static PartitionCatalog instance(kBgl);
  return instance;
}

// --- names ---------------------------------------------------------------

TEST(SchedAlgorithmRegistry, ToStringParseRoundTrip) {
  for (const SchedAlgorithm a :
       {SchedAlgorithm::kKrevat, SchedAlgorithm::kEasy,
        SchedAlgorithm::kConservative, SchedAlgorithm::kEasyHoldback}) {
    const auto parsed = parse_sched_algorithm(to_string(a));
    ASSERT_TRUE(parsed.has_value()) << to_string(a);
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_FALSE(parse_sched_algorithm("").has_value());
  EXPECT_FALSE(parse_sched_algorithm("fcfs").has_value());
  EXPECT_FALSE(parse_sched_algorithm("EASY").has_value());  // case-sensitive
}

TEST(SchedAlgorithmRegistry, SchedulerExposesConfiguredAlgorithm) {
  SchedulerConfig config;
  config.algorithm = SchedAlgorithm::kConservative;
  NullPredictor predictor(128);
  Scheduler sched(catalog(), std::make_unique<MfpLossPolicy>(), predictor,
                  config);
  EXPECT_STREQ(to_string(sched.config().algorithm), "conservative");
}

// --- scenario harness ----------------------------------------------------

struct Scenario {
  double now = 1000.0;
  std::vector<RunningJob> running;
  NodeSet occupied{128};
  std::vector<WaitingJob> queue;
};

Scenario make_scenario(std::mt19937_64& rng) {
  Scenario sc;
  sc.now = std::uniform_real_distribution<double>(0.0, 1e4)(rng);
  std::uniform_int_distribution<int> entry_dist(0, catalog().num_entries() - 1);
  const int n_running = std::uniform_int_distribution<int>(1, 5)(rng);
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
  const int n_queue = std::uniform_int_distribution<int>(2, 10)(rng);
  for (int j = 0; j < n_queue; ++j) {
    int size = catalog().entry(entry_dist(rng)).size;
    // Large blocker at the head most of the time, so phase 2 runs.
    if (j == 0 && std::bernoulli_distribution(0.8)(rng)) size = 128;
    sc.queue.push_back(WaitingJob{
        static_cast<std::uint64_t>(j), size, size,
        std::uniform_real_distribution<double>(50.0, 5e3)(rng)});
  }
  return sc;
}

struct TracedRun {
  SchedulingDecision decision;
  std::string trace_text;
};

TracedRun run_pass(const Scenario& sc, SchedulerConfig config) {
  const FailureTrace trace({{2e3, 5}, {6e3, 77}}, 128);
  BalancingPredictor predictor(trace, 1.0);
  Scheduler sched(catalog(), std::make_unique<MfpLossPolicy>(), predictor,
                  config);
  std::ostringstream out;
  obs::TraceSink sink(out);  // tracing on: fills placements + reservations
  obs::Observer obs;
  obs.trace = &sink;
  sched.set_observer(obs);
  TracedRun run;
  run.decision = sched.schedule(sc.now, sc.queue, sc.running, sc.occupied);
  run.trace_text = out.str();
  return run;
}

/// Post-pass running set: pre-existing jobs plus everything started this
/// pass (migration-free configs only, so entries are final).
std::vector<RunningJob> post_running(const Scenario& sc,
                                     const SchedulingDecision& d) {
  std::vector<RunningJob> live = sc.running;
  for (const Start& s : d.starts) {
    const WaitingJob& job = *std::find_if(
        sc.queue.begin(), sc.queue.end(),
        [&](const WaitingJob& w) { return w.id == s.id; });
    live.push_back(RunningJob{s.id, s.entry_index, sc.now + job.estimate});
  }
  return live;
}

/// The reservation-safety predicate every discipline advertises: at the
/// reserved start time the reserved partition must be free, assuming jobs
/// finish at their estimates. Equivalently no post-pass running job both
/// overlaps the reserved partition and is estimated to outlive the
/// reservation.
void expect_reservation_feasible(const ReservationRecord& r,
                                 const std::vector<RunningJob>& live,
                                 const char* label) {
  const NodeSet& reserved = catalog().entry(r.entry_index).mask;
  for (const RunningJob& j : live) {
    const bool in_time = j.est_finish <= r.time + 1e-9;
    EXPECT_TRUE(in_time || !catalog().entry(j.entry_index).mask.intersects(
                               reserved))
        << label << ": job " << j.id << " (est_finish " << j.est_finish
        << ") squats on the partition reserved until " << r.time;
  }
}

// --- easy ≡ krevat under the paper's EASY mode ---------------------------

TEST(EasyAlgorithm, DecisionsCoincideWithKrevatBaseline) {
  std::mt19937_64 rng(7);
  int backfills = 0;
  for (int i = 0; i < 80; ++i) {
    const Scenario sc = make_scenario(rng);
    SchedulerConfig base;
    base.backfill = BackfillMode::kEasy;
    base.backfill_depth = 8;
    base.migration = false;

    SchedulerConfig krevat = base;
    krevat.algorithm = SchedAlgorithm::kKrevat;
    SchedulerConfig easy = base;
    easy.algorithm = SchedAlgorithm::kEasy;

    const TracedRun a = run_pass(sc, krevat);
    const TracedRun b = run_pass(sc, easy);

    ASSERT_EQ(a.decision.starts.size(), b.decision.starts.size()) << i;
    for (std::size_t s = 0; s < a.decision.starts.size(); ++s) {
      EXPECT_EQ(a.decision.starts[s].id, b.decision.starts[s].id) << i;
      EXPECT_EQ(a.decision.starts[s].entry_index,
                b.decision.starts[s].entry_index)
          << i;
    }
    // Same placements modulo reservation provenance: krevat never stamps
    // res fields, easy stamps them on every backfill placement.
    ASSERT_EQ(a.decision.placements.size(), b.decision.placements.size());
    for (std::size_t s = 0; s < a.decision.placements.size(); ++s) {
      EXPECT_EQ(a.decision.placements[s].backfill,
                b.decision.placements[s].backfill);
      EXPECT_EQ(a.decision.placements[s].res_entry, -1);
      if (b.decision.placements[s].backfill) {
        ++backfills;
        EXPECT_GE(b.decision.placements[s].res_entry, 0) << i;
        EXPECT_GE(b.decision.placements[s].res_time, sc.now) << i;
      } else {
        EXPECT_EQ(b.decision.placements[s].res_entry, -1) << i;
      }
    }
    EXPECT_TRUE(a.decision.reservations.empty());
  }
  EXPECT_GT(backfills, 20);  // the grid must actually exercise phase 2
}

// --- per-discipline invariants -------------------------------------------

TEST(EasyAlgorithm, HeadReservationNeverViolated) {
  std::mt19937_64 rng(11);
  int reservations_seen = 0;
  for (int i = 0; i < 120; ++i) {
    const Scenario sc = make_scenario(rng);
    SchedulerConfig config;
    config.algorithm = SchedAlgorithm::kEasy;
    config.backfill_depth = 8;
    config.migration = false;
    const TracedRun run = run_pass(sc, config);

    ASSERT_LE(run.decision.reservations.size(), 1u) << i;
    if (run.decision.reservations.empty()) continue;
    ++reservations_seen;
    const ReservationRecord& r = run.decision.reservations.front();
    // The reservation belongs to the first job left waiting.
    std::vector<std::uint64_t> started;
    for (const Start& s : run.decision.starts) started.push_back(s.id);
    const auto holder = std::find_if(
        sc.queue.begin(), sc.queue.end(), [&](const WaitingJob& w) {
          return std::find(started.begin(), started.end(), w.id) ==
                 started.end();
        });
    ASSERT_NE(holder, sc.queue.end()) << i;
    EXPECT_EQ(r.id, holder->id) << i;

    const std::vector<RunningJob> live = post_running(sc, run.decision);
    expect_reservation_feasible(r, live, "easy");
    // Every backfill placement is stamped with the binding reservation.
    for (const PlacementRecord& p : run.decision.placements) {
      if (!p.backfill) continue;
      EXPECT_EQ(p.res_entry, r.entry_index) << i;
      EXPECT_DOUBLE_EQ(p.res_time, r.time) << i;
    }
  }
  EXPECT_GT(reservations_seen, 40);
}

TEST(ConservativeAlgorithm, NoReservedJobEverDelayed) {
  std::mt19937_64 rng(13);
  int multi_reservation_passes = 0;
  for (int i = 0; i < 120; ++i) {
    const Scenario sc = make_scenario(rng);
    SchedulerConfig config;
    config.algorithm = SchedAlgorithm::kConservative;
    config.backfill_depth = 8;
    config.migration = false;
    const TracedRun run = run_pass(sc, config);

    const std::vector<RunningJob> live = post_running(sc, run.decision);
    if (run.decision.reservations.size() > 1) ++multi_reservation_passes;
    for (const ReservationRecord& r : run.decision.reservations) {
      expect_reservation_feasible(r, live, "conservative");
    }
    // Reservations are granted in queue order, one per still-waiting job
    // the pass examined, with no duplicates.
    for (std::size_t a = 0; a + 1 < run.decision.reservations.size(); ++a) {
      EXPECT_LT(run.decision.reservations[a].id,
                run.decision.reservations[a + 1].id)
          << i;
    }
    // A reserved job is by definition not started this pass.
    for (const ReservationRecord& r : run.decision.reservations) {
      for (const Start& s : run.decision.starts) EXPECT_NE(s.id, r.id) << i;
    }
  }
  EXPECT_GT(multi_reservation_passes, 10);
}

TEST(ConservativeAlgorithm, FillersRespectEveryReservationNotJustTheHead) {
  // Direct admission check against the decision trail: each backfill
  // placement must either finish before every granted reservation or avoid
  // its partition. (Feasibility above implies this; checking the admission
  // rule itself localises a failure to the filler, not the slot.)
  std::mt19937_64 rng(17);
  for (int i = 0; i < 120; ++i) {
    const Scenario sc = make_scenario(rng);
    SchedulerConfig config;
    config.algorithm = SchedAlgorithm::kConservative;
    config.backfill_depth = 8;
    config.migration = false;
    const TracedRun run = run_pass(sc, config);
    for (const PlacementRecord& p : run.decision.placements) {
      if (!p.backfill) continue;
      const WaitingJob& filler = *std::find_if(
          sc.queue.begin(), sc.queue.end(),
          [&](const WaitingJob& w) { return w.id == p.id; });
      const NodeSet& mask = catalog().entry(p.entry_index).mask;
      for (const ReservationRecord& r : run.decision.reservations) {
        const bool in_time = sc.now + filler.estimate <= r.time + 1e-9;
        EXPECT_TRUE(in_time ||
                    !mask.intersects(catalog().entry(r.entry_index).mask))
            << i << ": filler " << p.id << " tramples reservation of job "
            << r.id;
      }
    }
  }
}

TEST(EasyHoldbackAlgorithm, FreePoolNeverDipsBelowFloor) {
  std::mt19937_64 rng(19);
  int refusals = 0;
  for (int i = 0; i < 120; ++i) {
    const Scenario sc = make_scenario(rng);
    SchedulerConfig config;
    config.backfill_depth = 8;
    config.migration = false;

    config.algorithm = SchedAlgorithm::kEasyHoldback;
    config.holdback_nodes = 32;
    const TracedRun hold = run_pass(sc, config);

    // Replay the starts in commit order: every backfill start must leave at
    // least holdback_nodes free.
    NodeSet occ = sc.occupied;
    for (const Start& s : hold.decision.starts) {
      const auto rec = std::find_if(
          hold.decision.placements.begin(), hold.decision.placements.end(),
          [&](const PlacementRecord& p) { return p.id == s.id; });
      ASSERT_NE(rec, hold.decision.placements.end());
      occ |= catalog().entry(s.entry_index).mask;
      if (rec->backfill) {
        EXPECT_GE(128 - occ.count(), config.holdback_nodes)
            << i << ": backfilling job " << s.id << " broke the floor";
      }
    }

    // Holdback admits a subset of plain EASY's backfills.
    config.algorithm = SchedAlgorithm::kEasy;
    const TracedRun easy = run_pass(sc, config);
    const auto backfills = [](const SchedulingDecision& d) {
      int n = 0;
      for (const PlacementRecord& p : d.placements) n += p.backfill ? 1 : 0;
      return n;
    };
    EXPECT_LE(backfills(hold.decision), backfills(easy.decision)) << i;
    refusals += backfills(easy.decision) - backfills(hold.decision);
  }
  EXPECT_GT(refusals, 5);  // the floor must actually bind somewhere
}

// --- end-to-end: traces audit clean, corruptions are caught --------------

std::string traced_sim(SchedAlgorithm algorithm) {
  Workload w;
  w.name = "scripted";
  w.machine_nodes = 128;
  w.jobs = {
      Job{1, 0.0, 300.0, 310.0, 64},   // pins half the machine for a while
      Job{2, 10.0, 100.0, 110.0, 128}, // blocked head, gets the reservation
      Job{3, 20.0, 50.0, 60.0, 32},    // backfill fodder (finishes in time)
      Job{4, 30.0, 40.0, 45.0, 32},    // more fodder
      Job{5, 35.0, 30.0, 35.0, 16},    // more fodder
  };
  normalize(w);
  const FailureTrace trace({FailureEvent{40.0, 0}}, 128);
  SimConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.5;
  config.sched.algorithm = algorithm;
  std::ostringstream out;
  obs::TraceSink sink(out);
  config.obs.trace = &sink;
  run_simulation(w, trace, config);
  return out.str();
}

obs::AuditReport audit_string(const std::string& trace) {
  obs::AuditOptions opts;
  opts.strict = true;
  std::istringstream in(trace);
  return obs::audit_trace(in, opts);
}

bool has_code(const obs::AuditReport& report, obs::ViolationCode code) {
  return std::any_of(
      report.violations.begin(), report.violations.end(),
      [code](const obs::Violation& v) { return v.code == code; });
}

TEST(ReservationAudit, AllPortfolioTracesPassStrict) {
  for (const SchedAlgorithm a :
       {SchedAlgorithm::kKrevat, SchedAlgorithm::kEasy,
        SchedAlgorithm::kConservative, SchedAlgorithm::kEasyHoldback}) {
    const std::string trace = traced_sim(a);
    const obs::AuditReport report = audit_string(trace);
    EXPECT_TRUE(report.ok()) << to_string(a) << ": "
                             << report.violations.size() << " violations";
    if (a != SchedAlgorithm::kKrevat) {
      EXPECT_NE(trace.find("\"algorithm\":\"" + std::string(to_string(a)) +
                           "\""),
                std::string::npos);
      EXPECT_NE(trace.find("\"res_time\":"), std::string::npos)
          << to_string(a) << ": no backfill carried reservation provenance";
    } else {
      // Pre-seam byte identity: the default algorithm must not grow fields.
      EXPECT_EQ(trace.find("\"algorithm\":"), std::string::npos);
      EXPECT_EQ(trace.find("\"res_time\":"), std::string::npos);
    }
  }
}

TEST(ReservationAudit, StrippedProvenanceIsCaught) {
  std::string trace = traced_sim(SchedAlgorithm::kEasy);
  // Remove the res fields from the first backfill decision that has them.
  const auto at = trace.find(",\"res_time\":");
  ASSERT_NE(at, std::string::npos);
  const auto end = trace.find('}', at);
  ASSERT_NE(end, std::string::npos);
  trace.erase(at, end - at);
  const obs::AuditReport report = audit_string(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, obs::ViolationCode::kReservation));
}

TEST(ReservationAudit, ForeignProvenanceOnKrevatTraceIsCaught) {
  std::string trace = traced_sim(SchedAlgorithm::kKrevat);
  // Graft reservation fields onto a krevat backfill decision: the auditor
  // must reject provenance the declared algorithm cannot have produced.
  const auto at = trace.find("\"backfill\":true}");
  ASSERT_NE(at, std::string::npos);
  trace.insert(at + std::strlen("\"backfill\":true"),
               ",\"res_time\":1.0,\"res_entry\":0");
  const obs::AuditReport report = audit_string(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, obs::ViolationCode::kReservation));
}

}  // namespace
}  // namespace bgl
