// Tests for the extension features layered on the paper's model: mesh
// topology, conservative backfilling, queue-order policies, and the
// history-based predictor.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "failure/generator.hpp"
#include "predict/predictor.hpp"
#include "sim/driver.hpp"
#include "workload/synthetic.hpp"

namespace bgl {
namespace {

struct Inputs {
  Workload workload;
  FailureTrace trace;
};

Inputs inputs(int jobs, double failures_per_day, std::uint64_t seed) {
  SyntheticModel model = SyntheticModel::sdsc();
  model.num_jobs = jobs;
  Workload w = generate_workload(model, seed);
  w = rescale_sizes(w, 128);
  const double span = w.arrival_span() * 1.05 + 2.0 * 36.0 * 3600.0;
  FailureModel fm = FailureModel::bluegene_l(
      static_cast<std::size_t>(failures_per_day * span / 86400.0), span);
  return Inputs{std::move(w), generate_failures(fm, seed ^ 0xabcd)};
}

// --- mesh topology ---

TEST(MeshTopology, CatalogEntryCountsMatchClosedForm) {
  // Mesh: extent e admits D - e + 1 bases; per dimension sum = D(D+1)/2.
  PartitionCatalog mesh(Dims::bluegene_l(), Topology::kMesh);
  EXPECT_EQ(mesh.num_entries(), 10 * 10 * 36);
  EXPECT_EQ(mesh.topology(), Topology::kMesh);
  // All masks are contiguous boxes without wrap: base + extent <= dim.
  for (int i = 0; i < mesh.num_entries(); ++i) {
    const Box& b = mesh.entry(i).box;
    EXPECT_LE(b.base.x + b.shape.x, 4);
    EXPECT_LE(b.base.y + b.shape.y, 4);
    EXPECT_LE(b.base.z + b.shape.z, 8);
  }
}

TEST(MeshTopology, MeshEntriesAreSubsetOfTorusEntries) {
  PartitionCatalog mesh(Dims{3, 3, 3}, Topology::kMesh);
  PartitionCatalog torus(Dims{3, 3, 3}, Topology::kTorus);
  EXPECT_LT(mesh.num_entries(), torus.num_entries());
  for (int i = 0; i < mesh.num_entries(); ++i) {
    bool found = false;
    for (int j = 0; j < torus.num_entries() && !found; ++j) {
      found = mesh.entry(i).mask == torus.entry(j).mask;
    }
    EXPECT_TRUE(found) << to_string(mesh.entry(i).box);
  }
}

TEST(MeshTopology, MeshMfpNeverExceedsTorusMfp) {
  PartitionCatalog mesh(Dims::bluegene_l(), Topology::kMesh);
  PartitionCatalog torus(Dims::bluegene_l(), Topology::kTorus);
  NodeSet occ(128);
  occ.set(node_id(Dims::bluegene_l(), Coord{1, 1, 3}));
  occ.set(node_id(Dims::bluegene_l(), Coord{2, 3, 6}));
  EXPECT_LE(mesh.mfp(occ), torus.mfp(occ));
}

TEST(MeshTopology, SimulationRunsAndFragmentsMore) {
  const Inputs in = inputs(300, 0.0, 9);
  SimConfig torus_config;
  torus_config.scheduler = SchedulerKind::kKrevat;
  SimConfig mesh_config = torus_config;
  mesh_config.topology = Topology::kMesh;

  const SimResult torus_r = run_simulation(in.workload, in.trace, torus_config);
  const SimResult mesh_r = run_simulation(in.workload, in.trace, mesh_config);
  EXPECT_EQ(mesh_r.jobs_completed, in.workload.jobs.size());
  // Fewer placement options can only hurt (or equal) responsiveness.
  EXPECT_GE(mesh_r.avg_response, torus_r.avg_response * 0.99);
}

// --- conservative backfilling ---

TEST(ConservativeBackfill, NeverMoreAggressiveThanEasy) {
  const Inputs in = inputs(400, 5.0, 17);
  SimConfig easy;
  easy.scheduler = SchedulerKind::kKrevat;
  easy.sched.backfill = BackfillMode::kEasy;
  SimConfig conservative = easy;
  conservative.sched.backfill = BackfillMode::kConservative;
  SimConfig none = easy;
  none.sched.backfill = BackfillMode::kNone;

  const SimResult r_easy = run_simulation(in.workload, in.trace, easy);
  const SimResult r_cons = run_simulation(in.workload, in.trace, conservative);
  const SimResult r_none = run_simulation(in.workload, in.trace, none);

  // All complete; classical ordering: backfilling (either kind) beats none.
  EXPECT_EQ(r_cons.jobs_completed, in.workload.jobs.size());
  EXPECT_LT(r_easy.avg_bounded_slowdown, r_none.avg_bounded_slowdown);
  EXPECT_LT(r_cons.avg_bounded_slowdown, r_none.avg_bounded_slowdown);
}

TEST(ConservativeBackfill, ModeNamesAreStable) {
  EXPECT_STREQ(to_string(BackfillMode::kNone), "none");
  EXPECT_STREQ(to_string(BackfillMode::kEasy), "easy");
  EXPECT_STREQ(to_string(BackfillMode::kConservative), "conservative");
}

// --- queue orders ---

TEST(QueueOrders, SjfReducesMeanSlowdownUnderLoad) {
  const Inputs in = inputs(600, 0.0, 23);
  SimConfig fcfs;
  fcfs.scheduler = SchedulerKind::kKrevat;
  SimConfig sjf = fcfs;
  sjf.queue_order = QueueOrder::kShortestJobFirst;
  const Workload loaded = scale_load(in.workload, 1.2);
  const SimResult r_fcfs = run_simulation(loaded, in.trace, fcfs);
  const SimResult r_sjf = run_simulation(loaded, in.trace, sjf);
  EXPECT_LT(r_sjf.avg_bounded_slowdown, r_fcfs.avg_bounded_slowdown);
}

TEST(QueueOrders, AllOrdersCompleteAllJobs) {
  const Inputs in = inputs(300, 8.0, 29);
  for (const QueueOrder order :
       {QueueOrder::kFcfs, QueueOrder::kShortestJobFirst,
        QueueOrder::kSmallestJobFirst}) {
    SimConfig config;
    config.scheduler = SchedulerKind::kBalancing;
    config.alpha = 0.1;
    config.queue_order = order;
    const SimResult r = run_simulation(in.workload, in.trace, config);
    EXPECT_EQ(r.jobs_completed, in.workload.jobs.size()) << to_string(order);
    EXPECT_NEAR(r.utilization + r.unused + r.lost, 1.0, 1e-9);
  }
}

TEST(QueueOrders, NamesAreStable) {
  EXPECT_STREQ(to_string(QueueOrder::kFcfs), "fcfs");
  EXPECT_STREQ(to_string(QueueOrder::kShortestJobFirst), "sjf");
  EXPECT_STREQ(to_string(QueueOrder::kSmallestJobFirst), "smallest");
}

// --- history predictor ---

TEST(HistoryPredictor, FlagsOnlyPastFailures) {
  HistoryPredictor predictor(16, /*lookback=*/200.0);
  predictor.observe_failure(3, 100.0, 0.0);
  // At t=150: node 3 failed 50 s ago -> flagged; node 7 has not failed yet.
  predictor.advance(150.0);
  const NodeSet at_150 = predictor.flagged_nodes(150.0, 1000.0, 0);
  EXPECT_TRUE(at_150.test(3));
  EXPECT_FALSE(at_150.test(7));
  // At t=350: node 3's failure is outside the 200 s lookback.
  predictor.advance(350.0);
  EXPECT_TRUE(predictor.flagged_nodes(350.0, 1000.0, 0).empty());
  // At t=600: node 7 recently failed.
  predictor.observe_failure(7, 500.0, 0.0);
  predictor.advance(600.0);
  EXPECT_TRUE(predictor.flagged_nodes(600.0, 1000.0, 0).test(7));
}

TEST(HistoryPredictor, FeedWindowAndPruning) {
  constexpr double kLookback = 200.0;
  // Unfed, there is nothing to go on.
  HistoryPredictor p(16, kLookback);
  EXPECT_TRUE(p.flagged_nodes(0.0, 1e9, 0).empty());

  // A failure at t is not in the answer of a query at t made before it is
  // observed; once observed it is.
  p.advance(1000.0);
  EXPECT_TRUE(p.flagged_nodes(1000.0, 2000.0, 0).empty());
  p.observe_failure(5, 1000.0, 0.0);
  EXPECT_TRUE(p.flagged_nodes(1000.0, 2000.0, 0).test(5));

  // It then flags its node for queries at [t, t + lookback): a query at
  // t0 sees the failures in (t0 - lookback, t0].
  p.advance(1100.0);
  EXPECT_TRUE(p.flagged_nodes(1100.0, 2000.0, 0).test(5));
  p.advance(1199.0);
  EXPECT_TRUE(p.flagged_nodes(1199.0, 2000.0, 0).test(5));
  EXPECT_EQ(p.window_size(), 1u);
  EXPECT_TRUE(p.flagged_nodes(1200.0, 2000.0, 0).empty());
  EXPECT_EQ(p.window_size(), 1u);  // queries do not prune
  p.advance(1200.0);
  EXPECT_EQ(p.window_size(), 0u);  // no later query can reach it

  // advance is idempotent and a run of small steps equals one jump.
  HistoryPredictor stepped(16, kLookback);
  HistoryPredictor jumped(16, kLookback);
  const FailureEvent feed[] = {{0.0, 3}, {150.0, 3}, {300.0, 9}, {420.0, 11}};
  std::size_t fed = 0;
  for (double t = 0.0; t <= 500.0; t += 10.0) {
    for (; fed < std::size(feed) && feed[fed].time <= t; ++fed) {
      stepped.observe_failure(feed[fed].node, feed[fed].time, 0.0);
    }
    stepped.advance(t);
    stepped.advance(t);
  }
  for (const FailureEvent& f : feed) jumped.observe_failure(f.node, f.time, 0.0);
  jumped.advance(500.0);
  EXPECT_EQ(stepped.window_size(), 1u);
  EXPECT_EQ(jumped.window_size(), 1u);
  for (const double t0 : {500.0, 550.0, 619.0, 620.0}) {
    EXPECT_EQ(stepped.flagged_nodes(t0, t0 + 1.0, 0), jumped.flagged_nodes(t0, t0 + 1.0, 0))
        << t0;
  }
  EXPECT_TRUE(jumped.flagged_nodes(500.0, 501.0, 0).test(11));
  EXPECT_EQ(jumped.flagged_nodes(500.0, 501.0, 0).count(), 1);
}

TEST(HistoryPredictor, MatchesTheTraceWindowAtEveryQuery) {
  // Fed a failure log in time order, the predictor answers every query at
  // t0 with exactly the log's failures in (t0 - lookback, t0], boundaries
  // included: queries land on each failure time and on its expiry.
  const double lookback = 3.0 * 86400.0;
  const FailureTrace trace =
      generate_failures(FailureModel::bluegene_l(2000, 365.0 * 86400.0), 3);
  std::vector<double> queries;
  for (const FailureEvent& e : trace.events()) {
    queries.push_back(e.time);
    queries.push_back(e.time + lookback);
  }
  for (double t = 0.0; t < 365.0 * 86400.0; t += 5000.0) queries.push_back(t);
  std::sort(queries.begin(), queries.end());

  HistoryPredictor predictor(trace.num_nodes(), lookback);
  const std::vector<FailureEvent>& events = trace.events();
  std::size_t fed = 0;
  for (const double t0 : queries) {
    for (; fed < events.size() && events[fed].time <= t0; ++fed) {
      predictor.observe_failure(events[fed].node, events[fed].time, 0.0);
    }
    predictor.advance(t0);
    ASSERT_EQ(predictor.flagged_nodes(t0, t0 + 3600.0, 0),
              trace.failing_nodes(t0 - lookback, t0))
        << "t0 = " << t0;
  }
}

TEST(HistoryPredictor, PruningKeepsANodeFlaggedByItsLatestFailure) {
  // Node 4 fails twice and node 6 at the same instant as node 4's second
  // failure. Pruning the first entry leaves node 4 flagged by the second;
  // both nodes expire together at 250 + lookback.
  HistoryPredictor p(16, 200.0);
  p.observe_failure(4, 100.0, 0.0);
  p.observe_failure(4, 250.0, 0.0);
  p.observe_failure(6, 250.0, 0.0);
  p.advance(300.0);
  EXPECT_EQ(p.window_size(), 2u);
  NodeSet both(16);
  both.set(4);
  both.set(6);
  EXPECT_EQ(p.flagged_nodes(300.0, 301.0, 0), both);
  p.advance(449.0);
  EXPECT_EQ(p.flagged_nodes(449.0, 450.0, 0), both);
  p.advance(450.0);
  EXPECT_EQ(p.window_size(), 0u);
  EXPECT_TRUE(p.flagged_nodes(450.0, 451.0, 0).empty());
}

TEST(HistoryPredictor, QueriesAndRepairsLeaveTheWindowAlone) {
  // The scheduler re-asks within one pass with each job's key and its own
  // window end: the answer depends on neither, and asking changes nothing.
  // A repair does not clear a flag either; a repaired node is still a
  // recent offender.
  HistoryPredictor p(64, 1000.0);
  for (int n = 0; n < 64; n += 5) {
    p.observe_failure(n, 10.0 * n, n == 0 ? 60.0 : 0.0);
    if (n == 5) p.observe_repair(0, 60.0);  // node 0 is back at t = 60
  }
  p.advance(700.0);
  const NodeSet first = p.flagged_nodes(700.0, 701.0, 0);
  EXPECT_EQ(first.count(), 13);
  EXPECT_TRUE(first.test(0));
  for (std::uint64_t key = 1; key < 16; ++key) {
    EXPECT_EQ(p.flagged_nodes(700.0, 700.0 + 3600.0 * static_cast<double>(key), key),
              first)
        << key;
  }
  EXPECT_EQ(p.window_size(), 13u);
}

TEST(HistoryPredictor, ParameterValidation) {
  EXPECT_THROW(HistoryPredictor(0, 100.0), ContractViolation);
  EXPECT_THROW(HistoryPredictor(4, 0.0), ContractViolation);
  EXPECT_THROW(HistoryPredictor(4, 100.0, 1.5), ContractViolation);
  HistoryPredictor p(4, 100.0);
  EXPECT_THROW(p.observe_failure(4, 1.0, 0.0), ContractViolation);
  p.observe_failure(1, 5.0, 0.0);
  EXPECT_THROW(p.observe_failure(2, 4.0, 0.0), ContractViolation);
}

TEST(HistoryPredictor, QualityOnBurstyTraceBeatsUniformBaseline) {
  // On a bursty, node-skewed trace the repeat-offender heuristic must show
  // real precision: far above the ~failing/128 rate of random flagging.
  FailureModel model = FailureModel::bluegene_l(4000, 730.0 * 86400.0);
  const FailureTrace trace = generate_failures(model, 7);
  HistoryPredictor predictor(model.num_nodes, 7.0 * 86400.0);
  const PredictionQuality q =
      evaluate_predictor(predictor, trace, 6.0 * 3600.0, 12.0 * 3600.0);
  ASSERT_GT(q.windows, 100u);
  const double base_rate =
      static_cast<double>(q.failing) / (static_cast<double>(q.windows) * 128.0);
  // Lift over uninformed flagging. At the default mild node skew (1.1) the
  // repeat-offender signal is real but not dramatic; ~1.8x measured.
  EXPECT_GT(q.precision, 1.4 * base_rate);
  EXPECT_GT(q.recall, 0.2);
}

TEST(HistoryPredictor, DrivesTheBalancingSchedulerEndToEnd) {
  const Inputs in = inputs(300, 8.0, 31);
  SimConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.predictor_model = PredictorModel::kHistory;
  config.alpha = 0.3;
  config.history_lookback = 3.0 * 86400.0;
  const SimResult r = run_simulation(in.workload, in.trace, config);
  EXPECT_EQ(r.jobs_completed, in.workload.jobs.size());
}

TEST(PredictorModels, PerfectAndNoneBracketPaper) {
  const Inputs in = inputs(400, 10.0, 37);
  auto run = [&](PredictorModel model) {
    SimConfig config;
    config.scheduler = SchedulerKind::kBalancing;
    config.predictor_model = model;
    config.alpha = 0.5;
    return run_simulation(in.workload, in.trace, config);
  };
  const SimResult none = run(PredictorModel::kNone);
  const SimResult perfect = run(PredictorModel::kPerfect);
  // The oracle cannot kill more jobs than the oblivious scheduler (same
  // inputs, full knowledge).
  EXPECT_LE(perfect.job_kills, none.job_kills);
}

TEST(PredictorModels, NamesAreStable) {
  EXPECT_STREQ(to_string(PredictorModel::kPaper), "paper");
  EXPECT_STREQ(to_string(PredictorModel::kHistory), "history");
  EXPECT_STREQ(to_string(PredictorModel::kPerfect), "perfect");
  EXPECT_STREQ(to_string(PredictorModel::kNone), "none");
}

}  // namespace
}  // namespace bgl
