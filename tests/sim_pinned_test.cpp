// Pinned regression values of the simulator. Each configuration of the
// feature matrix (scheduler × algorithm, the history predictor, downtime,
// checkpointing, queue orders, migration/backfill off, the block catalog at
// 4 096 nodes) has a pinned sim_result_checksum; two runs also pin a digest
// of their per-job outcomes, and a set of runs pins a digest of the full
// JSONL trace with its wall-clock fields zeroed. A value
// that moves means a scheduling decision, a metric's last bit, or a trace
// line changed. Re-pin only for an intended behaviour change, and record it
// in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

#include "failure/generator.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "sim/metrics.hpp"
#include "workload/job.hpp"
#include "workload/synthetic.hpp"

namespace bgl {
namespace {

struct Inputs {
  Workload workload;
  FailureTrace trace;
};

const Inputs& small_inputs() {
  static const Inputs in = [] {
    SyntheticModel model = SyntheticModel::sdsc();
    model.num_jobs = 350;
    Inputs i;
    i.workload = generate_workload(model, 91);
    i.workload = rescale_sizes(i.workload, Dims::bluegene_l().volume());
    const double span = i.workload.arrival_span() * 1.05 + 2.0 * 48.0 * 3600.0;
    i.trace = generate_failures(FailureModel::bluegene_l(80, span), 91 ^ 0xfa17);
    return i;
  }();
  return in;
}

/// The scale-up configuration in miniature: a 16x16x16 machine (4 096
/// nodes) on the block catalog, so the word-range scan kernels, the index's
/// bulk word deltas and the block sim_begin fields all carry the run.
const Inputs& block_scale_inputs() {
  static const Inputs in = [] {
    const int nodes = 16 * 16 * 16;
    SyntheticModel model = SyntheticModel::sdsc();
    model.num_jobs = 250;
    Inputs i;
    i.workload = generate_workload(model, 4242);
    i.workload = rescale_sizes(i.workload, nodes);
    const double span = i.workload.arrival_span() * 1.05 + 2.0 * 36.0 * 3600.0;
    FailureModel fm = FailureModel::bluegene_l(80, span);
    fm.num_nodes = nodes;
    i.trace = generate_failures(fm, 4242 ^ 0x5bd1e995);
    return i;
  }();
  return in;
}

SimConfig block_scale_config() {
  SimConfig config;
  config.dims = Dims{16, 16, 16};
  config.catalog.mode = CatalogOptions::Mode::kBlocks;
  config.catalog.min_block = 16;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.1;
  return config;
}

/// FNV-1a over raw bytes.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <class T>
  void add(T v) {
    bytes(&v, sizeof(v));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Zero every wall-clock field ("wall_us" on all lines, the metrics
/// decision_us_* quantiles) so deterministic traces compare byte for byte.
std::string scrub_wall(const std::string& trace) {
  std::string out;
  out.reserve(trace.size());
  static const char* const kKeys[] = {"\"wall_us\":", "\"decision_us_p50\":",
                                      "\"decision_us_p99\":",
                                      "\"decision_us_max\":"};
  std::size_t i = 0;
  while (i < trace.size()) {
    bool scrubbed = false;
    for (const char* key : kKeys) {
      const std::size_t n = std::strlen(key);
      if (trace.compare(i, n, key) == 0) {
        out.append(key, n);
        out.push_back('0');
        i += n;
        while (i < trace.size() && trace[i] != ',' && trace[i] != '}') ++i;
        scrubbed = true;
        break;
      }
    }
    if (!scrubbed) out.push_back(trace[i++]);
  }
  return out;
}

SimConfig base_config(SchedulerKind scheduler, double alpha) {
  SimConfig config;
  config.scheduler = scheduler;
  config.alpha = alpha;
  return config;
}

SimConfig downtime(SimConfig config) {
  config.failure_semantics = FailureSemantics::kDownFor;
  config.node_downtime = 4.0 * 3600.0;
  return config;
}

SimConfig checkpointing(SimConfig config) {
  config.ckpt.enabled = true;
  config.ckpt.interval = 3600.0;
  return config;
}

const SchedulerKind kSchedulers[] = {SchedulerKind::kKrevat,
                                     SchedulerKind::kBalancing,
                                     SchedulerKind::kTieBreak};
const SchedAlgorithm kAlgorithms[] = {SchedAlgorithm::kKrevat, SchedAlgorithm::kEasy,
                                      SchedAlgorithm::kConservative,
                                      SchedAlgorithm::kEasyHoldback};

SimConfig grid_config(SchedulerKind s, SchedAlgorithm a) {
  SimConfig config = base_config(s, 0.3);
  config.sched.algorithm = a;
  config.seed = 17;
  return config;
}

void expect_checksum(const SimConfig& config, std::uint64_t pinned,
                     const std::string& label,
                     const Inputs& in = small_inputs()) {
  const SimResult r = run_simulation(in.workload, in.trace, config);
  EXPECT_EQ(r.jobs_completed, in.workload.jobs.size()) << label;
  EXPECT_EQ(hex(sim_result_checksum(r)), hex(pinned)) << label;
}

TEST(SimPinned, ChecksumsAcrossSchedulersAndAlgorithms) {
  const std::uint64_t pins[3][4] = {
      {0x0253734aa5126296ull, 0x0253734aa5126296ull,
       0x86129290dc9577d6ull, 0x144bbf69f5f1a078ull},
      {0x505d3400ce42833cull, 0x505d3400ce42833cull,
       0x4f38d7f0c1a15e58ull, 0x420d7089c38bd43cull},
      {0x356619af109f9205ull, 0x356619af109f9205ull,
       0x1fed173ed22e0e33ull, 0x99d3a894fdf6ca2cull},
  };
  for (int s = 0; s < 3; ++s) {
    for (int a = 0; a < 4; ++a) {
      expect_checksum(grid_config(kSchedulers[s], kAlgorithms[a]), pins[s][a],
                      std::string(to_string(kSchedulers[s])) + "/" +
                          to_string(kAlgorithms[a]));
    }
  }
}

// The history predictor builds its whole state from the observation feed,
// so these pins also fix the order and content of every observe/advance
// call. They equal the checksums of a predictor that reads the same window
// from the failure trace: the feed reproduces its every decision.
TEST(SimPinned, ChecksumsWithHistoryPredictor) {
  const std::uint64_t pins[2][4] = {
      {0xf81023e1651a0b0eull, 0xf81023e1651a0b0eull,
       0xa2c6c65440ab43b6ull, 0x55d4ea7a4bc98a63ull},
      {0x734550feedbafc39ull, 0x734550feedbafc39ull,
       0xb3f80680a4715910ull, 0x6ac17dea8eef7ea3ull},
  };
  const SchedulerKind fault_aware[] = {SchedulerKind::kBalancing,
                                       SchedulerKind::kTieBreak};
  for (int s = 0; s < 2; ++s) {
    for (int a = 0; a < 4; ++a) {
      SimConfig config = grid_config(fault_aware[s], kAlgorithms[a]);
      config.predictor_model = PredictorModel::kHistory;
      expect_checksum(config, pins[s][a],
                      std::string("history/") + to_string(fault_aware[s]) + "/" +
                          to_string(kAlgorithms[a]));
    }
  }
}

TEST(SimPinned, ChecksumWithHistoryPredictorUnderDowntime) {
  SimConfig config = downtime(base_config(SchedulerKind::kBalancing, 0.4));
  config.predictor_model = PredictorModel::kHistory;
  expect_checksum(config, 0x6741c5a9ebf68cc2ull, "history/downfor");
  expect_checksum(checkpointing(config), 0xa38fbd913651db40ull,
                  "history/downfor+ckpt");
}

TEST(SimPinned, ChecksumWithDowntime) {
  expect_checksum(downtime(base_config(SchedulerKind::kBalancing, 0.1)),
                  0xe42f1a56ccf0e263ull, "downfor");
}

TEST(SimPinned, ChecksumWithCheckpointing) {
  expect_checksum(checkpointing(base_config(SchedulerKind::kKrevat, 0.0)),
                  0xa410d1dbcfe93389ull, "checkpointing");
}

TEST(SimPinned, ChecksumsAcrossQueueOrders) {
  SimConfig sjf = base_config(SchedulerKind::kKrevat, 0.0);
  sjf.queue_order = QueueOrder::kShortestJobFirst;
  SimConfig smallest = base_config(SchedulerKind::kKrevat, 0.0);
  smallest.queue_order = QueueOrder::kSmallestJobFirst;
  expect_checksum(sjf, 0xc9686061af015e80ull, "queue-order sjf");
  expect_checksum(smallest, 0xe016785ebed55bbcull, "queue-order smallest");
}

TEST(SimPinned, ChecksumWithTieBreakAtHalfAccuracy) {
  expect_checksum(base_config(SchedulerKind::kTieBreak, 0.5),
                  0x990bef2b9f128326ull, "tie-break/0.5");
}

TEST(SimPinned, ChecksumWithNoMigrationAndNoBackfill) {
  SimConfig config = base_config(SchedulerKind::kBalancing, 0.1);
  config.sched.migration = false;
  config.sched.backfill = BackfillMode::kNone;
  expect_checksum(config, 0x5345cfe4b564beb3ull, "no-migration/no-backfill");
}

TEST(SimPinned, ChecksumAtBlockCatalogScale) {
  expect_checksum(block_scale_config(), 0x28bff0ee758df777ull, "blocks/4096",
                  block_scale_inputs());
}

/// Digest of the per-job outcomes, bit patterns included.
std::uint64_t outcomes_digest(const SimResult& r) {
  Fnv h;
  for (const JobOutcome& o : r.outcomes) {
    h.add(o.id);
    h.add(o.size);
    h.add(o.arrival);
    h.add(o.first_start);
    h.add(o.last_start);
    h.add(o.finish);
    h.add(o.runtime);
    h.add(o.estimate);
    h.add(o.restarts);
  }
  return h.value();
}

/// Run `config` traced; `result`, when given, receives the run's result.
std::uint64_t trace_digest(SimConfig config, const Inputs& in = small_inputs(),
                           SimResult* result = nullptr) {
  std::ostringstream out;
  obs::TraceSink sink(out);
  config.obs.trace = &sink;
  SimResult r = run_simulation(in.workload, in.trace, config);
  if (result != nullptr) *result = std::move(r);
  Fnv h;
  const std::string scrubbed = scrub_wall(out.str());
  h.bytes(scrubbed.data(), scrubbed.size());
  return h.value();
}

// The trace is the run's journal: it records every start, migration, kill
// and finish with its partition.
TEST(SimPinned, OutcomesAndTrace) {
  const Inputs& in = small_inputs();
  SimConfig krevat = base_config(SchedulerKind::kKrevat, 0.0);
  // Kills, checkpoints, migrations and down-time repairs all in one trace.
  SimConfig busy = checkpointing(downtime(base_config(SchedulerKind::kBalancing, 0.2)));
  const struct {
    SimConfig config;
    std::uint64_t outcomes_pin;
    std::uint64_t trace_pin;
    const char* label;
  } cases[] = {
      {krevat, 0x0bc70d99305b3e02ull, 0xd097ee84d02269d9ull, "krevat"},
      {busy, 0x3e68ed48d824a583ull, 0xe2b274aea8534293ull, "balancing+downfor+ckpt"}};
  for (auto c : cases) {
    c.config.collect_outcomes = true;
    SimResult r;
    const std::uint64_t trace = trace_digest(c.config, in, &r);
    EXPECT_EQ(r.outcomes.size(), in.workload.jobs.size()) << c.label;
    EXPECT_EQ(hex(outcomes_digest(r)), hex(c.outcomes_pin)) << c.label;
    EXPECT_EQ(hex(trace), hex(c.trace_pin)) << c.label;
  }
}

TEST(SimPinned, TraceDigestsAcrossSchedulersAndAlgorithms) {
  const std::uint64_t pins[3][4] = {
      {0x1176f50e493cb1f8ull, 0xf9ecfe3f8513f8c1ull,
       0x27d1325aa77f7d03ull, 0x5e90306410265270ull},
      {0x3100375f179aadf1ull, 0x50d1f18b8adae7bcull,
       0x1a08777d2bf9a797ull, 0xce1dad61f78ee95dull},
      {0x40d09fb4cdcb6c00ull, 0xd2f2881230623d58ull,
       0x9253518cf87f9641ull, 0xcf03286150464493ull},
  };
  for (int s = 0; s < 3; ++s) {
    for (int a = 0; a < 4; ++a) {
      EXPECT_EQ(hex(trace_digest(grid_config(kSchedulers[s], kAlgorithms[a]))),
                hex(pins[s][a]))
          << to_string(kSchedulers[s]) << "/" << to_string(kAlgorithms[a]);
    }
  }
}

TEST(SimPinned, TraceDigestWithCheckpointing) {
  EXPECT_EQ(hex(trace_digest(checkpointing(base_config(SchedulerKind::kBalancing, 0.1)))),
            hex(0xbf5da69d3d6a7eb7ull));
}

TEST(SimPinned, TraceDigestWithDowntime) {
  EXPECT_EQ(hex(trace_digest(downtime(base_config(SchedulerKind::kTieBreak, 0.3)))),
            hex(0x290b9d477f2276e6ull));
}

// Cadence lines read the predictor as it stood at their own timestamps.
TEST(SimPinned, TraceDigestWithHistoryPredictorAndCadences) {
  SimConfig config = downtime(base_config(SchedulerKind::kBalancing, 0.3));
  config.predictor_model = PredictorModel::kHistory;
  config.metrics_interval = 6.0 * 3600.0;
  config.snapshot_interval = 4.0 * 3600.0;
  EXPECT_EQ(hex(trace_digest(config)), hex(0x6ecf4d59ac4c2520ull));
}

TEST(SimPinned, TraceDigestWithTieBreakAtHalfAccuracy) {
  EXPECT_EQ(hex(trace_digest(base_config(SchedulerKind::kTieBreak, 0.5))),
            hex(0x5332b6147b210cdaull));
}

TEST(SimPinned, TraceDigestAtBlockCatalogScale) {
  EXPECT_EQ(hex(trace_digest(block_scale_config(), block_scale_inputs())),
            hex(0xfdb24f0ec01e25e4ull));
}

}  // namespace
}  // namespace bgl
