// Observability of the scale-up machinery: block-catalog traces must carry
// the catalog's sim_begin fields and pass the strict auditor, and traces
// written before the reference-path knobs were deleted (whose sim_begin may
// name the heap event queue) must still parse and audit clean. The block
// configuration's checksum and trace digest are pinned in
// sim_pinned_test.cpp.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "failure/generator.hpp"
#include "obs/audit.hpp"
#include "obs/reader.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "workload/synthetic.hpp"

namespace bgl {
namespace {

struct Inputs {
  Workload workload;
  FailureTrace trace;
};

Inputs make_inputs(int num_jobs, int nodes, std::uint64_t seed) {
  SyntheticModel model = SyntheticModel::sdsc();
  model.num_jobs = num_jobs;
  Workload w = generate_workload(model, seed);
  w = rescale_sizes(w, nodes);
  const double span = w.arrival_span() * 1.05 + 2.0 * 36.0 * 3600.0;
  FailureModel fm = FailureModel::bluegene_l(80, span);
  fm.num_nodes = nodes;
  return Inputs{std::move(w), generate_failures(fm, seed ^ 0x5bd1e995)};
}

SimConfig scale_config() {
  SimConfig config;
  config.dims = Dims{16, 16, 16};  // 4 096 nodes: full machine in miniature
  config.catalog.mode = CatalogOptions::Mode::kBlocks;
  config.catalog.min_block = 16;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.1;
  return config;
}

TEST(ScaleTrace, SimBeginAnnouncesNonDefaultEngineConfig) {
  const Inputs in = make_inputs(40, 16 * 16 * 16, 7);

  std::ostringstream text;
  {
    obs::TraceSink sink(text);
    SimConfig config = scale_config();
    config.obs.trace = &sink;
    run_simulation(in.workload, in.trace, config);
  }
  std::istringstream stream(text.str());
  obs::TraceReader reader(stream);
  obs::TraceRecord record;
  ASSERT_TRUE(reader.next(record));
  const obs::SimBeginEvent begin = obs::SimBeginEvent::from(record);
  EXPECT_EQ(begin.catalog, "blocks");
  EXPECT_EQ(begin.min_block, 16);
}

TEST(ScaleTrace, SimBeginOmitsDefaultEngineConfig) {
  // Default engine (boxes catalog) at paper scale: the catalog fields must
  // be absent so pre-existing traces stay byte-identical.
  const Inputs in = make_inputs(40, 128, 7);
  std::ostringstream text;
  {
    obs::TraceSink sink(text);
    SimConfig config;
    config.obs.trace = &sink;
    run_simulation(in.workload, in.trace, config);
  }
  const std::string first = text.str().substr(0, text.str().find('\n'));
  EXPECT_EQ(first.find("\"catalog\""), std::string::npos);
  EXPECT_EQ(first.find("\"event_queue\""), std::string::npos);
  std::istringstream stream2(text.str());
  obs::TraceReader reader(stream2);
  obs::TraceRecord record;
  ASSERT_TRUE(reader.next(record));
  const obs::SimBeginEvent begin = obs::SimBeginEvent::from(record);
  EXPECT_EQ(begin.catalog, "");
  EXPECT_EQ(begin.min_block, 0);
}

TEST(ScaleAudit, BlockCatalogTracePassesStrictAudit) {
  // The auditor reconstructs a block catalog of any volume (the node cap
  // applies to boxes mode only), so a full-scale trace stays fully
  // checkable: lifecycle, partition overlap, metric re-derivation.
  const Inputs in = make_inputs(120, 16 * 16 * 16, 99);
  std::ostringstream text;
  {
    obs::TraceSink sink(text);
    SimConfig config = scale_config();
    config.obs.trace = &sink;
    config.snapshot_interval = 43200.0;
    run_simulation(in.workload, in.trace, config);
  }
  obs::AuditOptions options;
  options.strict = true;
  std::istringstream stream(text.str());
  const obs::AuditReport report = obs::audit_trace(stream, options);
  EXPECT_TRUE(report.violations.empty())
      << report.violations.size() << " violations, first: "
      << (report.violations.empty() ? "" : report.violations.front().message);
  EXPECT_GT(report.events, 0u);
  EXPECT_TRUE(report.ok());
}

TEST(ScaleAudit, LegacyEventQueueFieldIsIgnored) {
  // Builds that could select the heap event queue traced it as
  // sim_begin.event_queue. Such a trace must still parse, and the strict
  // auditor must ignore the field.
  const Inputs in = make_inputs(60, 128, 11);
  std::ostringstream text;
  {
    obs::TraceSink sink(text);
    SimConfig config;
    config.obs.trace = &sink;
    run_simulation(in.workload, in.trace, config);
  }
  std::string legacy = text.str();
  const std::size_t first_line_end = legacy.find('\n');
  ASSERT_NE(legacy.find("\"type\":\"sim_begin\""), std::string::npos);
  ASSERT_LT(legacy.find("\"type\":\"sim_begin\""), first_line_end);
  legacy.insert(legacy.rfind('}', first_line_end), ",\"event_queue\":\"heap\"");

  std::istringstream stream(legacy);
  obs::TraceReader reader(stream);
  obs::TraceRecord record;
  ASSERT_TRUE(reader.next(record));
  ASSERT_EQ(record.str("event_queue"), "heap");
  EXPECT_EQ(obs::SimBeginEvent::from(record).nodes, 128);

  obs::AuditOptions options;
  options.strict = true;
  std::istringstream audit_stream(legacy);
  const obs::AuditReport report = obs::audit_trace(audit_stream, options);
  EXPECT_TRUE(report.ok())
      << report.violations.size() << " violations, first: "
      << (report.violations.empty() ? "" : report.violations.front().message);
  EXPECT_EQ(report.unknown_events, 0u);
}

}  // namespace
}  // namespace bgl
