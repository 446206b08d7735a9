// Tests of the hierarchical phase profiler (src/obs/profiler.hpp): tree
// interning by (parent, phase), the self/total/child accounting identity,
// bounded-capacity overflow behaviour, deterministic merge, and the two
// renderers (nested JSON and the flat stats-line fields).
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace bgl::obs {
namespace {

/// begin/end a fixed call shape: pass { reservation, enumerate,
/// backfill { enumerate } } — enumerate appears under two parents.
void record_pass(PhaseProfiler& p) {
  p.begin(Phase::kSchedPass);
  p.begin(Phase::kReservation);
  p.end();
  p.begin(Phase::kEnumerate);
  p.end();
  p.begin(Phase::kBackfill);
  p.begin(Phase::kEnumerate);
  p.end();
  p.end();
  p.end();
}

std::map<std::string, PhaseProfiler::NodeView> views_by_path(
    const PhaseProfiler& p) {
  std::map<std::string, PhaseProfiler::NodeView> out;
  for (std::size_t i = 0; i < p.num_nodes(); ++i) {
    PhaseProfiler::NodeView v = p.node_view(i);
    out.emplace(v.path, std::move(v));
  }
  return out;
}

TEST(PhaseProfiler, StartsEmpty) {
  PhaseProfiler p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.num_nodes(), 0u);
  EXPECT_EQ(p.dropped_spans(), 0u);
  EXPECT_EQ(p.count(Phase::kSchedPass), 0u);
  EXPECT_EQ(p.total_ns(Phase::kSchedPass), 0u);
}

TEST(PhaseProfiler, InternsOneNodePerParentPhasePair) {
  PhaseProfiler p;
  record_pass(p);
  record_pass(p);

  // 5 distinct (parent, phase) pairs despite 10 spans: the second pass
  // reuses every node.
  EXPECT_EQ(p.num_nodes(), 5u);
  const auto views = views_by_path(p);
  ASSERT_EQ(views.count("sched.pass"), 1u);
  ASSERT_EQ(views.count("sched.pass/sched.enumerate"), 1u);
  ASSERT_EQ(views.count("sched.pass/sched.backfill/sched.enumerate"), 1u);
  EXPECT_EQ(views.at("sched.pass").count, 2u);
  EXPECT_EQ(views.at("sched.pass/sched.enumerate").count, 2u);
  EXPECT_EQ(views.at("sched.pass/sched.backfill/sched.enumerate").count, 2u);
}

TEST(PhaseProfiler, AggregatesPhaseAcrossParents) {
  PhaseProfiler p;
  record_pass(p);
  // kEnumerate has two tree nodes (under pass and under backfill), each with
  // one span; the per-phase aggregate sums them.
  EXPECT_EQ(p.count(Phase::kEnumerate), 2u);
  const auto views = views_by_path(p);
  EXPECT_EQ(p.total_ns(Phase::kEnumerate),
            views.at("sched.pass/sched.enumerate").total_ns +
                views.at("sched.pass/sched.backfill/sched.enumerate").total_ns);
}

TEST(PhaseProfiler, SelfIsTotalMinusRecordedChildren) {
  PhaseProfiler p;
  record_pass(p);
  const auto views = views_by_path(p);
  const auto& pass = views.at("sched.pass");
  const std::uint64_t child_total =
      views.at("sched.pass/sched.reservation").total_ns +
      views.at("sched.pass/sched.enumerate").total_ns +
      views.at("sched.pass/sched.backfill").total_ns;
  // Exact identity, not an approximation: child time is recorded into the
  // parent at each child end().
  EXPECT_EQ(pass.self_ns, pass.total_ns - child_total);
  EXPECT_GE(pass.total_ns, child_total);
  EXPECT_GE(pass.max_ns, pass.total_ns / pass.count);
}

TEST(PhaseProfiler, DepthOverflowIsCountedAndStaysBalanced) {
  PhaseProfiler p;
  const std::size_t extra = 5;
  for (std::size_t i = 0; i < PhaseProfiler::kMaxDepth + extra; ++i) {
    p.begin(Phase::kDesEvent);
  }
  for (std::size_t i = 0; i < PhaseProfiler::kMaxDepth + extra; ++i) {
    p.end();
  }
  EXPECT_EQ(p.dropped_spans(), extra);
  // The stack unwound completely: a fresh root span lands at the root.
  p.begin(Phase::kSchedPass);
  p.end();
  const auto views = views_by_path(p);
  EXPECT_EQ(views.count("sched.pass"), 1u);
}

TEST(PhaseProfiler, NodeCapCountsDroppedSpans) {
  PhaseProfiler p;
  // 11 roots x 11 children = 121 distinct pairs + 11 roots... the root
  // spans intern 11 nodes, the nested loop tries 121 more; everything
  // beyond kMaxNodes is counted, never silently lost.
  std::size_t attempted = 0;
  for (std::size_t a = 0; a < kNumPhases; ++a) {
    p.begin(static_cast<Phase>(a));
    ++attempted;
    for (std::size_t b = 0; b < kNumPhases; ++b) {
      p.begin(static_cast<Phase>(b));
      ++attempted;
      p.end();
    }
    p.end();
  }
  EXPECT_EQ(p.num_nodes(), PhaseProfiler::kMaxNodes);
  EXPECT_EQ(p.dropped_spans(), attempted - PhaseProfiler::kMaxNodes);
}

TEST(PhaseProfiler, UnbalancedEndIsIgnored) {
  PhaseProfiler p;
  p.end();  // nothing open
  EXPECT_TRUE(p.empty());
  record_pass(p);
  p.end();  // extra end after a balanced sequence
  EXPECT_EQ(p.num_nodes(), 5u);
}

TEST(PhaseProfiler, ResetClearsEverything) {
  PhaseProfiler p;
  record_pass(p);
  ASSERT_FALSE(p.empty());
  p.reset();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.dropped_spans(), 0u);
  record_pass(p);
  EXPECT_EQ(p.num_nodes(), 5u);
}

TEST(PhaseProfiler, MergeAccumulatesByPath) {
  PhaseProfiler a;
  PhaseProfiler b;
  record_pass(a);
  record_pass(b);
  record_pass(b);
  // b also has a path a lacks: a bare root event span.
  b.begin(Phase::kDesEvent);
  b.end();

  a.merge(b);
  const auto views = views_by_path(a);
  EXPECT_EQ(views.at("sched.pass").count, 3u);
  EXPECT_EQ(views.at("sched.pass/sched.backfill/sched.enumerate").count, 3u);
  ASSERT_EQ(views.count("des.event"), 1u);
  EXPECT_EQ(views.at("des.event").count, 1u);

  // Merging into an empty profiler reproduces the source tree.
  PhaseProfiler c;
  c.merge(a);
  const auto copied = views_by_path(c);
  EXPECT_EQ(copied.size(), views.size());
  for (const auto& [path, v] : views) {
    ASSERT_EQ(copied.count(path), 1u) << path;
    EXPECT_EQ(copied.at(path).count, v.count) << path;
    EXPECT_EQ(copied.at(path).total_ns, v.total_ns) << path;
  }
}

TEST(PhaseProfiler, WriteJsonHasTreeShape) {
  PhaseProfiler p;
  record_pass(p);
  std::ostringstream out;
  p.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tree\":["), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"sched.pass\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  EXPECT_NE(json.find("\"self_ns\":"), std::string::npos);
}

TEST(PhaseProfiler, StatsFieldsAreFlatPathKeys) {
  PhaseProfiler p;
  record_pass(p);
  std::string line = "{\"type\":\"stats\"";
  p.append_stats_fields(line);
  line += "}";
  EXPECT_NE(line.find("\"ph_count:sched.pass\":1"), std::string::npos);
  EXPECT_NE(line.find("\"ph_total_ns:sched.pass/sched.backfill\":"),
            std::string::npos);
  EXPECT_NE(
      line.find("\"ph_self_ns:sched.pass/sched.backfill/sched.enumerate\":"),
      std::string::npos);
  // Flat by construction: no nested containers for the line scanner.
  EXPECT_EQ(line.find('['), std::string::npos);
  EXPECT_EQ(line.rfind('{'), 0u);
}

TEST(ScopedPhase, NullProfilerIsANoop) {
  ScopedPhase span(nullptr, Phase::kSchedPass);  // must not crash
  PhaseProfiler p;
  {
    ScopedPhase outer(&p, Phase::kSchedPass);
    ScopedPhase inner(&p, Phase::kScore);
  }
  const auto views = views_by_path(p);
  EXPECT_EQ(views.count("sched.pass/sched.score"), 1u);
}

TEST(PhaseProfiler, PhaseNamesAreStable) {
  EXPECT_EQ(phase_name(Phase::kDesEvent), "des.event");
  EXPECT_EQ(phase_name(Phase::kSvcEvent), "svc.event");
  EXPECT_EQ(phase_name(Phase::kSvcIndex), "svc.index");
  EXPECT_EQ(phase_name(Phase::kSchedPass), "sched.pass");
  EXPECT_EQ(phase_name(Phase::kEnumerate), "sched.enumerate");
  EXPECT_EQ(phase_name(Phase::kPlace), "sched.place");
  EXPECT_EQ(phase_name(Phase::kScore), "sched.score");
  EXPECT_EQ(phase_name(Phase::kPredict), "sched.predict");
  EXPECT_EQ(phase_name(Phase::kBackfill), "sched.backfill");
  EXPECT_EQ(phase_name(Phase::kMigration), "sched.migration");
  EXPECT_EQ(phase_name(Phase::kReservation), "sched.reservation");
}

}  // namespace
}  // namespace bgl::obs
