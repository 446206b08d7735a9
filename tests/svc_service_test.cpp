// Tests of the online SchedulerService (src/svc/service.hpp) and the
// session loop (src/svc/server.hpp): typed rejections that leave the state
// untouched, recovery from malformed protocol lines, fuzzed corrupted
// streams, and a strict trace_audit pass over a service-emitted trace.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/audit.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/profiler.hpp"
#include "obs/reader.hpp"
#include "obs/trace.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"

namespace bgl::svc {
namespace {

Event submit(double t, std::uint64_t job, int size, double estimate,
             double runtime = -1.0) {
  Event e;
  e.kind = EventKind::kSubmit;
  e.time = t;
  e.job = job;
  e.size = size;
  e.estimate = estimate;
  e.runtime = runtime;
  return e;
}

Event complete(double t, std::uint64_t job) {
  Event e;
  e.kind = EventKind::kComplete;
  e.time = t;
  e.job = job;
  return e;
}

Event fail(double t, int node, bool down = false) {
  Event e;
  e.kind = EventKind::kFail;
  e.time = t;
  e.node = node;
  e.down = down;
  return e;
}

Event repair(double t, int node) {
  Event e;
  e.kind = EventKind::kRepair;
  e.time = t;
  e.node = node;
  return e;
}

RejectCode refusal(SchedulerService& service, const Event& e) {
  std::vector<Decision> out;
  try {
    service.handle(e, out);
  } catch (const ProtocolError& err) {
    EXPECT_TRUE(out.empty());
    return err.code();
  }
  ADD_FAILURE() << "event was accepted";
  return RejectCode::kParse;
}

TEST(SvcService, SubmitStartsAndCompleteFrees) {
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(0.0, 7, 32, 1000.0), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, DecisionKind::kStart);
  EXPECT_EQ(out[0].job, 7u);
  EXPECT_GE(out[0].entry, 0);
  EXPECT_EQ(service.running_jobs(), 1u);

  out.clear();
  service.handle(complete(500.0, 7), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(service.running_jobs(), 0u);
  EXPECT_EQ(service.stats().finished, 1u);
  EXPECT_DOUBLE_EQ(service.now(), 500.0);
}

TEST(SvcService, PassesOverACappedQueueViewAreCounted) {
  // A pass shows the scheduler at most the first 512 waiting jobs; every
  // pass over a longer queue counts once in sched.queue_view_capped.
  obs::CounterRegistry counters;
  ServiceConfig config;
  config.obs.counters = &counters;
  SchedulerService service(config);
  std::vector<Decision> out;
  service.handle(submit(0.0, 0, 128, 1e4), out);  // fills the machine
  ASSERT_EQ(out.size(), 1u);
  constexpr std::uint64_t kWaiting = 600;
  for (std::uint64_t j = 1; j <= kWaiting; ++j) {
    out.clear();
    service.handle(submit(static_cast<double>(j), j, 1, 100.0), out);
    ASSERT_TRUE(out.empty());
  }
  ASSERT_EQ(service.waiting_jobs(), kWaiting);
  // Submits 513..600 each ran a pass over more than 512 waiting jobs.
  EXPECT_EQ(counters.value(obs::Counter::kQueueViewCapped), kWaiting - 512);

  // The completion's pass sees all 600 and starts 128 from the view; the
  // queue then fits, so later passes go uncounted.
  out.clear();
  service.handle(complete(1e3, 0), out);
  EXPECT_EQ(out.size(), 128u);
  EXPECT_EQ(counters.value(obs::Counter::kQueueViewCapped), kWaiting - 512 + 1);
  out.clear();
  service.handle(submit(1e3, kWaiting + 1, 1, 100.0), out);
  EXPECT_EQ(service.waiting_jobs(), kWaiting - 128 + 1);
  EXPECT_EQ(counters.value(obs::Counter::kQueueViewCapped), kWaiting - 512 + 1);
}

TEST(SvcService, TypedRejectionsLeaveStateUntouched) {
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(10.0, 1, 16, 100.0), out);
  const std::size_t running = service.running_jobs();

  // Duplicate id, bad sizes, bad estimate.
  EXPECT_EQ(refusal(service, submit(11.0, 1, 8, 50.0)),
            RejectCode::kDuplicateJob);
  EXPECT_EQ(refusal(service, submit(11.0, 2, 0, 50.0)), RejectCode::kBadValue);
  EXPECT_EQ(refusal(service, submit(11.0, 2, 129, 50.0)),
            RejectCode::kBadValue);
  EXPECT_EQ(refusal(service, submit(11.0, 2, 16, -1.0)), RejectCode::kBadValue);

  // Unknown / not-running completes.
  EXPECT_EQ(refusal(service, complete(12.0, 99)), RejectCode::kUnknownJob);

  // Nodes outside the 4x4x8 machine; repair of a healthy node.
  EXPECT_EQ(refusal(service, fail(12.0, -1)), RejectCode::kBadNode);
  EXPECT_EQ(refusal(service, fail(12.0, 128)), RejectCode::kBadNode);
  EXPECT_EQ(refusal(service, repair(12.0, 5)), RejectCode::kNodeState);

  // Time running backwards (now_ ratcheted to 12.0 by the rejected events?
  // No: rejections leave now_ at the last accepted event's time).
  EXPECT_EQ(refusal(service, submit(9.0, 3, 16, 100.0)),
            RejectCode::kTimeOrder);

  // The machine state survived every refusal: the job is still running and
  // a valid event still works.
  EXPECT_EQ(service.running_jobs(), running);
  out.clear();
  service.handle(complete(20.0, 1), out);
  EXPECT_EQ(service.stats().finished, 1u);
}

TEST(SvcService, EqualTimestampsAreAccepted) {
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(5.0, 1, 8, 100.0), out);
  service.handle(submit(5.0, 2, 8, 100.0), out);  // same t: fine
  EXPECT_EQ(service.stats().submitted, 2u);
}

TEST(SvcService, DownFailureKillsVictimAndRepairRestores) {
  ServiceConfig config;
  SchedulerService service(config);
  std::vector<Decision> out;
  // One job spanning the whole machine: any failed node is a victim.
  service.handle(submit(0.0, 1, 128, 10000.0), out);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].kind, DecisionKind::kStart);

  out.clear();
  service.handle(fail(100.0, 17, /*down=*/true), out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].kind, DecisionKind::kKill);
  EXPECT_EQ(out[0].job, 1u);
  EXPECT_EQ(out[0].node, 17);
  // Node 17 is down, so the 128-node job cannot restart yet.
  const bool restarted =
      std::any_of(out.begin(), out.end(), [](const Decision& d) {
        return d.kind == DecisionKind::kStart;
      });
  EXPECT_FALSE(restarted);
  EXPECT_EQ(service.waiting_jobs(), 1u);
  EXPECT_EQ(service.usable_free_nodes(), 127);

  out.clear();
  service.handle(repair(200.0, 17), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, DecisionKind::kStart);
  EXPECT_EQ(out[0].job, 1u);
  EXPECT_EQ(service.usable_free_nodes(), 0);
  EXPECT_EQ(service.stats().kills, 1u);
}

TEST(SvcService, IndexDeltasOutsideAPassHaveTheirOwnSpan) {
  // Starts and compactions reach the index inside the pass; every other
  // delta (release on kill and complete, down and repaired nodes) is one
  // svc.index span under its svc.event.
  obs::PhaseProfiler profiler;
  ServiceConfig config;
  config.obs.profiler = &profiler;
  SchedulerService service(config);
  std::vector<Decision> out;
  service.handle(submit(0.0, 1, 128, 10000.0), out);
  service.handle(fail(100.0, 17, /*down=*/true), out);  // kill + down node
  service.handle(repair(200.0, 17), out);               // node back, restart
  service.handle(complete(300.0, 1), out);              // release
  ASSERT_EQ(out.size(), 3u);  // start, kill, restart

  EXPECT_EQ(profiler.count(obs::Phase::kSvcIndex), 4u);
  std::size_t under_event = 0;
  for (std::size_t i = 0; i < profiler.num_nodes(); ++i) {
    const obs::PhaseProfiler::NodeView v = profiler.node_view(i);
    if (v.path == "svc.event/svc.index") under_event = v.count;
  }
  EXPECT_EQ(under_event, 4u);
}

TEST(SvcService, SessionRecoversFromMalformedLines) {
  SchedulerService service((ServiceConfig()));
  std::istringstream in(
      "{\"type\":\"submit\",\"t\":0,\"job\":1,\"size\":8,\"estimate\":100}\n"
      "this is not json\n"
      "{\"type\":\"submit\",\"t\":1,\"job\":1,\"size\":8,\"estimate\":100}\n"
      "{\"nope\":1}\n"
      "{\"type\":\"warp\",\"t\":2}\n"
      "\n"
      "{\"type\":\"complete\",\"t\":50,\"job\":1}\n");
  std::ostringstream out;
  SessionOptions options;
  options.flush_each = false;
  const SessionStats stats = run_session(in, out, service, options);

  EXPECT_EQ(stats.lines, 6u);  // blank line skipped
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(service.stats().finished, 1u);

  // Reply stream: every line answered, errors carry line numbers + codes.
  const std::string text = out.str();
  EXPECT_NE(text.find("\"code\":\"parse\""), std::string::npos);
  EXPECT_NE(text.find("\"code\":\"duplicate-job\""), std::string::npos);
  EXPECT_NE(text.find("\"code\":\"unknown-type\""), std::string::npos);
  EXPECT_NE(text.find("\"line\":2"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"stats\""), std::string::npos);
}

TEST(SvcService, InBandStatsRequestAnswersWithoutApplyingAnEvent) {
  obs::PhaseProfiler profiler;
  obs::HistogramRegistry histograms;
  ServiceConfig config;
  config.obs.profiler = &profiler;
  config.obs.histograms = &histograms;
  SchedulerService service(config);

  // The stats line needs a "t" only because the trace framing demands one on
  // every record; its value is ignored.
  std::istringstream in(
      "{\"type\":\"submit\",\"t\":0,\"job\":1,\"size\":8,\"estimate\":100}\n"
      "{\"type\":\"stats\",\"t\":0}\n"
      "{\"type\":\"complete\",\"t\":50,\"job\":1}\n");
  std::ostringstream out;
  SessionOptions options;
  options.flush_each = false;
  options.profiler = &profiler;
  options.histograms = &histograms;
  const SessionStats stats = run_session(in, out, service, options);

  // The request is neither accepted nor rejected: no event was applied, no
  // time advanced, no decision made.
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.stats_requests, 1u);
  EXPECT_EQ(service.stats().finished, 1u);

  // Two stats replies: the in-band answer plus the end-of-stream line.
  const std::string text = out.str();
  std::size_t replies = 0;
  for (std::size_t pos = 0;
       (pos = text.find("\"type\":\"stats\"", pos)) != std::string::npos;
       pos += 14) {
    ++replies;
  }
  EXPECT_EQ(replies, 2u);

  // The in-band reply (first stats line) reflects mid-session state: one
  // line consumed so far, one job running, canonical decision-latency keys
  // and the flat profiler fields.
  const std::string first =
      text.substr(text.find("\"type\":\"stats\""),
                  text.find('\n', text.find("\"type\":\"stats\"")) -
                      text.find("\"type\":\"stats\""));
  EXPECT_NE(first.find("\"lines\":2"), std::string::npos);
  EXPECT_NE(first.find("\"running\":1"), std::string::npos);
  EXPECT_NE(first.find("\"sched.decision_us_count\":"), std::string::npos);
  EXPECT_NE(first.find("\"sched.decision_us_max\":"), std::string::npos);
  EXPECT_NE(first.find("\"ph_count:svc.event\":"), std::string::npos);
}

/// Fuzz: corrupt a valid session stream in seeded random ways; the session
/// loop must answer every line (ok or error) and never crash or stop early.
TEST(SvcService, FuzzedCorruptionNeverCrashesTheSession) {
  // A valid base session.
  std::vector<std::string> base;
  {
    std::string line;
    for (int j = 0; j < 10; ++j) {
      line.clear();
      append_event_line(line, submit(j * 10.0, j, 8 + 8 * (j % 3), 500.0));
      base.push_back(line.substr(0, line.size() - 1));
    }
    for (int j = 0; j < 10; ++j) {
      line.clear();
      append_event_line(line, complete(1000.0 + j * 10.0, j));
      base.push_back(line.substr(0, line.size() - 1));
    }
  }

  Rng rng(0xfadedcafe);
  for (int round = 0; round < 50; ++round) {
    std::string stream;
    for (const std::string& line : base) {
      std::string mutated = line;
      switch (rng.next_u64() % 6) {
        case 0:  // truncate
          mutated = mutated.substr(0, rng.next_u64() % (mutated.size() + 1));
          break;
        case 1: {  // flip one byte
          const std::size_t i = rng.next_u64() % mutated.size();
          mutated[i] = static_cast<char>(rng.next_u64() % 256);
          break;
        }
        case 2:  // duplicate the line (duplicate-job / not-running errors)
          mutated += "\n" + mutated;
          break;
        case 3:  // prepend garbage
          mutated = "\x01\xff{]" + mutated;
          break;
        default:  // leave valid
          break;
      }
      stream += mutated;
      stream += '\n';
    }
    SchedulerService service((ServiceConfig()));
    std::istringstream in(stream);
    std::ostringstream out;
    SessionOptions options;
    options.flush_each = false;
    options.stats_line = false;
    const SessionStats stats = run_session(in, out, service, options);
    EXPECT_EQ(stats.accepted + stats.rejected, stats.lines);
    // Every consumed line produced a framing reply.
    const std::string text = out.str();
    std::size_t frames = 0;
    for (std::size_t pos = 0; (pos = text.find("\"type\":\"", pos)) !=
                              std::string::npos;
         pos += 8) {
      const std::string_view rest(text.data() + pos + 8, 8);
      if (rest.substr(0, 2) == "ok" || rest.substr(0, 5) == "error") ++frames;
    }
    EXPECT_EQ(frames, stats.lines) << "round " << round;
  }
}

TEST(SvcService, EmittedTracePassesStrictAudit) {
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  ServiceConfig config;
  config.obs.trace = &sink;
  SchedulerService service(config);

  // Three size-32 jobs on the 128-node machine: all start on submit. A
  // transient failure through job 2's partition forces a kill + restart.
  std::vector<Decision> out;
  service.handle(submit(0.0, 0, 32, 2000.0, 1000.0), out);
  service.handle(submit(1.0, 1, 32, 2000.0, 1500.0), out);
  service.handle(submit(2.0, 2, 128 - 64, 2000.0, 1800.0), out);
  out.clear();
  service.handle(fail(500.0, 100), out);  // hits *some* partition or none
  // Retire everything that is still running; restart decisions re-arm jobs.
  // Completes are issued from the service's own view to stay valid.
  double t = 2500.0;
  for (std::uint64_t j = 0; j < 3; ++j) {
    std::vector<Decision> d;
    try {
      service.handle(complete(t, j), d);
    } catch (const ProtocolError&) {
      // Job was killed and is waiting: restart then complete.
      service.handle(submit(t + 1.0, 100 + j, 1, 1.0), d);  // nudge a pass
      std::vector<Decision> d2;
      service.handle(complete(t + 2.0, 100 + j), d2);
      service.handle(complete(t + 3.0, j), d2);
    }
    t += 10.0;
  }
  EXPECT_TRUE(service.finish_stream());
  sink.flush();

  std::istringstream trace_in(trace_out.str());
  obs::AuditOptions audit;
  audit.strict = true;
  const obs::AuditReport report = obs::audit_trace(trace_in, audit);
  EXPECT_TRUE(report.ok()) << [&] {
    std::ostringstream s;
    report.write_json(s);
    return s.str();
  }();
  EXPECT_EQ(report.jobs, report.jobs);  // parsed
}

/// Journal of a served session whose node goes down until a repair event
/// (no duration known up front), sampled by a metrics cadence throughout.
std::string down_until_repair_journal() {
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  ServiceConfig config;
  config.obs.trace = &sink;
  config.metrics_interval = 50.0;
  SchedulerService service(config);
  std::vector<Decision> out;
  service.handle(submit(0.0, 1, 128, 1000.0, 300.0), out);
  service.handle(fail(100.0, 17, /*down=*/true), out);  // kills job 1
  service.handle(fail(150.0, 17), out);  // already down: no victims
  out.clear();
  service.handle(repair(260.0, 17), out);  // job 1 restarts over node 17
  EXPECT_EQ(out.size(), 1u);
  service.handle(complete(560.0, 1), out);
  EXPECT_TRUE(service.finish_stream());
  sink.flush();
  return trace_out.str();
}

obs::AuditReport strict_audit(const std::string& trace) {
  std::istringstream in(trace);
  obs::AuditOptions audit;
  audit.strict = true;
  return obs::audit_trace(in, audit);
}

TEST(SvcService, DownUntilRepairJournalPassesStrictAudit) {
  const std::string trace = down_until_repair_journal();
  EXPECT_NE(trace.find("\"down\":true"), std::string::npos);
  EXPECT_NE(trace.find("\"type\":\"node_repair\""), std::string::npos);
  EXPECT_NE(trace.find("\"down_nodes\":1"), std::string::npos);
  const obs::AuditReport report = strict_audit(trace);
  EXPECT_TRUE(report.ok()) << [&] {
    std::ostringstream s;
    report.write_json(s);
    return s.str();
  }();
}

TEST(SvcService, AuditCatchesAJournalMissingItsRepair) {
  std::string trace = down_until_repair_journal();
  const std::size_t at = trace.find("\"type\":\"node_repair\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t begin = trace.rfind('\n', at) + 1;
  trace.erase(begin, trace.find('\n', at) + 1 - begin);
  // Without the repair, the restart lands on a node the journal says is
  // still down.
  const obs::AuditReport report = strict_audit(trace);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(std::any_of(report.violations.begin(), report.violations.end(),
                          [](const obs::Violation& v) {
                            return v.code == obs::ViolationCode::kOverlap;
                          }));
}

TEST(SvcService, CompactionRoutesAroundADownNode) {
  // The default service: the 4x4x8 box catalog, krevat, migration on.
  const PartitionCatalog catalog(Dims::bluegene_l());
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  ServiceConfig config;
  config.obs.trace = &sink;
  SchedulerService service(config);
  std::vector<Decision> out;

  // Fifteen 8-node jobs leave one 8-node column free; node 91 in it goes
  // down. Completing jobs 0, 3, 4 and 7 then frees alternate halves of the
  // four lowest z-planes: 39 usable nodes, but no free 16-node box.
  constexpr int kDown = 91;
  const auto finish_of = [](std::uint64_t j) {
    return j == 0 || j == 3 || j == 4 || j == 7 ? 20.0 + j : 1000.0 + j;
  };
  for (std::uint64_t j = 0; j < 15; ++j) {
    service.handle(submit(0.0, j, 8, 1e4, finish_of(j)), out);
  }
  ASSERT_EQ(out.size(), 15u);
  out.clear();
  service.handle(fail(10.0, kDown, /*down=*/true), out);
  ASSERT_TRUE(out.empty());  // a free node: no victim
  for (const std::uint64_t j : {0, 3, 4, 7}) {
    service.handle(complete(finish_of(j), j), out);
  }
  ASSERT_TRUE(out.empty());
  ASSERT_EQ(service.usable_free_nodes(), 39);

  // A 16-node job fits only after a repack, which must pack around the
  // down node.
  service.handle(submit(30.0, 15, 16, 1e4, 500.0), out);
  const auto migrations =
      std::count_if(out.begin(), out.end(), [](const Decision& d) {
        return d.kind == DecisionKind::kMigrate;
      });
  EXPECT_GT(migrations, 0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back().kind, DecisionKind::kStart);
  EXPECT_EQ(out.back().job, 15u);
  for (const Decision& d : out) {
    EXPECT_FALSE(catalog.entry(d.entry).mask.test(kDown)) << "job " << d.job;
  }
  EXPECT_EQ(service.usable_free_nodes(), 39 - 16);

  service.handle(complete(530.0, 15), out);
  for (std::uint64_t j = 0; j < 15; ++j) {
    if (finish_of(j) > 30.0) service.handle(complete(finish_of(j), j), out);
  }
  EXPECT_TRUE(service.finish_stream());
  sink.flush();
  const std::string trace = trace_out.str();
  EXPECT_NE(trace.find("\"type\":\"migration\""), std::string::npos);
  const obs::AuditReport report = strict_audit(trace);
  EXPECT_TRUE(report.ok()) << [&] {
    std::ostringstream s;
    report.write_json(s);
    return s.str();
  }();
}

TEST(SvcService, DownNodeOnAHeapBackedMachineStaysOutOfEveryStart) {
  // 4 096 nodes on the block catalog: every node set spills to the heap, so
  // each pass checks the index against busy ∪ down over 64 words.
  ServiceConfig config;
  config.dims = Dims{16, 16, 16};
  config.catalog.mode = CatalogOptions::Mode::kBlocks;
  config.catalog.min_block = 16;
  const PartitionCatalog catalog(config.dims, config.topology, config.catalog);
  SchedulerService service(config, nullptr, &catalog);
  std::vector<Decision> out;

  constexpr int kDown = 1234;
  service.handle(fail(0.0, kDown, /*down=*/true), out);
  ASSERT_TRUE(out.empty());  // a free node: no victim

  // Jobs of 16 to 2 048 nodes, more than fit at once, each completed when
  // its runtime is up; starts and migrations must all avoid the down node.
  constexpr std::uint64_t kJobs = 60;
  std::vector<double> runtime(kJobs);
  std::multimap<double, std::uint64_t> finishes;
  const auto take = [&](double t) {
    for (const Decision& d : out) {
      EXPECT_FALSE(catalog.entry(d.entry).mask.test(kDown)) << "job " << d.job;
      if (d.kind == DecisionKind::kStart) finishes.emplace(t + runtime[d.job], d.job);
    }
    out.clear();
  };
  std::uint64_t next = 0;
  while (next < kJobs || !finishes.empty()) {
    const double t_submit = static_cast<double>(next);
    if (!finishes.empty() && (next == kJobs || finishes.begin()->first <= t_submit)) {
      const auto [t, job] = *finishes.begin();
      finishes.erase(finishes.begin());
      service.handle(complete(t, job), out);
      take(t);
    } else {
      runtime[next] = 100.0 + 37.0 * static_cast<double>(next % 11);
      service.handle(submit(t_submit, next, 16 << (next % 8), runtime[next],
                            runtime[next]),
                     out);
      take(t_submit);
      ++next;
    }
  }
  EXPECT_EQ(service.stats().finished, kJobs);
  EXPECT_EQ(service.waiting_jobs(), 0u);
  EXPECT_EQ(service.running_jobs(), 0u);
  EXPECT_EQ(service.usable_free_nodes(), catalog.num_nodes() - 1);
}

TEST(SvcService, CapacityBoundRefusalsAreCountedAndSpanned) {
  // The default service: the 4x4x8 box catalog, krevat, migration on.
  const auto attempt = [](std::vector<Event> before, int head_size) {
    obs::CounterRegistry counters;
    obs::PhaseProfiler profiler;
    ServiceConfig config;
    config.obs.counters = &counters;
    config.obs.profiler = &profiler;
    SchedulerService service(config);
    std::vector<Decision> out;
    for (const Event& e : before) service.handle(e, out);
    out.clear();
    service.handle(submit(50.0, 99, head_size, 1e4), out);
    EXPECT_TRUE(out.empty()) << "the head must stay blocked, with no migration";
    EXPECT_EQ(counters.value(obs::Counter::kSchedMigrations), 0u);
    EXPECT_EQ(profiler.count(obs::Phase::kMigration), 1u);
    return counters.value(obs::Counter::kMigrationOverCapacity);
  };

  // 96 busy nodes plus a 64-node head exceed the 128-node machine: the
  // bound refuses the attempt inside its sched.migration span.
  EXPECT_EQ(attempt({submit(0.0, 1, 96, 1e4)}, 64), 1u);

  // Three down nodes hit every 64-node box (4x4x4 spans z 0 or 4, 4x2x8
  // y 0 or 2, 2x4x8 x 0 or 2). With one 8-node job, 11 + 64 nodes fit by
  // count, so the repack runs and fails in packing: no refusal is counted.
  const Dims dims = Dims::bluegene_l();
  EXPECT_EQ(attempt({fail(0.0, node_id(dims, Coord{0, 0, 0}), /*down=*/true),
                     fail(0.0, node_id(dims, Coord{0, 0, 4}), /*down=*/true),
                     fail(0.0, node_id(dims, Coord{2, 2, 0}), /*down=*/true),
                     submit(1.0, 1, 8, 1e4)},
                    64),
            0u);
}

// The machine's occupancy contracts. The service holds them: its set of
// job-owned nodes and its FreePartitionIndex, which every pass commits into.

TEST(Occupancy, AllocateReleaseLifecycle) {
  const PartitionCatalog catalog(Dims::bluegene_l());
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  EXPECT_EQ(service.usable_free_nodes(), 128);

  service.handle(submit(0.0, 7, 32, 1000.0), out);
  ASSERT_EQ(out.size(), 1u);
  const int entry = out[0].entry;
  const auto [first, last] = catalog.size_range(32);
  EXPECT_GE(entry, first);
  EXPECT_LT(entry, last);
  EXPECT_EQ(service.usable_free_nodes(), 96);
  EXPECT_EQ(service.running_jobs(), 1u);

  // A second job never lands on a node the first one holds.
  out.clear();
  service.handle(submit(1.0, 8, 32, 1000.0), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(catalog.entry(out[0].entry).mask.intersects(catalog.entry(entry).mask));
  EXPECT_EQ(service.usable_free_nodes(), 64);

  service.handle(complete(500.0, 7), out);
  EXPECT_EQ(service.last_finished().id, 7u);
  EXPECT_EQ(service.usable_free_nodes(), 96);
  service.handle(complete(600.0, 8), out);
  EXPECT_EQ(service.usable_free_nodes(), 128);
  EXPECT_EQ(service.running_jobs(), 0u);
}

TEST(Occupancy, DuplicateIdThrows) {
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(0.0, 1, 1, 1000.0), out);
  ASSERT_EQ(out.size(), 1u);

  // A running id is refused and allocates nothing more.
  EXPECT_EQ(refusal(service, submit(1.0, 1, 1, 1000.0)),
            RejectCode::kDuplicateJob);
  EXPECT_EQ(service.usable_free_nodes(), 127);
  EXPECT_EQ(service.running_jobs(), 1u);

  // So is a finished one: an id is never reused within a session.
  service.handle(complete(2.0, 1), out);
  EXPECT_EQ(refusal(service, submit(3.0, 1, 1, 1000.0)),
            RejectCode::kDuplicateJob);
  EXPECT_EQ(service.usable_free_nodes(), 128);
  EXPECT_EQ(service.running_jobs(), 0u);
}

TEST(Occupancy, ReleaseUnknownThrows) {
  SchedulerService service((ServiceConfig()));
  std::vector<Decision> out;
  service.handle(submit(0.0, 1, 128, 1000.0), out);  // fills the machine
  service.handle(submit(1.0, 2, 64, 1000.0), out);   // waits, holds nothing
  ASSERT_EQ(out.size(), 1u);

  // Only a running job holds a partition to release.
  EXPECT_EQ(refusal(service, complete(2.0, 404)), RejectCode::kUnknownJob);
  EXPECT_EQ(refusal(service, complete(2.0, 2)), RejectCode::kNotRunning);
  EXPECT_EQ(service.usable_free_nodes(), 0);
  EXPECT_EQ(service.running_jobs(), 1u);
  EXPECT_EQ(service.waiting_jobs(), 1u);

  // A partition is released once: the second complete is refused.
  out.clear();
  service.handle(complete(3.0, 1), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].job, 2u);
  EXPECT_EQ(refusal(service, complete(4.0, 1)), RejectCode::kNotRunning);
  EXPECT_EQ(service.usable_free_nodes(), 64);
}

TEST(Occupancy, AllocationsContainingNode) {
  const PartitionCatalog catalog(Dims::bluegene_l());
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  ServiceConfig config;
  config.obs.trace = &sink;
  SchedulerService service(config);
  std::vector<Decision> out;
  service.handle(submit(0.0, 1, 64, 1e4), out);
  service.handle(submit(0.0, 2, 32, 1e4), out);
  ASSERT_EQ(out.size(), 2u);
  const NodeSet& held1 = catalog.entry(out[0].entry).mask;
  const NodeSet& held2 = catalog.entry(out[1].entry).mask;
  int free_node = -1;
  int node2 = -1;
  for (int n = 127; n >= 0; --n) {
    if (!held1.test(n) && !held2.test(n)) free_node = n;
    if (held2.test(n)) node2 = n;
  }
  ASSERT_GE(free_node, 0);
  ASSERT_GE(node2, 0);

  // A failure on a node no job holds hits nobody.
  out.clear();
  service.handle(fail(10.0, free_node), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(service.stats().failures_hitting_jobs, 0u);

  // A failure on job 2's partition kills job 2 alone.
  service.handle(fail(20.0, node2), out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].kind, DecisionKind::kKill);
  EXPECT_EQ(out[0].job, 2u);
  EXPECT_EQ(out[0].node, node2);
  EXPECT_EQ(std::count_if(out.begin(), out.end(),
                          [](const Decision& d) {
                            return d.kind == DecisionKind::kKill;
                          }),
            1);
  EXPECT_EQ(service.stats().failures_hitting_jobs, 1u);
  EXPECT_EQ(service.stats().kills, 1u);

  sink.flush();
  const std::string trace = trace_out.str();
  const std::size_t first_fail = trace.find("\"type\":\"node_failure\"");
  ASSERT_NE(first_fail, std::string::npos);
  const std::size_t second_fail = trace.find("\"type\":\"node_failure\"", first_fail + 1);
  ASSERT_NE(second_fail, std::string::npos);
  EXPECT_NE(trace.find("\"victims\":0", first_fail), std::string::npos);
  EXPECT_LT(trace.find("\"victims\":0", first_fail), second_fail);
  EXPECT_NE(trace.find("\"victims\":1", second_fail), std::string::npos);
}

TEST(SvcService, OracleModelsWithoutATraceRaiseTypedError) {
  ServiceConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.5;
  config.predictor_model = PredictorModel::kPerfect;
  try {
    SchedulerService service(config);
    FAIL() << "perfect built without an oracle";
  } catch (const OracleRequiredError& e) {
    // Names the flag the frontend must report.
    EXPECT_EQ(e.model(), PredictorModel::kPerfect);
  }
  // kPaper needs the oracle only when a fault-aware scheduler consults it.
  ServiceConfig paper;
  paper.scheduler = SchedulerKind::kTieBreak;
  paper.alpha = 0.5;
  paper.predictor_model = PredictorModel::kPaper;
  EXPECT_THROW(SchedulerService{paper}, OracleRequiredError);
  paper.scheduler = SchedulerKind::kKrevat;
  EXPECT_NO_THROW(SchedulerService{paper});
}

TEST(SvcService, HistoryPredictorNeedsNoOracleAndLearnsFromEvents) {
  ServiceConfig config;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.5;
  config.predictor_model = PredictorModel::kHistory;
  const PartitionCatalog catalog(config.dims);

  // Where a 32-node job lands while nothing has failed yet.
  int usual = -1;
  {
    SchedulerService fresh(config);  // no oracle: must construct
    std::vector<Decision> out;
    fresh.handle(submit(20.0, 1, 32, 3600.0), out);
    ASSERT_EQ(out.size(), 1u);
    usual = out[0].entry;
  }
  int node = -1;
  for (int n = 0; n < catalog.num_nodes() && node < 0; ++n) {
    if (catalog.entry(usual).mask.test(n)) node = n;
  }
  ASSERT_GE(node, 0);

  // A failure of one of its nodes on an idle machine: the balancing
  // placement learns of it from the event alone and goes elsewhere.
  SchedulerService service(config);
  std::vector<Decision> out;
  service.handle(fail(10.0, node), out);
  EXPECT_TRUE(out.empty());
  service.handle(submit(20.0, 1, 32, 3600.0), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, DecisionKind::kStart);
  EXPECT_FALSE(catalog.entry(out[0].entry).mask.test(node));
  EXPECT_EQ(service.stats().failures, 1u);
}

TEST(SvcService, CadenceLinesReadThePredictorBeforeItAdvances) {
  // Every machine_state line due before an event is written from the
  // predictor as it stood at the line's own timestamp: the event's
  // advance() prunes the history window only after them.
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  ServiceConfig config;
  config.obs.trace = &sink;
  config.scheduler = SchedulerKind::kBalancing;
  config.alpha = 0.5;
  config.predictor_model = PredictorModel::kHistory;
  config.history_lookback = 1000.0;
  config.snapshot_interval = 500.0;
  SchedulerService service(config);
  std::vector<Decision> out;
  service.handle(fail(0.0, 5), out);  // anchors the cadence at t = 0
  service.handle(fail(100.0, 3), out);
  // A long gap: the lines at 500, 1000, ..., 5000 all fall due here.
  service.handle(fail(5000.0, 7), out);
  sink.flush();

  std::vector<std::pair<double, std::int64_t>> flagged;
  std::istringstream in(trace_out.str());
  obs::TraceReader reader(in);
  obs::TraceRecord rec;
  while (reader.next(rec)) {
    if (rec.type() == obs::EventType::kMachineState) {
      flagged.emplace_back(rec.t(), rec.require_int("flagged_nodes"));
    }
  }
  // A line at t0 flags the failures in (t0 - 1000, t0]: both at 500, node
  // 3's alone at 1000, none later. The failure at 5000 is not yet observed
  // when the 5000 line is written.
  ASSERT_EQ(flagged.size(), 10u);
  for (std::size_t i = 0; i < flagged.size(); ++i) {
    EXPECT_DOUBLE_EQ(flagged[i].first, 500.0 * static_cast<double>(i + 1));
    EXPECT_EQ(flagged[i].second, i == 0 ? 2 : i == 1 ? 1 : 0)
        << "t = " << flagged[i].first;
  }
}

}  // namespace
}  // namespace bgl::svc
