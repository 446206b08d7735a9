// Unit tests of the JSONL trace reader (src/obs/reader.hpp): the scanner,
// the generic TraceRecord accessors, and the typed event decoders.
#include "obs/reader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace bgl::obs {
namespace {

TraceRecord parse_one(const std::string& line) {
  std::istringstream in(line);
  TraceReader reader(in);
  TraceRecord rec;
  EXPECT_TRUE(reader.next(rec));
  return rec;
}

TEST(TraceReader, ReadsBackWhatTheSinkWrites) {
  std::ostringstream out;
  TraceSink sink(out);
  sink.event("job_start", 12.5)
      .field("job", std::int64_t{7})
      .field("entry", 42)
      .field("wait_so_far", 2.5)
      .field("backfill", true)
      .field("policy", "balancing");
  sink.event("job_finish", 20.0).field("job", std::int64_t{7});

  std::istringstream in(out.str());
  TraceReader reader(in);
  TraceRecord rec;

  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.type(), EventType::kJobStart);
  EXPECT_EQ(rec.type_name(), "job_start");
  EXPECT_DOUBLE_EQ(rec.t(), 12.5);
  EXPECT_EQ(rec.line_number(), 1u);
  EXPECT_EQ(rec.require_int("job"), 7);
  EXPECT_EQ(rec.require_int("entry"), 42);
  EXPECT_DOUBLE_EQ(rec.require_num("wait_so_far"), 2.5);
  EXPECT_TRUE(rec.require_bool("backfill"));
  EXPECT_EQ(rec.require_str("policy"), "balancing");
  EXPECT_TRUE(rec.has("job"));
  EXPECT_FALSE(rec.has("nonexistent"));

  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.type(), EventType::kJobFinish);
  EXPECT_EQ(rec.line_number(), 2u);
  EXPECT_FALSE(rec.has("policy"));  // field buffers are reused, not leaked

  EXPECT_FALSE(reader.next(rec));
}

TEST(TraceReader, SkipsBlankLinesButCountsThem) {
  std::istringstream in(
      "\n{\"type\":\"job_submit\",\"t\":1}\n\n  \n{\"type\":\"job_finish\",\"t\":2}\n");
  TraceReader reader(in);
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.line_number(), 2u);
  ASSERT_TRUE(reader.next(rec));
  EXPECT_EQ(rec.line_number(), 5u);
  EXPECT_FALSE(reader.next(rec));
}

TEST(TraceReader, DecodesStringEscapes) {
  const auto rec = parse_one(
      "{\"type\":\"note\",\"t\":0,\"s\":\"a\\\"b\\\\c\\n\\t\\u0041\"}");
  EXPECT_EQ(rec.require_str("s"), "a\"b\\c\n\tA");
}

TEST(TraceReader, AcceptsNullAndNegativeAndExponentNumbers) {
  const auto rec = parse_one(
      "{\"type\":\"x\",\"t\":-1.5e2,\"n\":null,\"v\":-3}");
  EXPECT_DOUBLE_EQ(rec.t(), -150.0);
  EXPECT_TRUE(rec.has("n"));
  EXPECT_FALSE(rec.num("n").has_value());  // null is typeless
  EXPECT_EQ(rec.require_int("v"), -3);
}

TEST(TraceReader, ThrowsOnMalformedJson) {
  for (const char* bad : {
           "{\"type\":\"x\",\"t\":1",            // unterminated object
           "{\"type\":\"x\" \"t\":1}",           // missing comma
           "{\"type\":\"x\",\"t\":1} trailing",  // garbage after close
           "not json at all",
           "{\"type\":\"x\",\"t\":}",            // missing value
           "{\"type\":\"x\",\"t\":1,}",          // trailing comma
       }) {
    std::istringstream in(bad);
    TraceReader reader(in);
    TraceRecord rec;
    EXPECT_THROW(reader.next(rec), ParseError) << bad;
  }
}

TEST(TraceReader, RejectsNestedContainers) {
  for (const char* bad : {
           "{\"type\":\"x\",\"t\":1,\"a\":[1,2]}",
           "{\"type\":\"x\",\"t\":1,\"a\":{\"b\":2}}",
       }) {
    std::istringstream in(bad);
    TraceReader reader(in);
    TraceRecord rec;
    EXPECT_THROW(reader.next(rec), ParseError) << bad;
  }
}

TEST(TraceReader, RequiresTheTypeAndTimeHeader) {
  for (const char* bad : {
           "{\"t\":1,\"job\":2}",            // no type
           "{\"type\":\"job_start\"}",       // no t
           "{\"type\":7,\"t\":1}",           // type not a string
           "{\"type\":\"x\",\"t\":\"s\"}",   // t not a number
       }) {
    std::istringstream in(bad);
    TraceReader reader(in);
    TraceRecord rec;
    EXPECT_THROW(reader.next(rec), ParseError) << bad;
  }
}

TEST(TraceReader, ParseErrorNamesTheLine) {
  std::istringstream in("{\"type\":\"x\",\"t\":1}\nbroken\n");
  TraceReader reader(in);
  TraceRecord rec;
  ASSERT_TRUE(reader.next(rec));
  try {
    reader.next(rec);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(TraceReader, UnknownTypePreservesTheName) {
  const auto rec = parse_one("{\"type\":\"future_event\",\"t\":3}");
  EXPECT_EQ(rec.type(), EventType::kUnknown);
  EXPECT_EQ(rec.type_name(), "future_event");
}

TEST(TraceRecord, CheckedAccessorsThrowOnMissingOrMistyped) {
  const auto rec = parse_one("{\"type\":\"x\",\"t\":1,\"s\":\"v\",\"n\":2}");
  EXPECT_THROW(rec.require_num("missing"), ParseError);
  EXPECT_THROW(rec.require_num("s"), ParseError);
  EXPECT_THROW(rec.require_str("n"), ParseError);
  EXPECT_THROW(rec.require_bool("n"), ParseError);
  EXPECT_EQ(rec.num("s"), std::nullopt);  // optional accessors never throw
  EXPECT_EQ(rec.str("n"), std::nullopt);
  EXPECT_EQ(rec.boolean("missing"), std::nullopt);
}

TEST(TraceReader, RequireIntRejectsFraction) {
  const auto rec = parse_one(
      "{\"type\":\"job_start\",\"t\":1,\"entry\":4300.4,\"whole\":4300.0,"
      "\"huge\":1e300,\"inf\":1e999,\"low\":-9223372036854775808,"
      "\"top\":9223372036854775808}");
  EXPECT_EQ(rec.require_int("whole"), 4300);
  EXPECT_EQ(rec.require_int("low"), std::numeric_limits<std::int64_t>::min());
  for (const char* key : {"entry", "huge", "inf", "top"}) {  // top = 2^63
    try {
      rec.require_int(key);
      ADD_FAILURE() << "expected ParseError for " << key;
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 1"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + key + "\""), std::string::npos) << what;
    }
  }
  EXPECT_DOUBLE_EQ(rec.require_num("entry"), 4300.4);  // still a number
}

TEST(EventType, NameRoundTrip) {
  for (int i = 0; i <= static_cast<int>(EventType::kUnknown); ++i) {
    const auto type = static_cast<EventType>(i);
    if (type == EventType::kUnknown) continue;
    EXPECT_EQ(event_type_from(to_string(type)), type) << to_string(type);
  }
  EXPECT_EQ(event_type_from("no_such_event"), EventType::kUnknown);
}

TEST(TypedEvents, JobStartDecodesAndValidates) {
  const auto rec = parse_one(
      "{\"type\":\"job_start\",\"t\":5,\"job\":9,\"entry\":17,"
      "\"alloc_size\":32,\"wait_so_far\":1.5,\"restarts\":2}");
  const JobStartEvent e = JobStartEvent::from(rec);
  EXPECT_DOUBLE_EQ(e.t, 5.0);
  EXPECT_EQ(e.job, 9);
  EXPECT_EQ(e.entry, 17);
  EXPECT_EQ(e.alloc_size, 32);
  EXPECT_DOUBLE_EQ(e.wait_so_far, 1.5);
  EXPECT_EQ(e.restarts, 2);

  const auto missing = parse_one("{\"type\":\"job_start\",\"t\":5,\"job\":9}");
  EXPECT_THROW(JobStartEvent::from(missing), ParseError);
}

TEST(TypedEvents, MachineStateDecodes) {
  const auto rec = parse_one(
      "{\"type\":\"machine_state\",\"t\":100,\"queue_depth\":3,"
      "\"queued_nodes\":96,\"running_jobs\":2,\"free_nodes\":64,"
      "\"down_nodes\":1,\"mfp\":32,\"frag\":0.5,\"flagged_nodes\":4}");
  const MachineStateEvent e = MachineStateEvent::from(rec);
  EXPECT_EQ(e.queue_depth, 3);
  EXPECT_EQ(e.queued_nodes, 96);
  EXPECT_EQ(e.running_jobs, 2);
  EXPECT_EQ(e.free_nodes, 64);
  EXPECT_EQ(e.down_nodes, 1);
  EXPECT_EQ(e.mfp, 32);
  EXPECT_DOUBLE_EQ(e.frag, 0.5);
  EXPECT_EQ(e.flagged_nodes, 4);
}

TEST(TypedEvents, SimEndDecodesAggregates) {
  const auto rec = parse_one(
      "{\"type\":\"sim_end\",\"t\":9000,\"jobs_completed\":10,\"span\":9000,"
      "\"avg_wait\":5,\"avg_response\":105,\"avg_bounded_slowdown\":1.2,"
      "\"utilization\":0.8,\"unused\":0.15,\"lost\":0.05,\"job_kills\":2,"
      "\"migrations\":1,\"checkpoints\":4,\"work_lost_node_seconds\":640}");
  const SimEndEvent e = SimEndEvent::from(rec);
  EXPECT_EQ(e.jobs_completed, 10);
  EXPECT_EQ(e.checkpoints, 4);
  EXPECT_DOUBLE_EQ(e.work_lost_node_seconds, 640.0);
}

}  // namespace
}  // namespace bgl::obs
