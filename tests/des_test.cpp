#include "des/event_queue.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bgl {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(Event{5.0, EventType::kArrival, 1, 0, 0});
  q.push(Event{1.0, EventType::kArrival, 2, 0, 0});
  q.push(Event{3.0, EventType::kArrival, 3, 0, 0});
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_EQ(q.pop().id, 3u);
  EXPECT_EQ(q.pop().id, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SemanticTieBreakAtEqualTime) {
  EventQueue q;
  q.push(Event{2.0, EventType::kArrival, 1, 0, 0});
  q.push(Event{2.0, EventType::kFailure, 2, 0, 0});
  q.push(Event{2.0, EventType::kFinish, 3, 0, 0});
  q.push(Event{2.0, EventType::kCheckpoint, 4, 0, 0});
  EXPECT_EQ(q.pop().type, EventType::kFinish);
  EXPECT_EQ(q.pop().type, EventType::kFailure);
  EXPECT_EQ(q.pop().type, EventType::kArrival);
  EXPECT_EQ(q.pop().type, EventType::kCheckpoint);
}

TEST(EventQueue, FifoWithinSameTimeAndType) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) {
    q.push(Event{1.0, EventType::kArrival, i, 0, 0});
  }
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(q.pop().id, i);
  }
}

TEST(EventQueue, NowTracksLastPop) {
  EventQueue q;
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  q.push(Event{4.5, EventType::kArrival, 1, 0, 0});
  q.pop();
  EXPECT_DOUBLE_EQ(q.now(), 4.5);
}

TEST(EventQueue, RejectsEventInThePast) {
  EventQueue q;
  q.push(Event{10.0, EventType::kArrival, 1, 0, 0});
  q.pop();
  EXPECT_THROW(q.push(Event{9.0, EventType::kArrival, 2, 0, 0}), ContractViolation);
  EXPECT_NO_THROW(q.push(Event{10.0, EventType::kArrival, 3, 0, 0}));
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), ContractViolation);
  EXPECT_THROW((void)q.top(), ContractViolation);
}

TEST(EventQueue, ClearResets) {
  EventQueue q;
  q.push(Event{3.0, EventType::kArrival, 1, 0, 0});
  q.pop();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_NO_THROW(q.push(Event{1.0, EventType::kArrival, 2, 0, 0}));
}

// Differential fuzz: the calendar queue must pop the exact event sequence of
// a binary heap over the same comparator — time, semantic type, and FIFO seq
// included — across randomized push/pop interleavings with duplicate
// timestamps, zero-delay events, bursts (bucket-table growth), deep drains
// (shrink), and far-future jumps (the direct-search fallback). The oracle
// numbers seq exactly as EventQueue::push does.
TEST(EventQueueFuzz, CalendarMatchesHeapDifferential) {
  constexpr int kOpsPerSeed = 5000;
  for (const std::uint64_t seed : {11ULL, 23ULL, 47ULL}) {
    Rng rng(seed);
    EventQueue cal;
    std::priority_queue<Event, std::vector<Event>, EventAfter> heap;
    std::uint64_t next_id = 0;
    std::uint64_t next_seq = 0;
    std::size_t pending = 0;

    auto push_one = [&](SimTime t) {
      const auto type = static_cast<EventType>(rng.uniform_int(0, 4));
      Event e{t, type, next_id, next_id * 3 + 1, 0};
      cal.push(e);
      e.seq = next_seq++;
      heap.push(e);
      ++next_id;
      ++pending;
    };
    auto pop_both = [&] {
      const Event a = cal.top();
      const Event hb = heap.top();
      heap.pop();
      EXPECT_DOUBLE_EQ(a.time, hb.time);
      const Event ca = cal.pop();
      ASSERT_DOUBLE_EQ(ca.time, hb.time);
      ASSERT_EQ(ca.type, hb.type);
      ASSERT_EQ(ca.id, hb.id);
      ASSERT_EQ(ca.tag, hb.tag);
      ASSERT_EQ(ca.seq, hb.seq);  // FIFO seq stability
      --pending;
    };

    for (int op = 0; op < kOpsPerSeed; ++op) {
      if (pending == 0 || rng.bernoulli(0.55)) {
        const double now = cal.now();
        const double r = rng.uniform();
        SimTime t;
        if (r < 0.25) {
          t = now;  // zero-delay event
        } else if (r < 0.90) {
          // Coarse grid: duplicate timestamps are common by construction.
          t = now + 0.25 * static_cast<double>(rng.uniform_int(0, 40));
        } else {
          t = now + rng.uniform(1e3, 1e6);  // far-future jump
        }
        push_one(t);
        if (rng.bernoulli(0.05)) {
          for (int burst = 0; burst < 64; ++burst) push_one(t);
        }
      } else {
        pop_both();
        // Occasionally drain deep to force the bucket table to shrink.
        if (rng.bernoulli(0.03)) {
          while (pending > 1) pop_both();
        }
      }
    }
    while (pending > 0) pop_both();
    EXPECT_TRUE(cal.empty());
    EXPECT_TRUE(heap.empty());
  }
}

TEST(EventTypeNames, AllNamed) {
  EXPECT_STREQ(to_string(EventType::kArrival), "arrival");
  EXPECT_STREQ(to_string(EventType::kFinish), "finish");
  EXPECT_STREQ(to_string(EventType::kFailure), "failure");
  EXPECT_STREQ(to_string(EventType::kCheckpoint), "checkpoint");
  EXPECT_STREQ(to_string(EventType::kCustom), "custom");
}

}  // namespace
}  // namespace bgl
