#include "torus/nodeset.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bgl {
namespace {

TEST(NodeSet, SetResetTest) {
  NodeSet s(128);
  EXPECT_EQ(s.count(), 0);
  s.set(0);
  s.set(63);
  s.set(64);
  s.set(127);
  EXPECT_EQ(s.count(), 4);
  EXPECT_TRUE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_FALSE(s.test(1));
  s.reset(64);
  EXPECT_FALSE(s.test(64));
  EXPECT_EQ(s.count(), 3);
}

TEST(NodeSet, OutOfRangeThrows) {
  NodeSet s(10);
  EXPECT_THROW(s.set(10), ContractViolation);
  EXPECT_THROW(s.test(-1), ContractViolation);
}

TEST(NodeSet, FillAndClear) {
  NodeSet s(70);
  s.fill();
  EXPECT_EQ(s.count(), 70);
  s.clear();
  EXPECT_EQ(s.count(), 0);
  EXPECT_TRUE(s.empty());
}

TEST(NodeSet, Intersects) {
  NodeSet a(128);
  NodeSet b(128);
  a.set(5);
  b.set(6);
  EXPECT_FALSE(a.intersects(b));
  b.set(5);
  EXPECT_TRUE(a.intersects(b));
}

TEST(NodeSet, IntersectCount) {
  NodeSet a(128);
  NodeSet b(128);
  for (int i = 0; i < 128; i += 2) a.set(i);
  for (int i = 0; i < 128; i += 3) b.set(i);
  int expected = 0;
  for (int i = 0; i < 128; i += 6) ++expected;
  EXPECT_EQ(a.intersect_count(b), expected);
}

TEST(NodeSet, UnionIntersectionSubtract) {
  NodeSet a(64);
  NodeSet b(64);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  NodeSet u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ(a.intersect_count(b), 1);
  NodeSet d = a;
  d.subtract(b);
  EXPECT_EQ(d.count(), 1);
  EXPECT_TRUE(d.test(1));
}

TEST(NodeSet, SizeMismatchThrows) {
  NodeSet a(64);
  NodeSet b(65);
  EXPECT_THROW((void)a.intersects(b), ContractViolation);
}

TEST(NodeSet, ToIdsAscending) {
  NodeSet s(128);
  s.set(127);
  s.set(0);
  s.set(64);
  EXPECT_EQ(s.to_ids(), (std::vector<int>{0, 64, 127}));
}

TEST(NodeSet, HashDistinguishesSets) {
  NodeSet a(128);
  NodeSet b(128);
  a.set(1);
  b.set(2);
  EXPECT_NE(a.hash(), b.hash());
  NodeSet c(128);
  c.set(1);
  EXPECT_EQ(a.hash(), c.hash());
}

TEST(NodeSet, EqualityIsStructural) {
  NodeSet a(32);
  NodeSet b(32);
  EXPECT_EQ(a, b);
  a.set(5);
  EXPECT_NE(a, b);
  b.set(5);
  EXPECT_EQ(a, b);
}

TEST(NodeSet, RandomizedCountMatchesReference) {
  Rng rng(4242);
  NodeSet s(200);
  std::vector<bool> ref(200, false);
  for (int step = 0; step < 1000; ++step) {
    const int id = static_cast<int>(rng.uniform_int(0, 199));
    if (rng.bernoulli(0.5)) {
      s.set(id);
      ref[static_cast<std::size_t>(id)] = true;
    } else {
      s.reset(id);
      ref[static_cast<std::size_t>(id)] = false;
    }
  }
  int expected = 0;
  for (const bool v : ref) expected += v ? 1 : 0;
  EXPECT_EQ(s.count(), expected);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(s.test(i), ref[static_cast<std::size_t>(i)]);
}

// --- Small-buffer / full-machine-scale behaviour ---------------------------

TEST(NodeSet, LargeSetKernelsMatchSmallSetSemantics) {
  // 65 536 bits = 1 024 words: heap storage and the 4-word unrolled
  // kernels, validated against a bit-by-bit reference.
  const int bits = 65536;
  Rng rng(0xBEEF);
  NodeSet a(bits), b(bits);
  std::vector<bool> ra(static_cast<std::size_t>(bits), false);
  std::vector<bool> rb(static_cast<std::size_t>(bits), false);
  for (int k = 0; k < 4000; ++k) {
    const int id = static_cast<int>(
        rng.uniform_int(0, static_cast<std::uint64_t>(bits - 1)));
    if (rng.bernoulli(0.5)) {
      a.set(id);
      ra[static_cast<std::size_t>(id)] = true;
    } else {
      b.set(id);
      rb[static_cast<std::size_t>(id)] = true;
    }
  }

  int expect_count = 0, expect_both = 0;
  bool expect_intersects = false;
  for (int i = 0; i < bits; ++i) {
    expect_count += ra[static_cast<std::size_t>(i)] ? 1 : 0;
    if (ra[static_cast<std::size_t>(i)] && rb[static_cast<std::size_t>(i)]) {
      ++expect_both;
      expect_intersects = true;
    }
  }
  EXPECT_EQ(a.count(), expect_count);
  EXPECT_EQ(a.intersects(b), expect_intersects);
  EXPECT_EQ(a.intersect_count(b), expect_both);

  NodeSet u = a;
  u |= b;
  NodeSet d = a;
  d.subtract(b);
  for (int i = 0; i < bits; i += 97) {  // sampled verification
    const auto si = static_cast<std::size_t>(i);
    EXPECT_EQ(u.test(i), ra[si] || rb[si]);
    EXPECT_EQ(d.test(i), ra[si] && !rb[si]);
  }
}

TEST(NodeSet, EmptyEarlyExitsAndTracksState) {
  NodeSet s(65536);
  EXPECT_TRUE(s.empty());
  s.set(65535);  // worst case for a scan, still correct
  EXPECT_FALSE(s.empty());
  s.reset(65535);
  EXPECT_TRUE(s.empty());
}

TEST(NodeSet, AnyInWordRangeProbesExactSpan) {
  NodeSet s(1024);  // 16 words
  s.set(64 * 5 + 3);
  EXPECT_TRUE(s.any_in_word_range(5, 6));
  EXPECT_TRUE(s.any_in_word_range(0, 16));
  EXPECT_FALSE(s.any_in_word_range(0, 5));
  EXPECT_FALSE(s.any_in_word_range(6, 16));
  EXPECT_FALSE(s.any_in_word_range(5, 5));  // empty range
}

TEST(NodeSet, CopyAndMoveAcrossStorageModes) {
  // Inline (128 bits) and heap (65 536 bits) objects must copy and move
  // with identical value semantics.
  for (const int bits : {128, 65536}) {
    NodeSet s(bits);
    s.set(1);
    s.set(bits - 1);

    NodeSet copy = s;
    EXPECT_EQ(copy, s);
    copy.set(2);
    EXPECT_FALSE(s.test(2));  // deep copy, no sharing

    NodeSet assigned(bits);
    assigned.set(7);
    assigned = s;
    EXPECT_EQ(assigned, s);

    NodeSet moved = std::move(copy);
    EXPECT_TRUE(moved.test(2));
    EXPECT_TRUE(moved.test(bits - 1));
    EXPECT_EQ(moved.bits(), bits);
  }
}

TEST(NodeSet, MutableWordsWriteThrough) {
  NodeSet s(256);
  s.mutable_words()[2] = 0x5ULL;
  EXPECT_TRUE(s.test(128));
  EXPECT_TRUE(s.test(130));
  EXPECT_EQ(s.count(), 2);
}

}  // namespace
}  // namespace bgl
