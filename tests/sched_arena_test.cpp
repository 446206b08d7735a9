// PlacementArena / ArenaVector (src/sched/arena.hpp): bump allocation
// semantics, reset reuse and the arena-backed vector.
#include "sched/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

namespace bgl {
namespace {

TEST(PlacementArena, AllocatesAlignedDistinctBlocks) {
  PlacementArena arena;
  EXPECT_EQ(arena.reserved_bytes(), 0u);  // lazy: no chunk until first use

  int* a = arena.alloc<int>(10);
  double* b = arena.alloc<double>(4);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % alignof(int), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);

  // Blocks do not overlap: writes through one stay invisible to the other.
  for (int i = 0; i < 10; ++i) a[i] = i;
  for (int i = 0; i < 4; ++i) b[i] = -1.0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a[i], i);
  EXPECT_GT(arena.reserved_bytes(), 0u);
}

TEST(PlacementArena, ResetReusesCapacityWithoutGrowth) {
  PlacementArena arena;
  (void)arena.alloc<std::uint64_t>(1000);
  const std::size_t reserved = arena.reserved_bytes();
  for (int pass = 0; pass < 50; ++pass) {
    arena.reset();
    (void)arena.alloc<std::uint64_t>(1000);
  }
  // Steady state: the same pass re-run after reset() allocates no new heap.
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(PlacementArena, GrowsBeyondFirstChunk) {
  PlacementArena arena;
  // Far more than the 64 KiB first chunk; spans several doubling chunks.
  char* big = arena.alloc<char>(1 << 20);
  ASSERT_NE(big, nullptr);
  big[0] = 'x';
  big[(1 << 20) - 1] = 'y';
  EXPECT_GE(arena.reserved_bytes(), static_cast<std::size_t>(1 << 20));
}

TEST(ArenaVector, PushBackGrowthPreservesContents) {
  PlacementArena arena;
  ArenaVector<int> v(arena);
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 1000; ++i) v.push_back(i);  // many regrowths
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], i);

  const std::span<const int> view = v;
  EXPECT_EQ(view.size(), 1000u);
  EXPECT_EQ(std::accumulate(view.begin(), view.end(), 0), 999 * 1000 / 2);
}

TEST(ArenaVector, AssignAndClear) {
  PlacementArena arena;
  ArenaVector<char> v(arena);
  v.assign(64, 0);
  ASSERT_EQ(v.size(), 64u);
  for (const char c : v) EXPECT_EQ(c, 0);
  v[5] = 1;
  v.clear();
  EXPECT_TRUE(v.empty());
  v.assign(8, 2);
  ASSERT_EQ(v.size(), 8u);
  for (const char c : v) EXPECT_EQ(c, 2);
}

}  // namespace
}  // namespace bgl
