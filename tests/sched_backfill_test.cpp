#include "sched/backfill.hpp"

#include <gtest/gtest.h>

namespace bgl {
namespace {

const Dims kBgl = Dims::bluegene_l();

const PartitionCatalog& catalog() {
  static PartitionCatalog instance(kBgl);
  return instance;
}

PlacementArena& arena() {
  static PlacementArena instance;
  return instance;
}

int entry_of_box(const Box& box) {
  const Box canon = canonicalize(kBgl, box);
  for (int i = 0; i < catalog().num_entries(); ++i) {
    if (catalog().entry(i).box == canon) return i;
  }
  return -1;
}

TEST(Backfill, ImmediateFitReservesNow) {
  NodeSet occ(128);
  const auto reservation =
      compute_reservation(catalog(), occ, {}, 64, 100.0, arena());
  ASSERT_TRUE(reservation.has_value());
  EXPECT_DOUBLE_EQ(reservation->time, 100.0);
  EXPECT_EQ(catalog().entry(reservation->entry).size, 64);
}

TEST(Backfill, ReservationAtEarliestSufficientFinish) {
  // Two running jobs occupying the two halves; a full-machine job must wait
  // for both, a half-machine job only for the earlier one.
  const int left = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 4}});
  const int right = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 4}});
  NodeSet occ = catalog().entry(left).mask;
  occ |= catalog().entry(right).mask;

  const std::vector<RunningJob> running = {
      RunningJob{1, left, 500.0},
      RunningJob{2, right, 900.0},
  };

  const auto full =
      compute_reservation(catalog(), occ, running, 128, 100.0, arena());
  ASSERT_TRUE(full.has_value());
  EXPECT_DOUBLE_EQ(full->time, 900.0);

  const auto half =
      compute_reservation(catalog(), occ, running, 64, 100.0, arena());
  ASSERT_TRUE(half.has_value());
  EXPECT_DOUBLE_EQ(half->time, 500.0);
  // The reserved partition must be the one freed by job 1.
  EXPECT_EQ(catalog().entry(half->entry).mask, catalog().entry(left).mask);
}

TEST(Backfill, ReservationNeverBeforeNow) {
  const int left = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 4}});
  NodeSet occ = catalog().entry(left).mask;
  // Estimated finish in the past (over-ran its estimate): clamp to now.
  const std::vector<RunningJob> running = {RunningJob{1, left, 50.0}};
  const auto r =
      compute_reservation(catalog(), occ, running, 128, 100.0, arena());
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->time, 100.0);
}

TEST(Backfill, ReservationSkipsInsufficientFinishes) {
  // Four quarter-machine jobs; a 64-node job fits after the second finish at
  // the earliest only if the freed quarters are adjacent. Use z-slabs so any
  // two adjacent frees form a 4x4x4.
  std::vector<int> entries;
  for (int z = 0; z < 8; z += 2) {
    entries.push_back(entry_of_box(Box{Coord{0, 0, z}, Triple{4, 4, 2}}));
  }
  NodeSet occ(128);
  for (const int e : entries) occ |= catalog().entry(e).mask;
  // Finishes at 100 (z0), 300 (z4), 500 (z2), 700 (z6): after 100 only one
  // 32-node slab is free; a 64-node job needs two adjacent slabs, which
  // happens at 500 (z0+z2).
  const std::vector<RunningJob> running = {
      RunningJob{1, entries[0], 100.0},
      RunningJob{2, entries[2], 300.0},
      RunningJob{3, entries[1], 500.0},
      RunningJob{4, entries[3], 700.0},
  };
  const auto r = compute_reservation(catalog(), occ, running, 64, 0.0, arena());
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->time, 500.0);
}

TEST(Backfill, ImpossibleSizeReturnsNullopt) {
  NodeSet occ(128);
  // 13 has no shape on the 4x4x8 torus; compute_reservation never finds it.
  const auto r = compute_reservation(catalog(), occ, {}, 13, 0.0, arena());
  EXPECT_FALSE(r.has_value());
}

}  // namespace
}  // namespace bgl
