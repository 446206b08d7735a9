#include "sched/migration.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

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

TEST(Migration, CompactionFreesSpaceForHead) {
  // Two 4x4x2 slabs placed at z = 0 and z = 4 fragment the torus into two
  // 4x4x2 holes; a 4x4x4 (64-node) job cannot fit, but re-packing the slabs
  // adjacently frees a contiguous half machine.
  const int a = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 2}});
  const int b = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 2}});
  NodeSet occ = catalog().entry(a).mask;
  occ |= catalog().entry(b).mask;
  ASSERT_FALSE(catalog().has_free_of_size(occ, 64));

  const std::vector<RunningJob> running = {RunningJob{1, a, 100.0},
                                           RunningJob{2, b, 200.0}};
  const auto repack = try_repack(catalog(), running, 64, arena());
  ASSERT_TRUE(repack.has_value());
  EXPECT_TRUE(catalog().has_free_of_size(repack->occupied_after, 64));
  EXPECT_EQ(repack->running_after.size(), 2u);
  // Total occupancy conserved.
  EXPECT_EQ(repack->occupied_after.count(), 64);
  // At least one job moved.
  EXPECT_FALSE(repack->migrations.empty());
}

TEST(Migration, MigrationsOnlyListMovedJobs) {
  const int a = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 2}});
  const int b = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 2}});
  const std::vector<RunningJob> running = {RunningJob{1, a, 100.0},
                                           RunningJob{2, b, 200.0}};
  const auto repack = try_repack(catalog(), running, 64, arena());
  ASSERT_TRUE(repack.has_value());
  for (const Migration& m : repack->migrations) {
    EXPECT_NE(m.from_entry, m.to_entry);
    // Sizes preserved.
    EXPECT_EQ(catalog().entry(m.from_entry).size, catalog().entry(m.to_entry).size);
  }
}

TEST(Migration, NoOverlapAfterRepack) {
  // Three 4x4x1 plates at z = 0, 2 and 5 leave no 64-node partition free
  // (every 4-plane window of z meets one of them), but their 48 nodes pack
  // into three adjacent planes and free a 4x4x4 half machine.
  const int a = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 1}});
  const int b = entry_of_box(Box{Coord{0, 0, 2}, Triple{4, 4, 1}});
  const int c = entry_of_box(Box{Coord{0, 0, 5}, Triple{4, 4, 1}});
  NodeSet occ = catalog().entry(a).mask;
  occ |= catalog().entry(b).mask;
  occ |= catalog().entry(c).mask;
  ASSERT_FALSE(catalog().has_free_of_size(occ, 64));

  const std::vector<RunningJob> running = {
      RunningJob{1, a, 10.0}, RunningJob{2, b, 20.0}, RunningJob{3, c, 30.0}};
  const auto repack = try_repack(catalog(), running, 64, arena());
  ASSERT_TRUE(repack.has_value());
  int total = 0;
  NodeSet unioned(128);
  for (const RunningJob& r : repack->running_after) {
    const NodeSet& mask = catalog().entry(r.entry_index).mask;
    EXPECT_FALSE(unioned.intersects(mask));
    unioned |= mask;
    total += catalog().entry(r.entry_index).size;
  }
  EXPECT_EQ(repack->occupied_after, unioned);
  EXPECT_EQ(total, 3 * 16);
  EXPECT_TRUE(catalog().has_free_of_size(repack->occupied_after, 64));
}

TEST(Migration, RepackFailsWhenBusyPlusHeadExceedsTheMachine) {
  // 72 busy nodes plus a 64-node head exceed the 128-node machine, so no
  // packing can make room.
  const int a = entry_of_box(Box{Coord{0, 0, 1}, Triple{4, 4, 2}});
  const int b = entry_of_box(Box{Coord{0, 0, 5}, Triple{4, 4, 2}});
  const int c = entry_of_box(Box{Coord{0, 0, 3}, Triple{4, 2, 1}});
  const std::vector<RunningJob> running = {
      RunningJob{1, a, 10.0}, RunningJob{2, b, 20.0}, RunningJob{3, c, 30.0}};
  EXPECT_EQ(try_repack(catalog(), running, 64, arena()), std::nullopt);
}

TEST(Migration, FailsWhenHeadCannotFitEvenCompacted) {
  // 96 busy nodes: even perfectly packed, a 64-node partition cannot fit.
  const int big = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 6}});
  const std::vector<RunningJob> running = {RunningJob{1, big, 100.0}};
  EXPECT_FALSE(try_repack(catalog(), running, 64, arena()).has_value());
}

TEST(Migration, ObstaclesSurviveRepackAndAreNeverPackedOver) {
  // A down node in the middle of the machine must neither be packed over
  // nor dropped from the post-compaction occupancy (dropping it is how a
  // later "free the node" event desynchronizes occupancy bookkeeping).
  const int a = entry_of_box(Box{Coord{0, 0, 0}, Triple{4, 4, 2}});
  const int b = entry_of_box(Box{Coord{0, 0, 4}, Triple{4, 4, 2}});
  const std::vector<RunningJob> running = {RunningJob{1, a, 100.0},
                                           RunningJob{2, b, 200.0}};
  NodeSet down(128);
  down.set(node_id(kBgl, Coord{0, 0, 2}));
  const auto repack = try_repack(catalog(), running, 32, arena(), &down);
  ASSERT_TRUE(repack.has_value());
  // The obstacle is still occupied afterwards...
  EXPECT_TRUE(repack->occupied_after.test(node_id(kBgl, Coord{0, 0, 2})));
  // ...no re-placed job covers it...
  for (const RunningJob& r : repack->running_after) {
    EXPECT_FALSE(catalog().entry(r.entry_index).mask.test(
        node_id(kBgl, Coord{0, 0, 2})));
  }
  // ...and the occupancy is exactly jobs + obstacle.
  EXPECT_EQ(repack->occupied_after.count(), 64 + 1);

  // With the obstacle the full half-machine is out of reach: 64 must fail
  // even though the same layout without obstacles compacts (see
  // CompactionFreesSpaceForHead).
  EXPECT_FALSE(try_repack(catalog(), running, 64, arena(), &down).has_value());
}

TEST(Migration, CapacityBoundNeverRefusesAFeasibleRepack) {
  // The engine refuses a compaction when busy + head > machine without
  // calling try_repack. That is exact only if try_repack can never succeed
  // then: on random live sets with down-node obstacles, every over-capacity
  // head must come back nullopt, and every successful repack must keep the
  // busy-node count.
  CatalogOptions blocks;
  blocks.mode = CatalogOptions::Mode::kBlocks;
  blocks.min_block = 16;
  const PartitionCatalog block_catalog(Dims{16, 8, 8}, Topology::kTorus, blocks);
  for (const PartitionCatalog* cat : {&catalog(), &block_catalog}) {
    const int n = cat->num_nodes();
    std::vector<int> sizes;
    for (int i = 0; i < cat->num_entries(); ++i) {
      if (sizes.empty() || sizes.back() != cat->entry(i).size) {
        sizes.push_back(cat->entry(i).size);
      }
    }
    Rng rng(static_cast<std::uint64_t>(n));
    int over_capacity = 0;
    int repacked = 0;
    for (int round = 0; round < 30; ++round) {
      NodeSet down(n);
      const auto downs = rng.uniform_int(0, 3);
      for (std::uint64_t k = 0; k < downs; ++k) {
        down.set(static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n - 1))));
      }
      NodeSet occ = down;
      std::vector<RunningJob> live;
      const double fill = rng.uniform(0.3, 1.0) * n;
      for (int attempt = 0; attempt < 200 && occ.count() < fill; ++attempt) {
        const int size = sizes[rng.uniform_int(0, sizes.size() - 1)];
        std::vector<int> free;
        cat->free_entries_of_size(occ, size, free);
        if (free.empty()) continue;
        const int e = free[rng.uniform_int(0, free.size() - 1)];
        occ |= cat->entry(e).mask;
        live.push_back(RunningJob{live.size(), e, rng.uniform(1.0, 1e4)});
      }
      for (const int head : sizes) {
        const auto repack = try_repack(*cat, live, head, arena(), &down);
        if (occ.count() + head > n) {
          ++over_capacity;
          EXPECT_FALSE(repack.has_value())
              << n << " nodes, round " << round << ", head " << head;
        } else if (repack) {
          ++repacked;
          EXPECT_EQ(repack->occupied_after.count(), occ.count());
        }
      }
    }
    EXPECT_GT(over_capacity, 50) << n << " nodes";
    EXPECT_GT(repacked, 10) << n << " nodes";
  }
}

TEST(Migration, EmptyRunningSetTrivial) {
  const auto repack = try_repack(catalog(), {}, 128, arena());
  ASSERT_TRUE(repack.has_value());
  EXPECT_TRUE(repack->migrations.empty());
  EXPECT_EQ(repack->occupied_after.count(), 0);
}

}  // namespace
}  // namespace bgl
