#include "torus/index.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "torus/coords.hpp"
#include "util/rng.hpp"

namespace bgl {
namespace {

const Dims kBgl = Dims::bluegene_l();

class IndexTest : public ::testing::Test {
 protected:
  static const PartitionCatalog& catalog() {
    static PartitionCatalog instance(kBgl);
    return instance;
  }
};

TEST_F(IndexTest, EmptyOccupancyEverythingFree) {
  FreePartitionIndex index(catalog());
  EXPECT_EQ(index.mfp(), 128);
  EXPECT_EQ(index.first_free_index(), 0);
  for (int s = 1; s <= 128; ++s) {
    const auto [first, last] = catalog().size_range(s);
    EXPECT_EQ(index.free_count_of_size(s), last - first);
  }
  for (int e = 0; e < catalog().num_entries(); ++e) {
    EXPECT_TRUE(index.entry_free(e));
    EXPECT_EQ(index.blocked_count(e), 0);
  }
  index.check_invariants();
}

TEST_F(IndexTest, FullOccupancyNothingFree) {
  FreePartitionIndex index(catalog());
  NodeSet all(128);
  all.fill();
  index.occupy(all);
  EXPECT_EQ(index.mfp(), 0);
  EXPECT_EQ(index.first_free_index(), -1);
  for (int s = 1; s <= 128; ++s) {
    EXPECT_FALSE(index.has_free_of_size(s));
  }
  index.check_invariants();
}

TEST_F(IndexTest, SingleBusyNodeMatchesCatalog) {
  FreePartitionIndex index(catalog());
  index.occupy_node(node_id(kBgl, Coord{0, 0, 0}));
  // Largest free box avoiding one node: 4x4x7 = 112 (z-slab excluded).
  EXPECT_EQ(index.mfp(), 112);
  index.release_node(node_id(kBgl, Coord{0, 0, 0}));
  EXPECT_EQ(index.mfp(), 128);
  index.check_invariants();
}

TEST_F(IndexTest, OccupyReleaseRoundtripRestoresEverything) {
  FreePartitionIndex index(catalog());
  const auto [first, last] = catalog().size_range(32);
  ASSERT_LT(first, last);
  const NodeSet& mask = catalog().entry(first).mask;
  index.occupy(mask);
  EXPECT_FALSE(index.entry_free(first));
  EXPECT_EQ(index.blocked_count(first), 32);
  EXPECT_LT(index.mfp(), 128);
  index.check_invariants();
  index.release(mask);
  EXPECT_TRUE(index.entry_free(first));
  EXPECT_EQ(index.mfp(), 128);
  EXPECT_TRUE(index.occupied().empty());
  index.check_invariants();
}

TEST_F(IndexTest, OccupyHasSetSemantics) {
  // Occupying a node twice (overlapping layers: a partition mask plus a
  // down-node overlay) must count it once; releasing the partition while
  // the node stays down is done by subtracting the overlay from the mask.
  FreePartitionIndex index(catalog());
  const auto [first, last] = catalog().size_range(64);
  ASSERT_LT(first, last);
  const NodeSet& mask = catalog().entry(first).mask;
  const int down = mask.to_ids().front();
  index.occupy(mask);
  index.occupy_node(down);  // no-op: already occupied via the partition
  NodeSet expected = mask;
  EXPECT_EQ(index.occupied(), expected);

  NodeSet partial = mask;
  NodeSet overlay(128);
  overlay.set(down);
  partial.subtract(overlay);
  index.release(partial);  // partition gone, node still down
  EXPECT_EQ(index.occupied(), overlay);
  EXPECT_EQ(index.mfp(), 112);
  index.check_invariants();
  index.release_node(down);
  EXPECT_EQ(index.mfp(), 128);
  index.check_invariants();
}

TEST_F(IndexTest, ResetToOccupancyMatchesIncrementalPath) {
  Rng rng(7);
  NodeSet occ(128);
  for (int i = 0; i < 128; ++i) {
    if (rng.bernoulli(0.35)) occ.set(i);
  }
  FreePartitionIndex incremental(catalog());
  incremental.occupy(occ);
  FreePartitionIndex rebuilt(catalog());
  rebuilt.reset(occ);
  EXPECT_EQ(incremental.occupied(), rebuilt.occupied());
  EXPECT_EQ(incremental.occupied_count(), occ.count());
  EXPECT_EQ(rebuilt.occupied_count(), occ.count());
  EXPECT_EQ(incremental.mfp(), rebuilt.mfp());
  for (int e = 0; e < catalog().num_entries(); ++e) {
    EXPECT_EQ(incremental.entry_free(e), rebuilt.entry_free(e));
    EXPECT_EQ(incremental.blocked_count(e), rebuilt.blocked_count(e));
  }
  rebuilt.check_invariants();
  rebuilt.reset();
  EXPECT_EQ(rebuilt.mfp(), 128);
  EXPECT_EQ(rebuilt.occupied_count(), 0);
}

TEST_F(IndexTest, CopyIsIndependent) {
  FreePartitionIndex a(catalog());
  const auto [first, last] = catalog().size_range(128);
  a.occupy(catalog().entry(first).mask);
  FreePartitionIndex b = a;
  EXPECT_EQ(b.mfp(), 0);
  b.release(catalog().entry(first).mask);
  EXPECT_EQ(b.mfp(), 128);
  EXPECT_EQ(a.mfp(), 0);  // the copy's release must not leak back
  a.check_invariants();
  b.check_invariants();

  // Assignment into a used index reuses its buffers and must fully
  // overwrite the previous state (the scheduler's per-pass scratch path).
  b = a;
  EXPECT_EQ(b.mfp(), 0);
  b.check_invariants();
}

TEST_F(IndexTest, QueriesMatchCatalogScansUnderRandomOccupancy) {
  Rng rng(42);
  NodeSet occ(128);
  for (int i = 0; i < 128; ++i) {
    if (rng.bernoulli(0.45)) occ.set(i);
  }
  FreePartitionIndex index(catalog());
  index.occupy(occ);

  EXPECT_EQ(index.mfp(), catalog().mfp(occ));
  EXPECT_EQ(index.first_free_index(), catalog().first_free_index(occ));
  for (const int s : {1, 2, 8, 16, 32, 64, 128}) {
    std::vector<int> from_index, from_scan;
    index.free_entries_of_size(s, from_index);
    catalog().free_entries_of_size(occ, s, from_scan);
    EXPECT_EQ(from_index, from_scan) << "size " << s;  // same order, too
  }
}

TEST_F(IndexTest, MfpWithMatchesMaterializedUnion) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    NodeSet occ(128);
    NodeSet extra(128);
    for (int i = 0; i < 128; ++i) {
      if (rng.bernoulli(0.3)) occ.set(i);
      if (rng.bernoulli(0.1)) extra.set(i);
    }
    FreePartitionIndex index(catalog());
    index.occupy(occ);
    NodeSet unioned = occ;
    unioned |= extra;
    const int hint = index.first_free_index();
    EXPECT_EQ(index.mfp_with(extra, hint < 0 ? 0 : hint),
              catalog().mfp(unioned));
    EXPECT_EQ(index.first_free_index_with(extra),
              catalog().first_free_index_with(occ, extra));
  }
}

TEST(IndexGeneric, SmallTorusAndMesh) {
  for (const Topology topo : {Topology::kTorus, Topology::kMesh}) {
    PartitionCatalog catalog(Dims{2, 2, 2}, topo);
    FreePartitionIndex index(catalog);
    EXPECT_EQ(index.mfp(), 8);
    index.occupy_node(0);
    EXPECT_EQ(index.mfp(), catalog.mfp(index.occupied()));
    index.check_invariants();
  }
}

}  // namespace
}  // namespace bgl
