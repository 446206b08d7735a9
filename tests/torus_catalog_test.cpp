#include "torus/catalog.hpp"

#include <gtest/gtest.h>

#include <set>

#include "torus/finders.hpp"
#include "torus/index.hpp"
#include "util/rng.hpp"

namespace bgl {
namespace {

const Dims kBgl = Dims::bluegene_l();

class CatalogTest : public ::testing::Test {
 protected:
  static const PartitionCatalog& catalog() {
    static PartitionCatalog instance(kBgl);
    return instance;
  }
};

TEST_F(CatalogTest, EntryCountMatchesClosedForm) {
  // Per dimension d with extent D, shapes of extent e contribute one
  // canonical base when e == D and D bases otherwise:
  //   x, y (D=4): 3*4 + 1 = 13;  z (D=8): 7*8 + 1 = 57.
  EXPECT_EQ(catalog().num_entries(), 13 * 13 * 57);
}

TEST_F(CatalogTest, EntriesSortedBySizeDescending) {
  for (int i = 1; i < catalog().num_entries(); ++i) {
    EXPECT_GE(catalog().entry(i - 1).size, catalog().entry(i).size);
  }
}

TEST_F(CatalogTest, MasksMatchDeclaredSize) {
  for (int i = 0; i < catalog().num_entries(); ++i) {
    const auto& e = catalog().entry(i);
    EXPECT_EQ(e.mask.count(), e.size);
    EXPECT_EQ(e.box.volume(), e.size);
  }
}

TEST_F(CatalogTest, EntriesAreUniqueNodeSets) {
  std::set<std::uint64_t> hashes;
  for (int i = 0; i < catalog().num_entries(); ++i) {
    hashes.insert(catalog().entry(i).mask.hash());
  }
  EXPECT_EQ(hashes.size(), static_cast<std::size_t>(catalog().num_entries()));
}

TEST_F(CatalogTest, SizeRangesPartitionTheEntries) {
  int covered = 0;
  for (int s = 1; s <= 128; ++s) {
    const auto [first, last] = catalog().size_range(s);
    for (int i = first; i < last; ++i) {
      EXPECT_EQ(catalog().entry(i).size, s);
    }
    covered += last - first;
  }
  EXPECT_EQ(covered, catalog().num_entries());
}

TEST_F(CatalogTest, SizeRangeOfUnrepresentableSizeIsEmpty) {
  // 13 is prime and exceeds every dimension: no shapes.
  const auto [first, last] = catalog().size_range(13);
  EXPECT_EQ(first, last);
  // 97 prime > 8 as well.
  const auto [f2, l2] = catalog().size_range(97);
  EXPECT_EQ(f2, l2);
}

TEST_F(CatalogTest, AllocatableSizeRoundsUp) {
  EXPECT_EQ(catalog().allocatable_size(1), 1);
  EXPECT_EQ(catalog().allocatable_size(13), 14);  // 14 = 2x1x7 fits
  EXPECT_EQ(catalog().allocatable_size(128), 128);
  EXPECT_EQ(catalog().allocatable_size(127), 128);
  EXPECT_EQ(catalog().allocatable_size(129), -1);
  EXPECT_EQ(catalog().allocatable_size(0), 1);
}

TEST_F(CatalogTest, AllocatableSizeClampsDegenerateRequests) {
  // s <= 0 rounds up to the smallest partition — and must NOT read the
  // size-1 slot through index 0 aliasing (slot 0 mirrors slot 1 by
  // construction; the contract is explicit, not accidental).
  EXPECT_EQ(catalog().allocatable_size(0), catalog().allocatable_size(1));
  EXPECT_EQ(catalog().allocatable_size(-1), 1);
  EXPECT_EQ(catalog().allocatable_size(-128), 1);
}

TEST_F(CatalogTest, SizeRangeOutOfDomainIsEmpty) {
  // Out-of-domain sizes are answerable, not UB: the range is empty.
  const auto [f0, l0] = catalog().size_range(0);
  EXPECT_EQ(f0, l0);
  const auto [fn, ln] = catalog().size_range(-7);
  EXPECT_EQ(fn, ln);
  const auto [fb, lb] = catalog().size_range(129);
  EXPECT_EQ(fb, lb);
  const auto [fh, lh] = catalog().size_range(1 << 20);
  EXPECT_EQ(fh, lh);
  // And the query paths built on it agree.
  NodeSet occ(128);
  std::vector<int> out;
  catalog().free_entries_of_size(occ, 129, out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(catalog().has_free_of_size(occ, 0));
}

TEST(FinderContracts, PopRejectsOrShortCircuitsBadSizes) {
  const Dims dims = Dims::cube(4);
  NodeSet occ(dims.volume());
  EXPECT_THROW(find_free_pop(dims, occ, 0), ContractViolation);
  EXPECT_THROW(find_free_pop(dims, occ, -3), ContractViolation);
  // Oversized requests return empty without scanning anything.
  EXPECT_TRUE(find_free_pop(dims, occ, dims.volume() + 1).empty());
}

TEST_F(CatalogTest, AllocatableSizeAlwaysHasEntries) {
  for (int s = 1; s <= 128; ++s) {
    const int alloc = catalog().allocatable_size(s);
    ASSERT_GE(alloc, s);
    const auto [first, last] = catalog().size_range(alloc);
    EXPECT_LT(first, last) << "size " << s << " -> " << alloc;
  }
}

TEST_F(CatalogTest, MfpOnEmptyTorusIsFullMachine) {
  NodeSet occ(128);
  EXPECT_EQ(catalog().mfp(occ), 128);
  EXPECT_EQ(catalog().first_free_index(occ), 0);
}

TEST_F(CatalogTest, MfpOnFullTorusIsZero) {
  NodeSet occ(128);
  occ.fill();
  EXPECT_EQ(catalog().mfp(occ), 0);
  EXPECT_EQ(catalog().first_free_index(occ), -1);
}

TEST_F(CatalogTest, MfpWithSingleBusyNode) {
  NodeSet occ(128);
  occ.set(node_id(kBgl, Coord{0, 0, 0}));
  // Largest free box avoiding one node: 4x4x7 = 112 (z-slab excluded).
  EXPECT_EQ(catalog().mfp(occ), 112);
}

TEST_F(CatalogTest, MfpWithMatchesMaterializedUnion) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    NodeSet occ(128);
    NodeSet extra(128);
    for (int i = 0; i < 128; ++i) {
      if (rng.bernoulli(0.3)) occ.set(i);
      if (rng.bernoulli(0.1)) extra.set(i);
    }
    NodeSet unioned = occ;
    unioned |= extra;
    const int direct = catalog().mfp(unioned);
    const int hint = catalog().first_free_index(occ);
    EXPECT_EQ(catalog().mfp_with(occ, extra, hint < 0 ? 0 : hint), direct);
  }
}

TEST_F(CatalogTest, FreeEntriesOfSizeAreFreeAndComplete) {
  Rng rng(123);
  NodeSet occ(128);
  for (int i = 0; i < 128; ++i) {
    if (rng.bernoulli(0.4)) occ.set(i);
  }
  for (const int s : {1, 2, 8, 16, 32, 64, 128}) {
    std::vector<int> free;
    catalog().free_entries_of_size(occ, s, free);
    std::set<int> free_set(free.begin(), free.end());
    const auto [first, last] = catalog().size_range(s);
    for (int i = first; i < last; ++i) {
      const bool is_free = !catalog().entry(i).mask.intersects(occ);
      EXPECT_EQ(free_set.count(i) > 0, is_free);
    }
    EXPECT_EQ(catalog().has_free_of_size(occ, s), !free.empty());
  }
}

TEST_F(CatalogTest, FirstFreeIndexRespectsStart) {
  NodeSet occ(128);
  const int first = catalog().first_free_index(occ);
  const int second = catalog().first_free_index(occ, first + 1);
  EXPECT_GT(second, first);
}

TEST(Occupancy, ClearDropsEverything) {
  // The machine's occupancy lives in its FreePartitionIndex; reset() is
  // its clear.
  PartitionCatalog catalog(kBgl);
  FreePartitionIndex index(catalog);
  const auto [first, last] = catalog.size_range(64);
  ASSERT_LT(first, last);
  const NodeSet& mask = catalog.entry(first).mask;
  int outside = 0;
  while (mask.test(outside)) ++outside;
  index.occupy(mask);
  index.occupy_node(outside);
  ASSERT_EQ(index.occupied().count(), 65);
  ASSERT_LT(index.mfp(), 128);

  index.reset();
  EXPECT_EQ(index.occupied().count(), 0);
  EXPECT_EQ(index.mfp(), 128);
  for (int e = 0; e < catalog.num_entries(); ++e) {
    EXPECT_TRUE(index.entry_free(e)) << "entry " << e;
  }
  EXPECT_NO_THROW(index.check_invariants());
}

TEST(CatalogGeneric, SmallTorusEntriesExhaustive) {
  // On a 2x2x2 torus: per dimension 1*2 + 1 = 3 options -> 27 entries.
  PartitionCatalog catalog(Dims{2, 2, 2});
  EXPECT_EQ(catalog.num_entries(), 27);
  EXPECT_EQ(catalog.allocatable_size(3), 4);
  NodeSet occ(8);
  EXPECT_EQ(catalog.mfp(occ), 8);
  occ.set(0);
  EXPECT_EQ(catalog.mfp(occ), 4);
}

}  // namespace
}  // namespace bgl
