// The block catalog (CatalogOptions::Mode::kBlocks): the scale-up
// alternative to full box enumeration. Structure (buddy-style power-of-two
// blocks over contiguous node ids), query equivalence between the
// word-range kernels and naive full-width scans, and behaviour at the real
// 64 x 32 x 32 BlueGene/L volume.
#include <gtest/gtest.h>

#include <vector>

#include "torus/catalog.hpp"
#include "torus/nodeset.hpp"
#include "util/rng.hpp"

namespace bgl {
namespace {

CatalogOptions block_options(int min_block) {
  CatalogOptions options;
  options.mode = CatalogOptions::Mode::kBlocks;
  options.min_block = min_block;
  return options;
}

TEST(BlockCatalog, BuddyStructureAtFullMachineScale) {
  const Dims dims{64, 32, 32};
  const PartitionCatalog catalog(dims, Topology::kTorus, block_options(256));

  // 65 536 / 256 = 256 leaves; a full buddy hierarchy has 2*256 - 1 nodes.
  ASSERT_EQ(catalog.num_entries(), 511);

  // Sizes are powers of two, descending, with exactly volume/size blocks of
  // each size partitioning the machine (every node covered exactly once).
  int last_size = catalog.num_nodes() + 1;
  for (int s = 65536; s >= 256; s /= 2) {
    const auto [first, last] = catalog.size_range(s);
    EXPECT_EQ(last - first, dims.volume() / s) << "size " << s;
    NodeSet covered(dims.volume());
    int total = 0;
    for (int i = first; i < last; ++i) {
      const auto& entry = catalog.entry(i);
      EXPECT_EQ(entry.size, s);
      EXPECT_LT(entry.size, last_size + 1);
      EXPECT_FALSE(entry.mask.intersects(covered)) << "entry " << i;
      covered |= entry.mask;
      total += entry.mask.count();
    }
    EXPECT_EQ(total, dims.volume()) << "size " << s;
    last_size = s;
  }

  // Jobs round up to the next block size; below min_block they take a leaf.
  EXPECT_EQ(catalog.allocatable_size(1), 256);
  EXPECT_EQ(catalog.allocatable_size(256), 256);
  EXPECT_EQ(catalog.allocatable_size(257), 512);
  EXPECT_EQ(catalog.allocatable_size(40000), 65536);
  EXPECT_EQ(catalog.allocatable_size(65536), 65536);
  EXPECT_EQ(catalog.allocatable_size(65537), -1);
}

TEST(BlockCatalog, EntriesAreContiguousIdRanges) {
  const Dims dims{16, 8, 8};
  const PartitionCatalog catalog(dims, Topology::kTorus, block_options(16));
  for (int i = 0; i < catalog.num_entries(); ++i) {
    const std::vector<int> ids = catalog.entry(i).mask.to_ids();
    ASSERT_FALSE(ids.empty());
    for (std::size_t k = 1; k < ids.size(); ++k) {
      ASSERT_EQ(ids[k], ids[k - 1] + 1) << "entry " << i;
    }
    EXPECT_EQ(ids.front() % catalog.entry(i).size, 0) << "entry " << i;
  }
}

// The word-range kernels (word_begin/word_end/solid fast paths) must give
// the same answer as naive entry-order scans that test every occupancy word
// for every query the scheduler makes.
TEST(BlockCatalog, WordRangeKernelsMatchFullWidthReference) {
  const Dims dims{16, 8, 8};
  const PartitionCatalog catalog(dims, Topology::kTorus, block_options(16));

  // Oracles: the first entry, in catalog order, disjoint from occ (or from
  // occ | extra), and every such entry of one size.
  auto first_free = [&](const NodeSet& occ) {
    for (int i = 0; i < catalog.num_entries(); ++i) {
      if (!occ.intersects(catalog.entry(i).mask)) return i;
    }
    return -1;
  };
  auto first_free_with = [&](const NodeSet& occ, const NodeSet& extra) {
    for (int i = 0; i < catalog.num_entries(); ++i) {
      if (!catalog.entry(i).mask.intersects_or(occ, extra)) return i;
    }
    return -1;
  };
  auto size_of = [&](int index) {
    return index < 0 ? 0 : catalog.entry(index).size;
  };

  Rng rng(0xB10CBEEFu);
  NodeSet occ(dims.volume());
  NodeSet extra(dims.volume());
  for (int round = 0; round < 60; ++round) {
    // Random occupancy / overlay churn, including full and empty extremes.
    for (int k = 0; k < 40; ++k) {
      const int node = static_cast<int>(
          rng.uniform_int(0, static_cast<std::uint64_t>(dims.volume() - 1)));
      if (rng.uniform() < 0.5) {
        occ.test(node) ? occ.reset(node) : occ.set(node);
      } else {
        extra.test(node) ? extra.reset(node) : extra.set(node);
      }
    }

    ASSERT_EQ(catalog.mfp(occ), size_of(first_free(occ))) << "round " << round;
    ASSERT_EQ(catalog.first_free_index(occ), first_free(occ));
    ASSERT_EQ(catalog.first_free_index_with(occ, extra),
              first_free_with(occ, extra));
    ASSERT_EQ(catalog.mfp_with(occ, extra), size_of(first_free_with(occ, extra)));
    for (int s = 16; s <= dims.volume(); s *= 2) {
      std::vector<int> got, want;
      catalog.free_entries_of_size(occ, s, got);
      const auto [first, last] = catalog.size_range(s);
      for (int i = first; i < last; ++i) {
        if (!occ.intersects(catalog.entry(i).mask)) want.push_back(i);
      }
      ASSERT_EQ(got, want) << "round " << round << " size " << s;
      ASSERT_EQ(catalog.has_free_of_size(occ, s), !want.empty());
    }
  }
}

TEST(BlockCatalog, MinBlockBelowMachineDefaultsSanely) {
  // min_block larger than the machine still yields the single full block.
  const Dims dims{4, 4, 8};
  const PartitionCatalog catalog(dims, Topology::kTorus, block_options(256));
  ASSERT_EQ(catalog.num_entries(), 1);
  EXPECT_EQ(catalog.entry(0).size, 128);
  EXPECT_EQ(catalog.allocatable_size(1), 128);
}

}  // namespace
}  // namespace bgl
