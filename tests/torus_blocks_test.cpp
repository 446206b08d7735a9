// The block catalog (CatalogOptions::Mode::kBlocks): the scale-up
// alternative to full box enumeration. Structure (buddy-style power-of-two
// blocks over contiguous node ids), query equivalence between the
// word-range kernels and naive full-width scans, and behaviour at the real
// 64 x 32 x 32 BlueGene/L volume.
#include <gtest/gtest.h>

#include <vector>

#include "torus/catalog.hpp"
#include "torus/index.hpp"
#include "torus/nodeset.hpp"
#include "util/error.hpp"
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
    NodeSet both = occ;
    both |= extra;
    for (int i = 0; i < catalog.num_entries(); ++i) {
      if (!catalog.entry(i).mask.intersects(both)) return i;
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

// The word-range kernels: NodeSet's binary operations and the index's
// deltas over a WordRange, which a catalog entry supplies as its span().
// The per-bit reference counts a bit iff its word lies in the range.

NodeSet random_set(int bits, double density, Rng& rng) {
  NodeSet set(bits);
  for (int i = 0; i < bits; ++i) {
    if (rng.uniform() < density) set.set(i);
  }
  return set;
}

bool in_range(int bit, WordRange range) {
  const auto word = static_cast<std::size_t>(bit) / 64;
  return word >= range.begin && word < range.end;
}

/// intersects / intersect_count / unite / subtract of (a, b) over `range`
/// against the per-bit reference.
void expect_kernels_match_per_bit(const NodeSet& a, const NodeSet& b,
                                  WordRange range) {
  bool any = false;
  int count = 0;
  NodeSet united = a;
  united.unite(b, range);
  NodeSet subtracted = a;
  subtracted.subtract(b, range);
  for (int i = 0; i < a.bits(); ++i) {
    const bool b_here = in_range(i, range) && b.test(i);
    if (a.test(i) && b_here) {
      any = true;
      ++count;
    }
    ASSERT_EQ(united.test(i), a.test(i) || b_here) << "bit " << i;
    ASSERT_EQ(subtracted.test(i), a.test(i) && !b_here) << "bit " << i;
  }
  EXPECT_EQ(a.intersects(b, range), any);
  EXPECT_EQ(a.intersect_count(b, range), count);
}

TEST(WordRangeKernels, MatchPerBitReferenceOnRandomSets) {
  for (const int bits : {128, 65536}) {
    Rng rng(static_cast<std::uint64_t>(bits));
    const std::size_t n = static_cast<std::size_t>(bits) / 64;
    for (const double density : {0.02, 0.5}) {
      const NodeSet a = random_set(bits, density, rng);
      const NodeSet b = random_set(bits, density, rng);
      std::vector<WordRange> ranges = {
          {0, n},          // full width
          {0, 1},          // first word only
          {n - 1, n},      // ends at the last word
          {n / 2, n / 2},  // empty
          {n, 0},          // begin past end: empty
      };
      for (int k = 0; k < 4; ++k) {
        const auto lo = rng.uniform_int(0, n - 1);
        ranges.push_back({lo, rng.uniform_int(lo, n)});
      }
      for (const WordRange range : ranges) {
        SCOPED_TRACE(::testing::Message() << bits << " bits, density " << density
                                          << ", words [" << range.begin << ", "
                                          << range.end << ")");
        expect_kernels_match_per_bit(a, b, range);
      }
      EXPECT_THROW((void)a.intersects(b, WordRange{0, n + 1}), ContractViolation);
    }
  }
}

TEST(WordRangeKernels, EntrySpansMatchFullWidthOnBoxesAndBlocks) {
  // 128 bits: the paper's box catalog, whose masks are not solid.
  // 65 536 bits: the full-machine block catalog, whose masks are.
  const PartitionCatalog boxes(Dims::bluegene_l());
  const PartitionCatalog blocks(Dims{64, 32, 32}, Topology::kTorus,
                                block_options(256));
  for (const PartitionCatalog* catalog : {&boxes, &blocks}) {
    const int bits = catalog->num_nodes();
    const std::size_t last_word = static_cast<std::size_t>(bits) / 64;
    Rng rng(static_cast<std::uint64_t>(catalog->num_entries()));

    // Sampled entries, plus the whole machine and the last entry, whose
    // span ends at the last word.
    std::vector<int> sample = {0, catalog->num_entries() - 1};
    for (int k = 0; k < 40; ++k) {
      sample.push_back(static_cast<int>(rng.uniform_int(
          0, static_cast<std::uint64_t>(catalog->num_entries() - 1))));
    }
    int solid = 0;
    int ends_at_last_word = 0;
    for (const int index : sample) {
      const PartitionCatalog::Entry& e = catalog->entry(index);
      SCOPED_TRACE(::testing::Message() << bits << " bits, entry " << index);
      if (e.solid) ++solid;
      if (e.word_end == last_word) ++ends_at_last_word;
      const NodeSet other = random_set(bits, 0.05, rng);
      expect_kernels_match_per_bit(e.mask, other, e.span());
      expect_kernels_match_per_bit(other, e.mask, e.span());
    }
    if (catalog == &blocks) {
      EXPECT_EQ(solid, static_cast<int>(sample.size()));
    } else {
      EXPECT_LT(solid, static_cast<int>(sample.size()));
    }
    EXPECT_GE(ends_at_last_word, 2);

    // Entry against entry: the overlap of the two spans, against the
    // full-width test the kernel's [0, nwords) case gives.
    int disjoint_spans = 0;
    int overlapping_spans = 0;
    for (const int i : sample) {
      for (const int j : sample) {
        const PartitionCatalog::Entry& a = catalog->entry(i);
        const PartitionCatalog::Entry& b = catalog->entry(j);
        const WordRange both = overlap(a.span(), b.span());
        ++(both.begin < both.end ? overlapping_spans : disjoint_spans);
        ASSERT_EQ(a.intersects(b), a.mask.intersects(b.mask))
            << bits << " bits, entries " << i << " and " << j;
      }
    }
    EXPECT_GT(disjoint_spans, 0);
    EXPECT_GT(overlapping_spans, 0);
  }
}

TEST(WordRangeKernels, IndexDeltasOverEntrySpansMatchFullWidth) {
  // One index takes each delta over the entry's span, the other over the
  // whole machine. Releases route around a few down nodes the way the
  // service does: release over the span, then re-occupy the span's down
  // nodes; the full-width side releases mask & ~down.
  const PartitionCatalog boxes(Dims::bluegene_l());
  const PartitionCatalog blocks(Dims{64, 32, 32}, Topology::kTorus,
                                block_options(256));
  for (const PartitionCatalog* catalog : {&boxes, &blocks}) {
    SCOPED_TRACE(::testing::Message() << catalog->num_nodes() << " bits");
    const int bits = catalog->num_nodes();
    Rng rng(static_cast<std::uint64_t>(bits) + 7);
    FreePartitionIndex spans(*catalog);
    FreePartitionIndex full(*catalog);
    NodeSet down(bits);
    std::vector<int> held;
    std::vector<int> sizes;
    for (int i = 0; i < catalog->num_entries(); ++i) {
      if (sizes.empty() || sizes.back() != catalog->entry(i).size) {
        sizes.push_back(catalog->entry(i).size);
      }
    }
    for (int step = 0; step < 300; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.05) {
        const int node = static_cast<int>(
            rng.uniform_int(0, static_cast<std::uint64_t>(bits - 1)));
        down.set(node);
        spans.occupy_node(node);
        full.occupy_node(node);
      } else if (roll < 0.45 && !held.empty()) {
        const std::size_t k = rng.uniform_int(0, held.size() - 1);
        const PartitionCatalog::Entry& e = catalog->entry(held[k]);
        held[k] = held.back();
        held.pop_back();
        spans.release(e.mask, e.span());
        spans.occupy(down, e.span());
        NodeSet up = e.mask;
        up.subtract(down);
        full.release(up);
      } else {
        const int size =
            sizes[rng.uniform_int(0, sizes.size() - 1)];
        std::vector<int> free;
        full.free_entries_of_size(size, free);
        if (free.empty()) continue;
        const int index = free[rng.uniform_int(0, free.size() - 1)];
        const PartitionCatalog::Entry& e = catalog->entry(index);
        spans.occupy(e.mask, e.span());
        full.occupy(e.mask);
        held.push_back(index);
      }
      ASSERT_EQ(spans.occupied(), full.occupied()) << "step " << step;
      if (step % 30 == 0) {
        spans.check_invariants();
        full.check_invariants();
      }
    }
    spans.check_invariants();
    EXPECT_FALSE(held.empty());
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
