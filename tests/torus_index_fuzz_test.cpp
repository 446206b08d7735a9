// Differential fuzz harness for FreePartitionIndex (its equivalence
// contract): drive long random sequences of occupy / release / compaction
// resync / single-node failure deltas and hold the incremental answers up
// against the scan-based catalog — the reference implementation — and, for
// the MFP, against the independent find_free_all_naive box enumerator. Box
// catalogs exercise the cover-row kernel, block catalogs the word counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "torus/catalog.hpp"
#include "torus/finders.hpp"
#include "torus/index.hpp"
#include "util/rng.hpp"

namespace bgl {
namespace {

int naive_mfp(const Dims& dims, const NodeSet& occ) {
  int best = 0;
  for (const Box& b : find_free_all_naive(dims, occ)) {
    best = std::max(best, b.volume());
  }
  return best;
}

/// >= `deltas` random mutations; every answer compared against the catalog
/// scans, the full invariant check and the naive finder sampled.
void fuzz(const Dims& dims, Topology topology, std::uint64_t seed, int deltas,
          CatalogOptions options = {}) {
  const PartitionCatalog catalog(dims, topology, options);
  FreePartitionIndex index(catalog);
  NodeSet occ(dims.volume());  // reference occupancy, mutated in lockstep
  Rng rng(seed);

  std::vector<int> live;  // entries currently allocated
  std::vector<int> from_index, from_scan;
  for (int t = 0; t < deltas; ++t) {
    const double roll = rng.uniform();
    if (roll < 0.45) {  // allocate a random free partition
      const int e = static_cast<int>(
          rng.uniform_int(0, static_cast<std::uint64_t>(catalog.num_entries() - 1)));
      if (!catalog.entry(e).mask.intersects(occ)) {
        occ |= catalog.entry(e).mask;
        index.occupy(catalog.entry(e).mask);
        live.push_back(e);
      }
    } else if (roll < 0.72 && !live.empty()) {  // release a live partition
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::uint64_t>(live.size() - 1)));
      occ.subtract(catalog.entry(live[i]).mask);
      index.release(catalog.entry(live[i]).mask);
      live[i] = live.back();
      live.pop_back();
    } else if (roll < 0.76 && !live.empty()) {
      // A compaction: move one live partition to a random free entry of
      // its size (its own entry included), then resync the index from the
      // new occupancy wholesale, as the pass does after a repack.
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::uint64_t>(live.size() - 1)));
      const PartitionCatalog::Entry& from = catalog.entry(live[i]);
      occ.subtract(from.mask);
      from_scan.clear();
      catalog.free_entries_of_size(occ, from.size, from_scan);
      ASSERT_FALSE(from_scan.empty()) << "delta " << t;
      live[i] = from_scan[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::uint64_t>(from_scan.size() - 1)))];
      occ |= catalog.entry(live[i]).mask;
      index.reset(occ);
    } else {  // single-node failure / recovery (set semantics both ways)
      const int node = static_cast<int>(
          rng.uniform_int(0, static_cast<std::uint64_t>(dims.volume() - 1)));
      if (occ.test(node)) {
        // Only toggle nodes no live partition holds, so the reference
        // occupancy stays the union of live masks plus failed singletons.
        bool held = false;
        for (const int e : live) {
          if (catalog.entry(e).mask.test(node)) {
            held = true;
            break;
          }
        }
        if (!held) {
          occ.reset(node);
          index.release_node(node);
        }
      } else {
        occ.set(node);
        index.occupy_node(node);
      }
    }

    ASSERT_EQ(index.occupied(), occ) << "delta " << t;
    ASSERT_EQ(index.occupied_count(), occ.count()) << "delta " << t;
    ASSERT_EQ(index.mfp(), catalog.mfp(occ)) << "delta " << t;
    ASSERT_EQ(index.first_free_index(), catalog.first_free_index(occ))
        << "delta " << t;

    const int s = catalog.allocatable_size(static_cast<int>(
        rng.uniform_int(1, static_cast<std::uint64_t>(dims.volume()))));
    ASSERT_GT(s, 0);
    from_index.clear();
    from_scan.clear();
    index.free_entries_of_size(s, from_index);
    catalog.free_entries_of_size(occ, s, from_scan);
    ASSERT_EQ(from_index, from_scan) << "delta " << t << " size " << s;
    ASSERT_EQ(index.has_free_of_size(s), !from_scan.empty());

    if (!from_index.empty()) {  // the policy loop's overlay query
      // A random free candidate, at the MFP hint and at a random start
      // (mid-word starts included, and one past the last entry).
      const NodeSet& extra =
          catalog.entry(from_index[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::uint64_t>(from_index.size() - 1)))])
              .mask;
      const int hint = std::max(index.first_free_index(), 0);
      const int start = static_cast<int>(
          rng.uniform_int(0, static_cast<std::uint64_t>(catalog.num_entries())));
      for (const int from : {hint, start}) {
        ASSERT_EQ(index.first_free_index_with(extra, from),
                  catalog.first_free_index_with(occ, extra, from))
            << "delta " << t << " start " << from;
        ASSERT_EQ(index.mfp_with(extra, from), catalog.mfp_with(occ, extra, from))
            << "delta " << t << " start " << from;
      }
    }

    if (t % 100 == 0) {
      ASSERT_NO_THROW(index.check_invariants()) << "delta " << t;
      // The naive box enumerator assumes wrap-around and the full box
      // catalog, so it is only a valid independent reference on the torus
      // in boxes mode (a block catalog deliberately enumerates fewer
      // shapes and can have a smaller MFP).
      if (topology == Topology::kTorus &&
          options.mode == CatalogOptions::Mode::kBoxes) {
        ASSERT_EQ(index.mfp(), naive_mfp(dims, occ)) << "delta " << t;
      }
    }
  }
  index.check_invariants();
}

TEST(IndexFuzz, BlueGeneTorus) {
  fuzz(Dims::bluegene_l(), Topology::kTorus, 0xB61u, 1200);
}

TEST(IndexFuzz, BlueGeneMesh) {
  fuzz(Dims::bluegene_l(), Topology::kMesh, 0x3E5Au, 1200);
}

TEST(IndexFuzz, AsymmetricSmallTorus) {
  fuzz(Dims{3, 4, 5}, Topology::kTorus, 0xCAFEu, 1000);
}

TEST(IndexFuzz, BlockCatalogTorus) {
  // The scale-up configuration in miniature: contiguous-id blocks and the
  // index's word-level bulk occupy/release path.
  CatalogOptions options;
  options.mode = CatalogOptions::Mode::kBlocks;
  options.min_block = 16;
  fuzz(Dims{16, 8, 8}, Topology::kTorus, 0xB10C5u, 900, options);
}

TEST(IndexFuzz, SolidMultiWordBlocks) {
  // The full-machine shape at an eighth of its size: every block spans 4 or
  // more solid words, and single-node failures are one-bit deltas into the
  // word counters.
  CatalogOptions options;
  options.mode = CatalogOptions::Mode::kBlocks;
  options.min_block = 256;
  fuzz(Dims{32, 16, 16}, Topology::kTorus, 0x5011Du, 900, options);
}

}  // namespace
}  // namespace bgl
