// FreePartitionIndex: incremental occupancy-aware view of a PartitionCatalog.
//
// The catalog answers every free-partition query by scanning entry masks
// (O(catalog) word-ops per query). That scan dominates the scheduler's
// simulated-time throughput: one full scan per MFP query plus one more
// fused scan *per candidate* inside the policy loop. This index replaces
// the scans with incremental bookkeeping:
//
//   node -> covering entries   inverted index (CSR), built once per catalog
//   blocked_[e]                occupied nodes inside entry e's mask
//   free_bits_                 bit e set iff blocked_[e] == 0
//   free_by_size_[s]           free entries of exact size s
//   mfp cursor                 lazily-decreasing largest size with free > 0
//
// An occupy/release delta of k nodes costs O(k * entries-per-node)
// counter updates (1421 entries cover each node of the 4x4x8 supernode
// machine); afterwards
//
//   mfp()                  O(1) amortised (cursor)
//   has_free_of_size(s)    O(1)
//   free_entries_of_size   O(answer + size-range/64) bit iteration
//   first_free_index       O(first-free/64) bit iteration
//   mfp_with(extra)        O(free entries tried) — only entries already
//                          free under the base occupancy are tested
//                          against `extra`, instead of rescanning the
//                          whole catalog with a fused OR.
//
// Equivalence contract: every query returns bit-for-bit the same answer
// (same entry indices, same order) as the catalog's scan over occupied().
// The scan-based catalog remains the reference implementation; the
// differential fuzz harness (tests/torus_index_fuzz_test.cpp) drives
// random delta sequences against it.
//
// One index per machine: the service owns it, and each scheduling pass
// commits its starts (and a compaction's reset) into it in place. Copies
// share the immutable CSR layout (shared_ptr) and move only the mutable
// counters.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "torus/catalog.hpp"
#include "torus/nodeset.hpp"

namespace bgl {

class FreePartitionIndex {
 public:
  /// Build over `catalog` with empty occupancy. O(sum of entry sizes).
  explicit FreePartitionIndex(const PartitionCatalog& catalog);

  FreePartitionIndex(const FreePartitionIndex&) = default;
  FreePartitionIndex& operator=(const FreePartitionIndex&) = default;
  FreePartitionIndex(FreePartitionIndex&&) = default;
  FreePartitionIndex& operator=(FreePartitionIndex&&) = default;

  const PartitionCatalog& catalog() const { return *catalog_; }
  const NodeSet& occupied() const { return occ_; }

  /// Forget all occupancy (every entry free). O(entries).
  void reset();

  /// Rebuild to match `occ` exactly. O(entries + |occ| * entries-per-node).
  void reset(const NodeSet& occ);

  /// Mark every node in `mask` occupied. Nodes already occupied are
  /// ignored (set semantics), so overlapping layers — a partition mask
  /// unioned with a down-node overlay — compose correctly. Only the words
  /// of `range` are read: pass a catalog entry's span() with its mask.
  void occupy(const NodeSet& mask, WordRange range);
  void occupy(const NodeSet& mask) { occupy(mask, mask.all_words()); }

  /// Mark every node in `mask` (inside `range`) free again. Nodes not
  /// currently occupied are ignored. To release an allocation while some
  /// of its nodes must stay blocked (e.g. they are down), occupy the
  /// blocked set over the same range afterwards.
  void release(const NodeSet& mask, WordRange range);
  void release(const NodeSet& mask) { release(mask, mask.all_words()); }

  /// Single-node deltas for the service's failure/repair paths.
  void occupy_node(int node);
  void release_node(int node);

  // Queries: same semantics (and identical answers) as the catalog scans
  // against occupied().

  /// Size of the maximal free partition (0 when nothing is free).
  int mfp() const;

  /// Index of the first free entry at or after start_index; -1 if none.
  int first_free_index(int start_index = 0) const;

  /// First entry free under occupied() whose mask is also disjoint from
  /// `extra`; -1 if none. Only entries free under the base occupancy are
  /// tested — this is the policies' mfp_after overlay.
  int first_free_index_with(const NodeSet& extra, int start_index = 0) const;

  /// MFP of (occupied() | extra); resumable via mfp_hint like the catalog.
  int mfp_with(const NodeSet& extra, int mfp_hint = 0) const;

  bool has_free_of_size(int s) const { return free_count_of_size(s) > 0; }
  int free_count_of_size(int s) const;

  /// Indices of all free entries of exactly size s, ascending (appended).
  /// Generic over the output container (std::vector<int> or an arena-backed
  /// ArenaVector<int>) — anything with push_back(int).
  template <typename OutVec>
  void free_entries_of_size(int s, OutVec& out) const {
    const auto [first, last] = catalog_->size_range(s);
    for (int i = first; i < last;) {
      const int found = first_free_index(i);
      if (found < 0 || found >= last) return;
      out.push_back(found);
      i = found + 1;
    }
  }

  /// True if entry `index` has no occupied node.
  bool entry_free(int index) const;

  /// Occupied nodes inside entry `index`'s mask (test introspection).
  int blocked_count(int index) const;

  /// Recompute everything from occupied() with catalog scans and compare
  /// against the incremental state; throws ContractViolation on drift.
  /// Test/debug aid — O(catalog), never called on the hot path.
  void check_invariants() const;

 private:
  /// Immutable per-catalog layout, shared across copies. Two inverted
  /// indexes over the same coverage relation: per-node (single-node deltas
  /// and box catalogs) and per-word (bulk deltas on block catalogs — one
  /// popcount per covering entry per delta word instead of one counter
  /// update per node, the difference between O(|mask|) and O(|mask|/64)
  /// work on the 65 536-node machine).
  /// The per-word arrays are only built for block catalogs: blocks are
  /// solid and disjoint within a size class (9 entries per word at full
  /// scale), whereas thousands of overlapping boxes cover every word of
  /// the paper-scale machine, making word granularity a pessimization.
  struct Layout {
    std::vector<std::int32_t> node_offsets;  ///< CSR offsets, nodes + 1.
    std::vector<std::int32_t> node_entries;  ///< Covering entry indices.
    std::vector<std::int32_t> entry_size;    ///< Entry size, flat copy.
    std::vector<std::int32_t> word_offsets;  ///< CSR offsets, words + 1.
    std::vector<std::int32_t> word_entries;  ///< Entries with bits in word.
    std::vector<std::uint64_t> word_masks;   ///< That entry's mask word.
  };

  void block(int entry);
  void unblock(int entry);

  const PartitionCatalog* catalog_;
  std::shared_ptr<const Layout> layout_;
  NodeSet occ_;
  std::vector<std::int32_t> blocked_;      ///< Per-entry blocked-node count.
  std::vector<std::uint64_t> free_bits_;   ///< Bit e = entry e free.
  std::vector<std::int32_t> free_by_size_; ///< Free entries per exact size.
  /// Lazily-decreasing upper bound on the MFP size: raised eagerly on
  /// unblock, lowered on demand in mfp(). Amortised O(1) per update.
  mutable int mfp_cursor_ = 0;
  /// Bulk occupy/release go word-at-a-time (block catalogs only).
  bool word_deltas_ = false;
};

}  // namespace bgl
