// FreePartitionIndex: incremental occupancy-aware view of a PartitionCatalog.
//
// The catalog answers every free-partition query by scanning entry masks
// (O(catalog) word-ops per query). That scan dominates the scheduler's
// simulated-time throughput: one full scan per MFP query plus one more
// fused scan *per candidate* inside the policy loop. This index replaces
// the scans with incremental bookkeeping:
//
//   free_bits_          bit e set iff entry e has no occupied node
//   free_by_size_[s]    free entries of exact size s
//   occupied_count_     busy nodes, kept by popcount of each delta word
//   mfp cursor          largest size with free > 0 (an upper bound that
//                       mfp() lowers lazily)
//
// Two delta kernels keep free_bits_ current; the catalog's mode picks one.
//
//   Box catalogs: cover rows. row[n] is a bitmap over entries with bit e
//   set iff entry e covers node n (one row per node, entries/64 words;
//   151 words at 4x4x8, where 1 421 of the 9 633 boxes cover each node).
//   An occupy clears row[n] from free_bits_ for each newly busy node, then
//   recounts free_by_size_ by popcount over each size's entry range: O(Δ x
//   entries/64). A release rebuilds free_bits_ = ~OR row[n] over the nodes
//   still busy and recounts: O(|busy| x entries/64). The rows take nodes x
//   entries / 8 bytes (151 KiB at paper scale).
//
//   Block catalogs: a buddy tree. Blocks nest as a binary tree, so the
//   index keeps one busy flag per block in heap order: block [base,
//   base + s) sits at position volume / s - 1 + base / s, and each
//   position maps to its catalog entry (the catalog orders a size's blocks
//   by box base, not by node id). A delta recomputes from the occupancy
//   only the leaves (min_block blocks) its changed words touch, then climbs
//   their ancestors level by level, each parent the OR of its two
//   children, and stops at the first level where no flag moved. A flag
//   that flips updates its entry's free bit and per-size count. At
//   64x32x32 (min_block 256) a 16 384-node delta touches 64 leaves and
//   about 130 flags; a one-node delta one leaf and at most 9 flags.
//
// Single-node deltas are one-bit deltas into the same kernel. Afterwards
//
//   mfp()                  O(1) amortised (cursor)
//   has_free_of_size(s)    O(1)
//   occupied_count()       O(1)
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
// share the immutable rows or tree map (shared_ptr) and copy only the
// mutable state.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "torus/catalog.hpp"
#include "torus/nodeset.hpp"

namespace bgl {

class FreePartitionIndex {
 public:
  /// Build over `catalog` with empty occupancy. O(sum of entry sizes) for
  /// the rows of a box catalog, O(entries) for a block catalog's tree.
  explicit FreePartitionIndex(const PartitionCatalog& catalog);

  FreePartitionIndex(const FreePartitionIndex&) = default;
  FreePartitionIndex& operator=(const FreePartitionIndex&) = default;
  FreePartitionIndex(FreePartitionIndex&&) = default;
  FreePartitionIndex& operator=(FreePartitionIndex&&) = default;

  const PartitionCatalog& catalog() const { return *catalog_; }
  const NodeSet& occupied() const { return occ_; }
  /// occupied().count(), kept by every delta. O(1).
  int occupied_count() const { return occupied_count_; }

  /// Forget all occupancy (every entry free). O(entries).
  void reset();

  /// Rebuild to match `occ` exactly: reset() plus one occupy of `occ`.
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

  /// Single-node deltas for the service's failure/repair paths: one-bit
  /// deltas into the same kernel, with the same set semantics.
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
    // free_by_size_[s] is exactly the number of set bits in the size's
    // entry range (check_invariants), so the count bounds the walk: it
    // stops at the size's last free entry, and returns at once when there
    // is none.
    int left = free_count_of_size(s);
    if (left == 0) return;
    const auto first = static_cast<std::size_t>(catalog_->size_range(s).first);
    auto w = first / 64;
    std::uint64_t word = free_bits_[w] & (~std::uint64_t{0} << (first % 64));
    while (true) {
      for (; word != 0; word &= word - 1) {
        out.push_back(static_cast<int>(w * 64) + std::countr_zero(word));
        if (--left == 0) return;
      }
      word = free_bits_[++w];
    }
  }

  /// True if entry `index` has no occupied node.
  bool entry_free(int index) const;

  /// Occupied nodes inside entry `index`'s mask, counted from occupied()
  /// (test introspection).
  int blocked_count(int index) const;

  /// Recompute everything from occupied() with catalog scans and compare
  /// against the incremental state; throws ContractViolation on drift.
  /// Test/debug aid — O(catalog), never called on the hot path.
  void check_invariants() const;

 private:
  /// Immutable per-catalog layout, shared across copies. Box catalogs get
  /// the cover rows, block catalogs the tree's position map.
  struct Layout {
    /// Entries of one size, [first, last), in the catalog's size-descending
    /// order: the recount's popcount ranges.
    struct SizeRun {
      int size;
      int first;
      int last;
    };
    std::vector<SizeRun> size_runs;
    /// Cover rows (box catalogs): node n's row is words [n * row_words,
    /// (n + 1) * row_words), bit e set iff entry e covers node n.
    std::vector<std::uint64_t> rows;
    std::size_t row_words = 0;
    /// Block tree: the catalog entry at each heap position.
    std::vector<std::int32_t> tree_entry;
    /// Block tree: log2 of the leaf (min_block) size, and the bits of a
    /// word's first leaf (sub-word leaves).
    int leaf_shift = 0;
    std::uint64_t leaf_mask = 0;
  };

  /// Apply the bits of word `w` in `bits` that change occupancy to occ_
  /// and the kernel: cover rows clear an occupied node's entries at once,
  /// the tree queues the word's touched leaves. Returns the number of
  /// nodes changed; the caller hands the delta's total to finish_*().
  /// The per-word and per-flag helpers are inline, defined in index.cpp
  /// (their only caller): a call per word cost a quarter of a delta.
  inline int occupy_word(std::size_t w, std::uint64_t bits);
  inline int release_word(std::size_t w, std::uint64_t bits);
  /// Close a delta that changed `added` or `removed` nodes: the busy count,
  /// then recount() or rebuild_free_bits() for cover rows, settle_tree()
  /// for the tree. Nothing when no node changed.
  void finish_occupy(int added);
  void finish_release(int removed);
  /// Block tree: queue the leaves holding a bit of `delta` (word `w`).
  inline void touch_leaves(std::size_t w, std::uint64_t delta);
  /// Block tree: recompute the queued leaves from occ_, then climb their
  /// ancestors until a level where no flag moves.
  void settle_tree();
  /// Block tree: true if leaf `leaf` holds an occupied node.
  inline bool leaf_busy(std::size_t leaf) const;
  /// Block tree: set position `pos`'s flag (a block of `size` nodes); on a
  /// flip, update its entry's free bit, the per-size count and the MFP
  /// cursor. True when the flag flipped.
  inline bool set_busy(std::size_t pos, bool busy, int size);
  /// Cover rows: free_bits_ = ~OR row[n] over the busy nodes, then recount.
  void rebuild_free_bits();
  /// free_by_size_ and the MFP cursor from free_bits_, by popcount.
  void recount();

  const PartitionCatalog* catalog_;
  std::shared_ptr<const Layout> layout_;
  NodeSet occ_;
  int occupied_count_ = 0;
  std::vector<std::uint64_t> free_bits_;   ///< Bit e = entry e free.
  std::vector<std::int32_t> free_by_size_; ///< Free entries per exact size.
  /// Block tree only: busy flag per heap position (not a character type,
  /// whose stores would alias every other member).
  std::vector<std::uint16_t> busy_;
  /// Block tree only: the leaves a delta touched (the first pending_), then,
  /// level by level, the positions whose flag moved.
  std::vector<std::size_t> moved_;
  std::size_t pending_ = 0;
  /// Upper bound on the MFP size: raised eagerly when the tree frees an
  /// entry, set exactly by a recount, lowered on demand in mfp().
  mutable int mfp_cursor_ = 0;
  /// Block catalogs keep the buddy tree; box catalogs use cover rows.
  bool tree_ = false;
};

}  // namespace bgl
