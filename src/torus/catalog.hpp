// PartitionCatalog: the precomputed set of every legal partition.
//
// On the scheduler-visible BlueGene/L machine (4 x 4 x 8 supernodes) the set
// of all contiguous rectangular partitions with torus wrap-around is small
// (9 633 canonical boxes), so we precompute each one's node bitmask once.
// Every hot scheduler query then becomes a masked scan:
//
//   free?            (occ & mask) == 0            ~2 word-ops
//   MFP(occ)         first free entry in the size-descending order
//   MFP(occ | cand)  same scan with a fused OR, resumable from the index of
//                    MFP(occ) because adding nodes can only shrink the MFP.
//
// Canonicality: along any dimension whose extent equals the torus extent the
// base is fixed at 0 (all bases are wrap-equivalent), which makes the
// (shape, base) description of a node set unique — no dedup pass needed.
//
// Scaling to the full 64 x 32 x 32 machine (65 536 nodes) needs two things
// the paper-scale catalog does not:
//
//   * kBlocks mode — full box enumeration is O(volume^2) entries (~4e9 at
//     full scale), so the catalog instead enumerates aligned power-of-two
//     blocks of contiguous node ids (buddy-allocator style, 511 entries at
//     min_block = 256). Row-major id layout makes every such block a legal
//     canonical box, so the rest of the stack is unchanged.
//   * word-range kernels — every entry records the [word_begin, word_end)
//     span its mask occupies (plus whether the span is solid all-ones), so a
//     free test, and every other operation that combines an entry's mask
//     with a set, touches O(entry words), not O(machine words). At full
//     scale that is the difference between 4 and 1 024 words per probe.
#pragma once

#include <utility>
#include <vector>

#include "torus/coords.hpp"
#include "torus/nodeset.hpp"
#include "torus/partition.hpp"

namespace bgl {

struct CatalogOptions {
  enum class Mode {
    kBoxes,   ///< Every canonical rectangular box (the paper's catalog).
    kBlocks,  ///< Aligned power-of-two contiguous-id blocks (full scale).
  };

  Mode mode = Mode::kBoxes;

  /// kBlocks only: smallest block size (rounded up to a power of two and
  /// clamped to the machine). Jobs smaller than this round up to one block.
  int min_block = 256;
};

const char* to_string(CatalogOptions::Mode mode);

class PartitionCatalog {
 public:
  struct Entry {
    Box box;
    NodeSet mask;
    int size = 0;
    /// Tightest span of 64-bit words containing every set mask bit.
    std::size_t word_begin = 0;
    std::size_t word_end = 0;
    /// True when every word in [word_begin, word_end) is all-ones: the free
    /// test degenerates to "any occupied bit in the span?" and never touches
    /// the mask at all.
    bool solid = false;

    /// The word range to pass to NodeSet's kernels with this mask.
    WordRange span() const { return {word_begin, word_end}; }

    /// True if this entry and `other` share a node. Only words both spans
    /// cover can hold a common bit; spans that do not meet are disjoint.
    bool intersects(const Entry& other) const {
      return mask.intersects(other.mask, overlap(span(), other.span()));
    }
  };

  explicit PartitionCatalog(Dims dims, Topology topology = Topology::kTorus,
                            CatalogOptions options = {});

  const Dims& dims() const { return dims_; }
  Topology topology() const { return topology_; }
  const CatalogOptions& options() const { return options_; }
  int num_nodes() const { return dims_.volume(); }
  int num_entries() const { return static_cast<int>(entries_.size()); }
  const Entry& entry(int index) const { return entries_[static_cast<std::size_t>(index)]; }

  /// Entries are sorted by (size desc, shape lex, base lex); entries of one
  /// size are contiguous. Returns [first, last) indices for exact size s,
  /// or an empty range if no shape of that volume fits the torus.
  /// Contract: any out-of-domain s (negative, zero, or > num_nodes())
  /// yields the empty range {0, 0} — never an out-of-bounds access.
  std::pair<int, int> size_range(int s) const;

  /// Smallest s' >= s for which partitions exist (jobs whose size has no
  /// fitting shape are rounded up, as in Krevat's scheduler). Returns -1 if
  /// s exceeds the machine size.
  /// Contract: s <= 0 is clamped to 1 — a job occupies at least one node,
  /// so a degenerate (zero) or negative request maps to the smallest
  /// allocatable partition, never to a table slot of its own.
  int allocatable_size(int s) const;

  /// Index of the first entry at or after start_index whose mask is disjoint
  /// from occ; -1 if none. Because entries are size-descending this gives
  /// the maximal free partition when start_index == 0.
  int first_free_index(const NodeSet& occ, int start_index = 0) const;

  /// Same, but tests against (occ | extra) without materialising the union.
  int first_free_index_with(const NodeSet& occ, const NodeSet& extra,
                            int start_index = 0) const;

  /// Size of the maximal free partition (0 when nothing is free).
  int mfp(const NodeSet& occ) const;

  /// MFP of (occ | extra), resumable: pass the index returned by
  /// first_free_index(occ) as mfp_hint to skip entries already known busy.
  int mfp_with(const NodeSet& occ, const NodeSet& extra, int mfp_hint = 0) const;

  /// Indices of all free entries of exactly size s (appended to out).
  /// Generic over the output container (std::vector<int> or the scheduler's
  /// arena-backed ArenaVector<int>) — anything with push_back(int).
  template <typename OutVec>
  void free_entries_of_size(const NodeSet& occ, int s, OutVec& out) const {
    const auto [first, last] = size_range(s);
    for (int i = first; i < last; ++i) {
      if (entry_free(entries_[static_cast<std::size_t>(i)], occ)) out.push_back(i);
    }
  }

  /// True if at least one free partition of exactly size s exists.
  bool has_free_of_size(const NodeSet& occ, int s) const;

 private:
  void build_boxes();
  void build_blocks();
  void finalize_entries();

  bool entry_free(const Entry& e, const NodeSet& occ) const;
  bool entry_free_with(const Entry& e, const NodeSet& occ, const NodeSet& extra) const;

  Dims dims_;
  Topology topology_ = Topology::kTorus;
  CatalogOptions options_;
  std::vector<Entry> entries_;
  std::vector<std::pair<int, int>> range_by_size_;   ///< indexed by size, [first,last)
  std::vector<int> allocatable_size_;                ///< indexed by requested size
};

}  // namespace bgl
