// Dense bitset over torus nodes.
//
// The scheduler's hot loops are "is this partition free" tests, which reduce
// to word-wise AND over 64-bit words. At the paper's scheduler-visible scale
// (128 supernodes = 2 words) the words live inline in the object — no heap
// allocation at all — while the full 64x32x32 BlueGene/L machine (65 536
// nodes = 1 024 words) spills to a flat heap array. All kernels run over
// 4-word unrolled strides. Every binary kernel takes a WordRange: a catalog
// entry's mask only has bits in its [word_begin, word_end) span, so combining
// it with another set never needs the words outside that span. At full scale
// that is the difference between a few words and 1 024 per operation. The
// full-width forms are the [0, nwords) case of the same kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/error.hpp"

namespace bgl {

/// A half-open span [begin, end) of 64-bit words. begin >= end is empty.
struct WordRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The words both ranges cover; empty when they do not meet, in which case
/// sets confined to them share no bit.
inline WordRange overlap(WordRange a, WordRange b) {
  return {a.begin > b.begin ? a.begin : b.begin, a.end < b.end ? a.end : b.end};
}

class NodeSet {
 public:
  /// Lightweight read-only view of the backing words (the catalog's fused
  /// scan loops index this directly). Valid until the NodeSet is resized,
  /// assigned, or destroyed.
  struct WordSpan {
    const std::uint64_t* data = nullptr;
    std::size_t count = 0;
    std::size_t size() const { return count; }
    std::uint64_t operator[](std::size_t i) const { return data[i]; }
    const std::uint64_t* begin() const { return data; }
    const std::uint64_t* end() const { return data + count; }
  };

  NodeSet() = default;

  /// An empty set over `bits` node ids.
  explicit NodeSet(int bits);

  NodeSet(const NodeSet& other);
  NodeSet(NodeSet&& other) noexcept;
  NodeSet& operator=(const NodeSet& other);
  NodeSet& operator=(NodeSet&& other) noexcept;
  ~NodeSet() = default;

  int bits() const { return bits_; }
  bool empty() const;  ///< Early-exits on the first nonzero word.
  int count() const;

  void set(int id);
  void reset(int id);
  bool test(int id) const;
  void clear();
  void fill();  ///< Set all `bits` bits.

  /// Every word of the set: the range of the full-width operations.
  WordRange all_words() const { return {0, nwords_}; }

  // Binary kernels over the words of `range` only; words outside it are
  // neither read nor written. Neither end of `range` may pass nwords.

  /// True if this and other share a set bit inside `range`.
  bool intersects(const NodeSet& other, WordRange range) const;
  bool intersects(const NodeSet& other) const {
    return intersects(other, all_words());
  }

  /// Number of bits set in (this & other) inside `range`.
  int intersect_count(const NodeSet& other, WordRange range) const;
  int intersect_count(const NodeSet& other) const {
    return intersect_count(other, all_words());
  }

  /// this |= other, inside `range`.
  NodeSet& unite(const NodeSet& other, WordRange range);
  NodeSet& operator|=(const NodeSet& other) { return unite(other, all_words()); }

  /// this &= ~other, inside `range`.
  NodeSet& subtract(const NodeSet& other, WordRange range);
  NodeSet& subtract(const NodeSet& other) { return subtract(other, all_words()); }

  /// True if any bit is set in words [word_begin, word_end). The catalog's
  /// scan loops use this to probe only the span an entry can occupy.
  bool any_in_word_range(std::size_t word_begin, std::size_t word_end) const;

  friend bool operator==(const NodeSet& a, const NodeSet& b);

  /// Stable 64-bit hash for dedup containers.
  std::uint64_t hash() const;

  /// Set-bit node ids in ascending order.
  std::vector<int> to_ids() const;

  /// Direct word access for the catalog's fused-scan loops.
  WordSpan words() const { return {data(), nwords_}; }

  /// Mutable word access for incremental maintainers (the partition index's
  /// bulk delta loops). Bits at or above bits() must stay zero.
  std::uint64_t* mutable_words() { return data(); }

 private:
  // 128 supernodes (the paper's scheduler-visible machine) fit the inline
  // buffer exactly; anything larger takes one flat allocation.
  static constexpr std::size_t kInlineWords = 2;

  const std::uint64_t* data() const {
    return nwords_ <= kInlineWords ? inline_ : heap_.get();
  }
  std::uint64_t* data() {
    return nwords_ <= kInlineWords ? inline_ : heap_.get();
  }
  void check_compatible(const NodeSet& other, WordRange range) const;

  int bits_ = 0;
  std::size_t nwords_ = 0;
  std::uint64_t inline_[kInlineWords] = {0, 0};
  std::unique_ptr<std::uint64_t[]> heap_;
};

}  // namespace bgl
