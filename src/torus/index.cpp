#include "torus/index.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace bgl {

namespace {
constexpr std::uint64_t kOne = 1;
constexpr std::uint64_t kAll = ~std::uint64_t{0};

/// Set bits of `bits` at positions [first, last), first < last.
int count_range(const std::vector<std::uint64_t>& bits, int first, int last) {
  const auto f = static_cast<std::size_t>(first);
  const auto l = static_cast<std::size_t>(last) - 1;  // inclusive
  const std::uint64_t head = kAll << (f % 64);
  const std::uint64_t tail = kAll >> (63 - l % 64);
  if (f / 64 == l / 64) return std::popcount(bits[f / 64] & head & tail);
  int n = std::popcount(bits[f / 64] & head);
  for (std::size_t w = f / 64 + 1; w < l / 64; ++w) n += std::popcount(bits[w]);
  return n + std::popcount(bits[l / 64] & tail);
}
}  // namespace

FreePartitionIndex::FreePartitionIndex(const PartitionCatalog& catalog)
    : catalog_(&catalog), occ_(catalog.num_nodes()) {
  const int nodes = catalog.num_nodes();
  const int entries = catalog.num_entries();
  const std::size_t entry_words = (static_cast<std::size_t>(entries) + 63) / 64;
  // Cover rows cost a row per busy node: cheap on the paper-scale box
  // catalog (128 nodes), hopeless on the 65 536-node block catalog, whose
  // nested blocks form a binary tree instead.
  tree_ = catalog.options().mode == CatalogOptions::Mode::kBlocks;

  auto layout = std::make_shared<Layout>();
  for (int e = 0; e < entries; ++e) {
    const int size = catalog.entry(e).size;
    if (layout->size_runs.empty() || layout->size_runs.back().size != size) {
      layout->size_runs.push_back(Layout::SizeRun{size, e, e});
    }
    ++layout->size_runs.back().last;
  }

  if (!tree_) {
    // Straight from each entry's mask words: entry e sets bit e in the row
    // of every node it covers.
    layout->row_words = entry_words;
    layout->rows.assign(static_cast<std::size_t>(nodes) * entry_words, 0);
    for (int e = 0; e < entries; ++e) {
      const auto& entry = catalog.entry(e);
      const NodeSet::WordSpan mask = entry.mask.words();
      const auto slot = static_cast<std::size_t>(e) / 64;
      const std::uint64_t bit = kOne << (static_cast<std::size_t>(e) % 64);
      for (std::size_t w = entry.word_begin; w < entry.word_end; ++w) {
        for (std::uint64_t m = mask[w]; m != 0; m &= m - 1) {
          const std::size_t node = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
          layout->rows[node * entry_words + slot] |= bit;
        }
      }
    }
  } else {
    // Entry e is the block [base, base + size) whose base node is its box's
    // base; its heap position is volume / size - 1 + base / size.
    const int min_block = catalog.options().min_block;
    layout->leaf_shift = std::countr_zero(static_cast<unsigned>(min_block));
    layout->leaf_mask = min_block < 64 ? (kOne << min_block) - 1 : kAll;
    layout->tree_entry.assign(static_cast<std::size_t>(entries), -1);
    for (int e = 0; e < entries; ++e) {
      const auto& entry = catalog.entry(e);
      const int base = node_id(catalog.dims(), entry.box.base);
      const auto pos =
          static_cast<std::size_t>(nodes / entry.size - 1 + base / entry.size);
      BGL_CHECK(pos < layout->tree_entry.size() && layout->tree_entry[pos] < 0,
                "block catalog is not a buddy tree");
      layout->tree_entry[pos] = e;
    }
    busy_.assign(static_cast<std::size_t>(entries), 0);
    moved_.assign(static_cast<std::size_t>(nodes / min_block), 0);
  }
  layout_ = std::move(layout);

  free_bits_.assign(entry_words, 0);
  free_by_size_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  reset();
}

void FreePartitionIndex::reset() {
  occ_.clear();
  occupied_count_ = 0;
  std::fill(busy_.begin(), busy_.end(), 0);
  // No node is busy, so the rebuild ORs no row: every entry comes out free,
  // under either kernel.
  rebuild_free_bits();
}

void FreePartitionIndex::reset(const NodeSet& occ) {
  reset();
  occupy(occ);
}

void FreePartitionIndex::rebuild_free_bits() {
  const std::size_t row_words = layout_->row_words;
  std::fill(free_bits_.begin(), free_bits_.end(), 0);
  const NodeSet::WordSpan occ = occ_.words();
  for (std::size_t w = 0; w < occ.size(); ++w) {
    for (std::uint64_t m = occ[w]; m != 0; m &= m - 1) {
      const std::size_t node = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
      const std::uint64_t* row = &layout_->rows[node * row_words];
      for (std::size_t i = 0; i < row_words; ++i) free_bits_[i] |= row[i];
    }
  }
  for (std::uint64_t& word : free_bits_) word = ~word;
  const auto tail = static_cast<std::size_t>(catalog_->num_entries()) % 64;
  if (tail != 0) free_bits_.back() &= (kOne << tail) - 1;
  recount();
}

void FreePartitionIndex::recount() {
  mfp_cursor_ = 0;
  for (const Layout::SizeRun& run : layout_->size_runs) {
    const int free = count_range(free_bits_, run.first, run.last);
    free_by_size_[static_cast<std::size_t>(run.size)] = free;
    if (free != 0 && mfp_cursor_ == 0) mfp_cursor_ = run.size;  // size-descending
  }
}

int FreePartitionIndex::occupy_word(std::size_t w, std::uint64_t bits) {
  std::uint64_t& occ = occ_.mutable_words()[w];
  const std::uint64_t delta = bits & ~occ;
  if (delta == 0) return 0;
  occ |= delta;
  if (tree_) {
    touch_leaves(w, delta);
  } else {
    const Layout& layout = *layout_;
    const std::size_t row_words = layout.row_words;
    for (std::uint64_t m = delta; m != 0; m &= m - 1) {
      const std::size_t node = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
      const std::uint64_t* row = &layout.rows[node * row_words];
      for (std::size_t i = 0; i < row_words; ++i) free_bits_[i] &= ~row[i];
    }
  }
  return std::popcount(delta);
}

int FreePartitionIndex::release_word(std::size_t w, std::uint64_t bits) {
  std::uint64_t& occ = occ_.mutable_words()[w];
  const std::uint64_t delta = bits & occ;
  if (delta == 0) return 0;
  occ &= ~delta;
  if (tree_) touch_leaves(w, delta);
  return std::popcount(delta);
}

void FreePartitionIndex::finish_occupy(int added) {
  if (added == 0) return;
  occupied_count_ += added;
  if (tree_) {
    settle_tree();
  } else {
    recount();
  }
}

void FreePartitionIndex::finish_release(int removed) {
  if (removed == 0) return;
  occupied_count_ -= removed;
  if (tree_) {
    settle_tree();
  } else {
    rebuild_free_bits();
  }
}

void FreePartitionIndex::touch_leaves(std::size_t w, std::uint64_t delta) {
  const int shift = layout_->leaf_shift;
  if (shift >= 6) {  // a leaf spans whole words, so the word is in one leaf
    const std::size_t leaf = w >> (shift - 6);
    if (pending_ == 0 || moved_[pending_ - 1] != leaf) moved_[pending_++] = leaf;
    return;
  }
  // Several leaves per word: one entry per leaf holding a delta bit.
  const std::size_t first = (w * 64) >> shift;
  while (delta != 0) {
    const int j = std::countr_zero(delta) >> shift;
    moved_[pending_++] = first + static_cast<std::size_t>(j);
    delta &= ~(layout_->leaf_mask << (j << shift));
  }
}

bool FreePartitionIndex::leaf_busy(std::size_t leaf) const {
  const int shift = layout_->leaf_shift;
  const NodeSet::WordSpan occ = occ_.words();
  if (shift >= 6) {
    // Inline, not NodeSet::any_in_word_range: an out-of-line call per leaf
    // made block deltas ~15 % slower.
    const std::size_t per = std::size_t{1} << (shift - 6);
    for (std::size_t w = leaf * per; w < (leaf + 1) * per; ++w) {
      if (occ[w] != 0) return true;
    }
    return false;
  }
  const std::size_t bit = leaf << shift;
  return ((occ[bit / 64] >> (bit % 64)) & layout_->leaf_mask) != 0;
}

bool FreePartitionIndex::set_busy(std::size_t pos, bool busy, int size) {
  if ((busy_[pos] != 0) == busy) return false;
  busy_[pos] = busy ? 1 : 0;
  const auto e = static_cast<std::size_t>(layout_->tree_entry[pos]);
  auto& free = free_by_size_[static_cast<std::size_t>(size)];
  if (busy) {
    free_bits_[e / 64] &= ~(kOne << (e % 64));
    --free;  // mfp_cursor_ stays an upper bound; mfp() lowers it lazily
  } else {
    free_bits_[e / 64] |= kOne << (e % 64);
    ++free;
    if (size > mfp_cursor_) mfp_cursor_ = size;
  }
  return true;
}

void FreePartitionIndex::settle_tree() {
  const int volume = catalog_->num_nodes();
  int size = 1 << layout_->leaf_shift;
  // The leaf level: positions volume / size - 1 onward, recomputed from occ_.
  const auto first_leaf = static_cast<std::size_t>(volume / size - 1);
  std::size_t moved = 0;
  for (std::size_t k = 0; k < pending_; ++k) {
    const std::size_t pos = first_leaf + moved_[k];
    if (set_busy(pos, leaf_busy(moved_[k]), size)) moved_[moved++] = pos;
  }
  pending_ = 0;
  // Each level's moved positions are ascending, so siblings are adjacent and
  // a parent is seen in one run; the list is rewritten in place. Below the
  // root every position is at least 1.
  while (moved != 0 && size < volume) {
    size *= 2;
    std::size_t next = 0;
    std::size_t last = busy_.size();
    for (std::size_t k = 0; k < moved; ++k) {
      const std::size_t parent = (moved_[k] - 1) / 2;
      if (parent == last) continue;
      last = parent;
      if (set_busy(parent, (busy_[2 * parent + 1] | busy_[2 * parent + 2]) != 0, size)) {
        moved_[next++] = parent;
      }
    }
    moved = next;
  }
}

void FreePartitionIndex::occupy_node(int node) {
  BGL_CHECK(node >= 0 && node < occ_.bits(), "index node id out of range");
  const auto n = static_cast<std::size_t>(node);
  finish_occupy(occupy_word(n / 64, kOne << (n % 64)));
}

void FreePartitionIndex::release_node(int node) {
  BGL_CHECK(node >= 0 && node < occ_.bits(), "index node id out of range");
  const auto n = static_cast<std::size_t>(node);
  finish_release(release_word(n / 64, kOne << (n % 64)));
}

void FreePartitionIndex::occupy(const NodeSet& mask, WordRange range) {
  BGL_CHECK(mask.bits() == occ_.bits(), "index mask width mismatch");
  const NodeSet::WordSpan words = mask.words();
  BGL_CHECK(range.end <= words.size(), "index word range past the last word");
  int added = 0;
  for (std::size_t w = range.begin; w < range.end; ++w) {
    added += occupy_word(w, words[w]);
  }
  finish_occupy(added);
}

void FreePartitionIndex::release(const NodeSet& mask, WordRange range) {
  BGL_CHECK(mask.bits() == occ_.bits(), "index mask width mismatch");
  const NodeSet::WordSpan words = mask.words();
  BGL_CHECK(range.end <= words.size(), "index word range past the last word");
  int removed = 0;
  for (std::size_t w = range.begin; w < range.end; ++w) {
    removed += release_word(w, words[w]);
  }
  finish_release(removed);
}

int FreePartitionIndex::mfp() const {
  while (mfp_cursor_ > 0 &&
         free_by_size_[static_cast<std::size_t>(mfp_cursor_)] == 0) {
    --mfp_cursor_;
  }
  return mfp_cursor_;
}

int FreePartitionIndex::first_free_index(int start_index) const {
  const int entries = catalog_->num_entries();
  int i = std::max(start_index, 0);
  if (i >= entries) return -1;
  std::size_t w = static_cast<std::size_t>(i) / 64;
  std::uint64_t word = free_bits_[w] >> (static_cast<std::size_t>(i) % 64)
                                            << (static_cast<std::size_t>(i) % 64);
  while (true) {
    if (word != 0) {
      const int found = static_cast<int>(w) * 64 + std::countr_zero(word);
      return found < entries ? found : -1;
    }
    if (++w >= free_bits_.size()) return -1;
    word = free_bits_[w];
  }
}

int FreePartitionIndex::first_free_index_with(const NodeSet& extra,
                                              int start_index) const {
  const int start = std::max(start_index, 0);
  if (start >= catalog_->num_entries()) return -1;
  const NodeSet::WordSpan extra_words = extra.words();
  // Walk the free bits a word at a time: only entries free under the base
  // occupancy are tested against `extra`. No bit past the last entry is set.
  auto w = static_cast<std::size_t>(start) / 64;
  std::uint64_t word = free_bits_[w] & (kAll << (static_cast<std::size_t>(start) % 64));
  while (true) {
    for (; word != 0; word &= word - 1) {
      const int i = static_cast<int>(w * 64) + std::countr_zero(word);
      const auto& entry = catalog_->entry(i);
      if (entry.solid) {
        if (!extra.any_in_word_range(entry.word_begin, entry.word_end)) return i;
        continue;
      }
      const NodeSet::WordSpan mask_words = entry.mask.words();
      std::size_t m = entry.word_begin;
      while (m < entry.word_end && (mask_words[m] & extra_words[m]) == 0) ++m;
      if (m == entry.word_end) return i;
    }
    if (++w >= free_bits_.size()) return -1;
    word = free_bits_[w];
  }
}

int FreePartitionIndex::mfp_with(const NodeSet& extra, int mfp_hint) const {
  const int index = first_free_index_with(extra, mfp_hint);
  return index < 0 ? 0 : catalog_->entry(index).size;
}

int FreePartitionIndex::free_count_of_size(int s) const {
  if (s < 0 || s > catalog_->num_nodes()) return 0;
  return free_by_size_[static_cast<std::size_t>(s)];
}

bool FreePartitionIndex::entry_free(int index) const {
  BGL_CHECK(index >= 0 && index < catalog_->num_entries(),
            "index entry out of range");
  return (free_bits_[static_cast<std::size_t>(index) / 64] >>
          (static_cast<std::size_t>(index) % 64)) &
         kOne;
}

int FreePartitionIndex::blocked_count(int index) const {
  BGL_CHECK(index >= 0 && index < catalog_->num_entries(),
            "index entry out of range");
  const auto& entry = catalog_->entry(index);
  return entry.mask.intersect_count(occ_, entry.span());
}

void FreePartitionIndex::check_invariants() const {
  BGL_CHECK(occupied_count_ == occ_.count(),
            "index busy-node count drifted from occupancy");
  const int entries = catalog_->num_entries();
  std::vector<std::int32_t> expect_free_by_size(free_by_size_.size(), 0);
  for (int e = 0; e < entries; ++e) {
    const int overlap = blocked_count(e);
    BGL_CHECK(entry_free(e) == (overlap == 0),
              "index free bit drifted from occupancy");
    if (overlap == 0) {
      ++expect_free_by_size[static_cast<std::size_t>(catalog_->entry(e).size)];
    }
  }
  if (tree_) {
    // Every flag against a scan of its block, recovered from the position
    // alone: level d holds 2^d blocks of volume >> d nodes.
    const int volume = catalog_->num_nodes();
    for (std::size_t pos = 0; pos < busy_.size(); ++pos) {
      const int level = static_cast<int>(std::bit_width(pos + 1)) - 1;
      const int size = volume >> level;
      const int base = static_cast<int>(pos + 1 - (std::size_t{1} << level)) * size;
      bool busy = false;
      for (int n = base; n < base + size && !busy; ++n) busy = occ_.test(n);
      BGL_CHECK((busy_[pos] != 0) == busy, "index tree flag drifted from its block");
      const auto& entry = catalog_->entry(layout_->tree_entry[pos]);
      BGL_CHECK(entry.size == size && node_id(catalog_->dims(), entry.box.base) == base,
                "index tree position maps to the wrong block");
    }
  }
  const auto tail = static_cast<std::size_t>(entries) % 64;
  BGL_CHECK(tail == 0 || (free_bits_.back() >> tail) == 0,
            "index free bit set past the last entry");
  BGL_CHECK(expect_free_by_size == free_by_size_,
            "index per-size free counts drifted");
  BGL_CHECK(mfp() == catalog_->mfp(occ_), "index MFP drifted from catalog scan");
}

}  // namespace bgl
