#include "torus/index.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace bgl {

namespace {
constexpr std::uint64_t kOne = 1;
constexpr std::uint64_t kAll = ~std::uint64_t{0};

/// std::popcount, answering an all-ones word without it: the build targets
/// no hardware popcount, so std::popcount is a library call, and every
/// mask word of a solid block is all ones.
int popcount(std::uint64_t w) { return w == kAll ? 64 : std::popcount(w); }

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
  // solid, size-class-disjoint blocks suit per-word counters instead.
  word_counters_ = catalog.options().mode == CatalogOptions::Mode::kBlocks;

  auto layout = std::make_shared<Layout>();
  for (int e = 0; e < entries; ++e) {
    const int size = catalog.entry(e).size;
    if (layout->size_runs.empty() || layout->size_runs.back().size != size) {
      layout->size_runs.push_back(Layout::SizeRun{size, e, e});
    }
    ++layout->size_runs.back().last;
  }

  if (!word_counters_) {
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
    // The word-level inverted index (counting-sort CSR): every (entry,
    // nonzero mask word) pair, keyed by word.
    const std::size_t nwords = occ_.words().size();
    layout->word_offsets.assign(nwords + 1, 0);
    for (int e = 0; e < entries; ++e) {
      const auto& entry = catalog.entry(e);
      const NodeSet::WordSpan mask = entry.mask.words();
      for (std::size_t w = entry.word_begin; w < entry.word_end; ++w) {
        if (mask[w] != 0) ++layout->word_offsets[w + 1];
      }
    }
    for (std::size_t w = 0; w < nwords; ++w) {
      layout->word_offsets[w + 1] += layout->word_offsets[w];
    }
    layout->word_entries.resize(
        static_cast<std::size_t>(layout->word_offsets.back()));
    layout->word_masks.resize(layout->word_entries.size());
    std::vector<std::int32_t> word_cursor(layout->word_offsets.begin(),
                                          layout->word_offsets.end() - 1);
    for (int e = 0; e < entries; ++e) {
      const auto& entry = catalog.entry(e);
      const NodeSet::WordSpan mask = entry.mask.words();
      for (std::size_t w = entry.word_begin; w < entry.word_end; ++w) {
        if (mask[w] == 0) continue;
        const auto slot = static_cast<std::size_t>(word_cursor[w]++);
        layout->word_entries[slot] = e;
        layout->word_masks[slot] = mask[w];
      }
    }
    blocked_.assign(static_cast<std::size_t>(entries), 0);
  }
  layout_ = std::move(layout);

  free_bits_.assign(entry_words, 0);
  free_by_size_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  reset();
}

void FreePartitionIndex::reset() {
  occ_.clear();
  occupied_count_ = 0;
  std::fill(blocked_.begin(), blocked_.end(), 0);
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

bool FreePartitionIndex::occupy_word(std::size_t w, std::uint64_t bits) {
  std::uint64_t& occ = occ_.mutable_words()[w];
  const std::uint64_t delta = bits & ~occ;
  if (delta == 0) return false;
  occ |= delta;
  occupied_count_ += popcount(delta);
  const Layout& layout = *layout_;
  if (!word_counters_) {
    const std::size_t row_words = layout.row_words;
    for (std::uint64_t m = delta; m != 0; m &= m - 1) {
      const std::size_t node = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
      const std::uint64_t* row = &layout.rows[node * row_words];
      for (std::size_t i = 0; i < row_words; ++i) free_bits_[i] &= ~row[i];
    }
    return true;
  }
  // Charge each entry with bits in word w the popcount of its overlap with
  // the delta: identical counters, 64 nodes at a time.
  for (auto i = layout.word_offsets[w]; i < layout.word_offsets[w + 1]; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    const int add = popcount(delta & layout.word_masks[slot]);
    if (add == 0) continue;
    const auto e = static_cast<std::size_t>(layout.word_entries[slot]);
    if (blocked_[e] == 0) {
      free_bits_[e / 64] &= ~(kOne << (e % 64));
      // mfp_cursor_ stays an upper bound; mfp() lowers it lazily.
      --free_by_size_[static_cast<std::size_t>(
          catalog_->entry(static_cast<int>(e)).size)];
    }
    blocked_[e] += add;
  }
  return true;
}

bool FreePartitionIndex::release_word(std::size_t w, std::uint64_t bits) {
  std::uint64_t& occ = occ_.mutable_words()[w];
  const std::uint64_t delta = bits & occ;
  if (delta == 0) return false;
  occ &= ~delta;
  occupied_count_ -= popcount(delta);
  if (!word_counters_) return true;
  const Layout& layout = *layout_;
  for (auto i = layout.word_offsets[w]; i < layout.word_offsets[w + 1]; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    const int sub = popcount(delta & layout.word_masks[slot]);
    if (sub == 0) continue;
    const auto e = static_cast<std::size_t>(layout.word_entries[slot]);
    blocked_[e] -= sub;
    if (blocked_[e] == 0) {
      free_bits_[e / 64] |= kOne << (e % 64);
      const int size = catalog_->entry(static_cast<int>(e)).size;
      ++free_by_size_[static_cast<std::size_t>(size)];
      if (size > mfp_cursor_) mfp_cursor_ = size;
    }
  }
  return true;
}

void FreePartitionIndex::occupy_node(int node) {
  BGL_CHECK(node >= 0 && node < occ_.bits(), "index node id out of range");
  const auto n = static_cast<std::size_t>(node);
  if (occupy_word(n / 64, kOne << (n % 64)) && !word_counters_) recount();
}

void FreePartitionIndex::release_node(int node) {
  BGL_CHECK(node >= 0 && node < occ_.bits(), "index node id out of range");
  const auto n = static_cast<std::size_t>(node);
  if (release_word(n / 64, kOne << (n % 64)) && !word_counters_) {
    rebuild_free_bits();
  }
}

void FreePartitionIndex::occupy(const NodeSet& mask, WordRange range) {
  BGL_CHECK(mask.bits() == occ_.bits(), "index mask width mismatch");
  const NodeSet::WordSpan words = mask.words();
  BGL_CHECK(range.end <= words.size(), "index word range past the last word");
  bool changed = false;
  for (std::size_t w = range.begin; w < range.end; ++w) {
    changed |= occupy_word(w, words[w]);
  }
  if (changed && !word_counters_) recount();
}

void FreePartitionIndex::release(const NodeSet& mask, WordRange range) {
  BGL_CHECK(mask.bits() == occ_.bits(), "index mask width mismatch");
  const NodeSet::WordSpan words = mask.words();
  BGL_CHECK(range.end <= words.size(), "index word range past the last word");
  bool changed = false;
  for (std::size_t w = range.begin; w < range.end; ++w) {
    changed |= release_word(w, words[w]);
  }
  if (changed && !word_counters_) rebuild_free_bits();
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
  const int entries = catalog_->num_entries();
  const NodeSet::WordSpan extra_words = extra.words();
  int i = first_free_index(start_index);
  while (i >= 0 && i < entries) {
    const auto& entry = catalog_->entry(i);
    bool free = true;
    if (entry.solid) {
      free = !extra.any_in_word_range(entry.word_begin, entry.word_end);
    } else {
      const NodeSet::WordSpan mask_words = entry.mask.words();
      for (std::size_t w = entry.word_begin; w < entry.word_end; ++w) {
        if (mask_words[w] & extra_words[w]) {
          free = false;
          break;
        }
      }
    }
    if (free) return i;
    i = first_free_index(i + 1);
  }
  return -1;
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
    if (word_counters_) {
      BGL_CHECK(blocked_[static_cast<std::size_t>(e)] == overlap,
                "index blocked count drifted from occupancy");
    }
    BGL_CHECK(entry_free(e) == (overlap == 0),
              "index free bit drifted from occupancy");
    if (overlap == 0) {
      ++expect_free_by_size[static_cast<std::size_t>(catalog_->entry(e).size)];
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
