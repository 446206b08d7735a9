#include "torus/index.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace bgl {

namespace {
constexpr std::uint64_t kOne = 1;
}  // namespace

FreePartitionIndex::FreePartitionIndex(const PartitionCatalog& catalog)
    : catalog_(&catalog), occ_(catalog.num_nodes()) {
  const int nodes = catalog.num_nodes();
  const int entries = catalog.num_entries();
  // Word-granular deltas only pay off when few entries cover each word —
  // true for block catalogs (solid, disjoint within a size class; 9 per
  // word at full scale) and badly false for box catalogs, where thousands
  // of overlapping boxes cover every word of the paper-scale machine.
  word_deltas_ = catalog.options().mode == CatalogOptions::Mode::kBlocks;

  auto layout = std::make_shared<Layout>();
  layout->node_offsets.assign(static_cast<std::size_t>(nodes) + 1, 0);
  layout->entry_size.resize(static_cast<std::size_t>(entries));

  // Counting-sort CSR build: one pass to size each node's bucket, one to fill.
  for (int e = 0; e < entries; ++e) {
    layout->entry_size[static_cast<std::size_t>(e)] = catalog.entry(e).size;
    for (const int node : catalog.entry(e).mask.to_ids()) {
      ++layout->node_offsets[static_cast<std::size_t>(node) + 1];
    }
  }
  for (int n = 0; n < nodes; ++n) {
    layout->node_offsets[static_cast<std::size_t>(n) + 1] +=
        layout->node_offsets[static_cast<std::size_t>(n)];
  }
  layout->node_entries.resize(
      static_cast<std::size_t>(layout->node_offsets.back()));
  std::vector<std::int32_t> cursor(layout->node_offsets.begin(),
                                   layout->node_offsets.end() - 1);
  for (int e = 0; e < entries; ++e) {
    for (const int node : catalog.entry(e).mask.to_ids()) {
      layout->node_entries[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(node)]++)] = e;
    }
  }

  // The word-level inverted index (same counting-sort shape): every
  // (entry, nonzero mask word) pair, keyed by word. Only built when the
  // bulk delta path will use it.
  if (word_deltas_) {
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
  }
  layout_ = std::move(layout);

  blocked_.assign(static_cast<std::size_t>(entries), 0);
  free_bits_.assign((static_cast<std::size_t>(entries) + 63) / 64, 0);
  free_by_size_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  reset();
}

void FreePartitionIndex::reset() {
  const int entries = catalog_->num_entries();
  occ_.clear();
  std::fill(blocked_.begin(), blocked_.end(), 0);
  std::fill(free_bits_.begin(), free_bits_.end(), 0);
  for (int e = 0; e < entries; ++e) {
    free_bits_[static_cast<std::size_t>(e) / 64] |=
        kOne << (static_cast<std::size_t>(e) % 64);
  }
  std::fill(free_by_size_.begin(), free_by_size_.end(), 0);
  for (int e = 0; e < entries; ++e) {
    ++free_by_size_[static_cast<std::size_t>(
        layout_->entry_size[static_cast<std::size_t>(e)])];
  }
  mfp_cursor_ = entries == 0 ? 0 : layout_->entry_size[0];
}

void FreePartitionIndex::reset(const NodeSet& occ) {
  reset();
  occupy(occ);
}

void FreePartitionIndex::block(int entry) {
  free_bits_[static_cast<std::size_t>(entry) / 64] &=
      ~(kOne << (static_cast<std::size_t>(entry) % 64));
  --free_by_size_[static_cast<std::size_t>(
      layout_->entry_size[static_cast<std::size_t>(entry)])];
  // mfp_cursor_ stays an upper bound; mfp() lowers it lazily.
}

void FreePartitionIndex::unblock(int entry) {
  free_bits_[static_cast<std::size_t>(entry) / 64] |=
      kOne << (static_cast<std::size_t>(entry) % 64);
  const int size = layout_->entry_size[static_cast<std::size_t>(entry)];
  ++free_by_size_[static_cast<std::size_t>(size)];
  if (size > mfp_cursor_) mfp_cursor_ = size;
}

void FreePartitionIndex::occupy_node(int node) {
  BGL_CHECK(node >= 0 && node < occ_.bits(), "index node id out of range");
  if (occ_.test(node)) return;
  occ_.set(node);
  const auto first = layout_->node_offsets[static_cast<std::size_t>(node)];
  const auto last = layout_->node_offsets[static_cast<std::size_t>(node) + 1];
  for (auto i = first; i < last; ++i) {
    const int e = layout_->node_entries[static_cast<std::size_t>(i)];
    if (blocked_[static_cast<std::size_t>(e)]++ == 0) block(e);
  }
}

void FreePartitionIndex::release_node(int node) {
  BGL_CHECK(node >= 0 && node < occ_.bits(), "index node id out of range");
  if (!occ_.test(node)) return;
  occ_.reset(node);
  const auto first = layout_->node_offsets[static_cast<std::size_t>(node)];
  const auto last = layout_->node_offsets[static_cast<std::size_t>(node) + 1];
  for (auto i = first; i < last; ++i) {
    const int e = layout_->node_entries[static_cast<std::size_t>(i)];
    if (--blocked_[static_cast<std::size_t>(e)] == 0) unblock(e);
  }
}

void FreePartitionIndex::occupy(const NodeSet& mask, WordRange range) {
  BGL_CHECK(mask.bits() == occ_.bits(), "index mask width mismatch");
  const NodeSet::WordSpan words = mask.words();
  BGL_CHECK(range.end <= words.size(), "index word range past the last word");
  std::uint64_t* occ_words = occ_.mutable_words();
  if (!word_deltas_) {
    // One counter walk per newly occupied node: the faster path on box
    // catalogs (fewer entries per node than per word).
    for (std::size_t w = range.begin; w < range.end; ++w) {
      std::uint64_t delta = words[w] & ~occ_words[w];
      while (delta != 0) {
        const int bit = std::countr_zero(delta);
        delta &= delta - 1;
        occupy_node(static_cast<int>(w) * 64 + bit);
      }
    }
    return;
  }
  // Bulk path: per delta word, charge each covering entry the popcount of
  // its overlap in one step — identical counters, 64 nodes at a time.
  for (std::size_t w = range.begin; w < range.end; ++w) {
    const std::uint64_t delta = words[w] & ~occ_words[w];
    if (delta == 0) continue;
    occ_words[w] |= delta;
    const auto first = layout_->word_offsets[w];
    const auto last = layout_->word_offsets[w + 1];
    for (auto i = first; i < last; ++i) {
      const int add =
          std::popcount(delta & layout_->word_masks[static_cast<std::size_t>(i)]);
      if (add == 0) continue;
      const int e = layout_->word_entries[static_cast<std::size_t>(i)];
      if (blocked_[static_cast<std::size_t>(e)] == 0) block(e);
      blocked_[static_cast<std::size_t>(e)] += add;
    }
  }
}

void FreePartitionIndex::release(const NodeSet& mask, WordRange range) {
  BGL_CHECK(mask.bits() == occ_.bits(), "index mask width mismatch");
  const NodeSet::WordSpan words = mask.words();
  BGL_CHECK(range.end <= words.size(), "index word range past the last word");
  std::uint64_t* occ_words = occ_.mutable_words();
  if (!word_deltas_) {
    for (std::size_t w = range.begin; w < range.end; ++w) {
      std::uint64_t delta = words[w] & occ_words[w];
      while (delta != 0) {
        const int bit = std::countr_zero(delta);
        delta &= delta - 1;
        release_node(static_cast<int>(w) * 64 + bit);
      }
    }
    return;
  }
  for (std::size_t w = range.begin; w < range.end; ++w) {
    const std::uint64_t delta = words[w] & occ_words[w];
    if (delta == 0) continue;
    occ_words[w] &= ~delta;
    const auto first = layout_->word_offsets[w];
    const auto last = layout_->word_offsets[w + 1];
    for (auto i = first; i < last; ++i) {
      const int sub =
          std::popcount(delta & layout_->word_masks[static_cast<std::size_t>(i)]);
      if (sub == 0) continue;
      const int e = layout_->word_entries[static_cast<std::size_t>(i)];
      blocked_[static_cast<std::size_t>(e)] -= sub;
      if (blocked_[static_cast<std::size_t>(e)] == 0) unblock(e);
    }
  }
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
  return blocked_[static_cast<std::size_t>(index)];
}

void FreePartitionIndex::check_invariants() const {
  const int entries = catalog_->num_entries();
  std::vector<std::int32_t> expect_free_by_size(free_by_size_.size(), 0);
  for (int e = 0; e < entries; ++e) {
    const auto& entry = catalog_->entry(e);
    const int overlap = entry.mask.intersect_count(occ_, entry.span());
    BGL_CHECK(blocked_[static_cast<std::size_t>(e)] == overlap,
              "index blocked count drifted from occupancy");
    BGL_CHECK(entry_free(e) == (overlap == 0),
              "index free bit drifted from occupancy");
    if (overlap == 0) ++expect_free_by_size[static_cast<std::size_t>(entry.size)];
  }
  BGL_CHECK(expect_free_by_size == free_by_size_,
            "index per-size free counts drifted");
  BGL_CHECK(mfp() == catalog_->mfp(occ_), "index MFP drifted from catalog scan");
}

}  // namespace bgl
