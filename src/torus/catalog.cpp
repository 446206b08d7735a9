#include "torus/catalog.hpp"

#include <algorithm>
#include <bit>
#include <tuple>

namespace bgl {

const char* to_string(CatalogOptions::Mode mode) {
  switch (mode) {
    case CatalogOptions::Mode::kBoxes: return "boxes";
    case CatalogOptions::Mode::kBlocks: return "blocks";
  }
  return "?";
}

PartitionCatalog::PartitionCatalog(Dims dims, Topology topology, CatalogOptions options)
    : dims_(dims), topology_(topology), options_(options) {
  validate(dims_);
  if (options_.mode == CatalogOptions::Mode::kBoxes) {
    build_boxes();
  } else {
    build_blocks();
  }
  finalize_entries();
}

void PartitionCatalog::build_boxes() {
  // Enumerate every canonical (shape, base) pair. On the torus a full-extent
  // dimension has one canonical base (all wrap-equivalent); on a mesh a box
  // of extent e admits exactly D - e + 1 non-wrapping bases.
  const bool mesh = topology_ == Topology::kMesh;
  for (int sx = 1; sx <= dims_.x; ++sx) {
    for (int sy = 1; sy <= dims_.y; ++sy) {
      for (int sz = 1; sz <= dims_.z; ++sz) {
        const int bx_max = mesh ? dims_.x - sx + 1 : ((sx == dims_.x) ? 1 : dims_.x);
        const int by_max = mesh ? dims_.y - sy + 1 : ((sy == dims_.y) ? 1 : dims_.y);
        const int bz_max = mesh ? dims_.z - sz + 1 : ((sz == dims_.z) ? 1 : dims_.z);
        for (int bx = 0; bx < bx_max; ++bx) {
          for (int by = 0; by < by_max; ++by) {
            for (int bz = 0; bz < bz_max; ++bz) {
              Entry e;
              e.box = Box{Coord{bx, by, bz}, Triple{sx, sy, sz}};
              e.mask = box_mask(dims_, e.box);
              e.size = e.box.volume();
              entries_.push_back(std::move(e));
            }
          }
        }
      }
    }
  }
}

void PartitionCatalog::build_blocks() {
  // Aligned power-of-two blocks of contiguous node ids. With power-of-two
  // extents and the row-major layout id = x + X*(y + Y*z), the aligned range
  // [base, base + s) is exactly one axis-aligned box:
  //   s <= X            -> s x 1 x 1 at (base % X, ...)
  //   X < s <= X*Y      -> X x s/X x 1 (full rows)
  //   s > X*Y           -> X x Y x s/(X*Y) (full planes)
  // so the blocks catalog is a strict subset of the boxes catalog and every
  // downstream consumer (masks, traces, audit) sees ordinary boxes.
  BGL_CHECK(std::has_single_bit(static_cast<unsigned>(dims_.x)) &&
                std::has_single_bit(static_cast<unsigned>(dims_.y)) &&
                std::has_single_bit(static_cast<unsigned>(dims_.z)),
            "blocks catalog requires power-of-two dims");
  const int volume = dims_.volume();
  int min_block = options_.min_block;
  if (min_block < 1) min_block = 1;
  if (min_block > volume) min_block = volume;
  min_block = static_cast<int>(std::bit_ceil(static_cast<unsigned>(min_block)));
  options_.min_block = min_block;

  for (int s = volume; s >= min_block; s /= 2) {
    for (int base = 0; base + s <= volume; base += s) {
      Entry e;
      const Coord c = coord_of(dims_, base);
      if (s <= dims_.x) {
        e.box = Box{c, Triple{s, 1, 1}};
      } else if (s <= dims_.x * dims_.y) {
        e.box = Box{Coord{0, c.y, c.z}, Triple{dims_.x, s / dims_.x, 1}};
      } else {
        e.box = Box{Coord{0, 0, c.z}, Triple{dims_.x, dims_.y, s / (dims_.x * dims_.y)}};
      }
      e.mask = box_mask(dims_, e.box);
      e.size = s;
      entries_.push_back(std::move(e));
    }
  }
}

void PartitionCatalog::finalize_entries() {
  const int volume = dims_.volume();

  auto key = [](const Entry& e) {
    return std::make_tuple(-e.size, e.box.shape.x, e.box.shape.y, e.box.shape.z,
                           e.box.base.x, e.box.base.y, e.box.base.z);
  };
  std::sort(entries_.begin(), entries_.end(),
            [&](const Entry& a, const Entry& b) { return key(a) < key(b); });

  // Tightest word span (and solidity) per entry — the scan kernels only ever
  // touch words inside this span.
  for (Entry& e : entries_) {
    const NodeSet::WordSpan words = e.mask.words();
    std::size_t begin = words.size();
    std::size_t end = 0;
    bool solid = true;
    for (std::size_t w = 0; w < words.size(); ++w) {
      if (words[w] == 0) continue;
      if (begin == words.size()) begin = w;
      end = w + 1;
    }
    if (begin == words.size()) {
      begin = end = 0;
      solid = false;
    } else {
      for (std::size_t w = begin; w < end; ++w) {
        if (words[w] != ~0ULL) {
          solid = false;
          break;
        }
      }
    }
    e.word_begin = begin;
    e.word_end = end;
    e.solid = solid;
  }

  range_by_size_.assign(static_cast<std::size_t>(volume) + 1, {0, 0});
  for (int i = 0; i < num_entries();) {
    int j = i;
    while (j < num_entries() && entries_[static_cast<std::size_t>(j)].size ==
                                    entries_[static_cast<std::size_t>(i)].size) {
      ++j;
    }
    range_by_size_[static_cast<std::size_t>(entries_[static_cast<std::size_t>(i)].size)] = {i, j};
    i = j;
  }

  allocatable_size_.assign(static_cast<std::size_t>(volume) + 1, -1);
  int best = -1;
  for (int s = volume; s >= 1; --s) {
    const auto [first, last] = range_by_size_[static_cast<std::size_t>(s)];
    if (first != last) best = s;
    allocatable_size_[static_cast<std::size_t>(s)] = best;
  }
  // Slot 0 exists only so the table is indexed directly by s; the public
  // contract clamps s <= 0 to 1 before the lookup, so it must agree with
  // slot 1. In boxes mode the 1x1x1 partition always exists (both are 1); in
  // blocks mode degenerate requests round up to the smallest block.
  allocatable_size_[0] = allocatable_size_[1];
}

std::pair<int, int> PartitionCatalog::size_range(int s) const {
  if (s < 0 || s > num_nodes()) return {0, 0};
  return range_by_size_[static_cast<std::size_t>(s)];
}

int PartitionCatalog::allocatable_size(int s) const {
  if (s > num_nodes()) return -1;
  if (s <= 0) s = 1;  // degenerate requests round up to the smallest partition
  return allocatable_size_[static_cast<std::size_t>(s)];
}

bool PartitionCatalog::entry_free(const Entry& e, const NodeSet& occ) const {
  if (e.solid) return !occ.any_in_word_range(e.word_begin, e.word_end);
  const NodeSet::WordSpan mask_words = e.mask.words();
  const NodeSet::WordSpan occ_words = occ.words();
  for (std::size_t w = e.word_begin; w < e.word_end; ++w) {
    if (mask_words[w] & occ_words[w]) return false;
  }
  return true;
}

bool PartitionCatalog::entry_free_with(const Entry& e, const NodeSet& occ,
                                       const NodeSet& extra) const {
  const NodeSet::WordSpan occ_words = occ.words();
  const NodeSet::WordSpan extra_words = extra.words();
  if (e.solid) {
    for (std::size_t w = e.word_begin; w < e.word_end; ++w) {
      if (occ_words[w] | extra_words[w]) return false;
    }
    return true;
  }
  const NodeSet::WordSpan mask_words = e.mask.words();
  for (std::size_t w = e.word_begin; w < e.word_end; ++w) {
    if (mask_words[w] & (occ_words[w] | extra_words[w])) return false;
  }
  return true;
}

int PartitionCatalog::first_free_index(const NodeSet& occ, int start_index) const {
  for (int i = std::max(start_index, 0); i < num_entries(); ++i) {
    if (entry_free(entries_[static_cast<std::size_t>(i)], occ)) return i;
  }
  return -1;
}

int PartitionCatalog::first_free_index_with(const NodeSet& occ, const NodeSet& extra,
                                            int start_index) const {
  for (int i = std::max(start_index, 0); i < num_entries(); ++i) {
    if (entry_free_with(entries_[static_cast<std::size_t>(i)], occ, extra)) return i;
  }
  return -1;
}

int PartitionCatalog::mfp(const NodeSet& occ) const {
  const int index = first_free_index(occ);
  return index < 0 ? 0 : entries_[static_cast<std::size_t>(index)].size;
}

int PartitionCatalog::mfp_with(const NodeSet& occ, const NodeSet& extra,
                               int mfp_hint) const {
  const int index = first_free_index_with(occ, extra, mfp_hint);
  return index < 0 ? 0 : entries_[static_cast<std::size_t>(index)].size;
}

bool PartitionCatalog::has_free_of_size(const NodeSet& occ, int s) const {
  const auto [first, last] = size_range(s);
  for (int i = first; i < last; ++i) {
    if (entry_free(entries_[static_cast<std::size_t>(i)], occ)) return true;
  }
  return false;
}

}  // namespace bgl
