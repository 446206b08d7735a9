#include "torus/nodeset.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/rng.hpp"

namespace bgl {

namespace {

// 4-word unrolled kernels. The unrolled bodies OR partial results together so
// the compiler can keep four independent chains in flight; the scalar tail
// handles the last n % 4 words.

inline bool words_any(const std::uint64_t* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (a[i] | a[i + 1] | a[i + 2] | a[i + 3]) return true;
  }
  for (; i < n; ++i) {
    if (a[i]) return true;
  }
  return false;
}

inline int words_popcount(const std::uint64_t* a, std::size_t n) {
  int c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += std::popcount(a[i]);
    c1 += std::popcount(a[i + 1]);
    c2 += std::popcount(a[i + 2]);
    c3 += std::popcount(a[i + 3]);
  }
  for (; i < n; ++i) c0 += std::popcount(a[i]);
  return c0 + c1 + c2 + c3;
}

inline bool words_intersect(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if ((a[i] & b[i]) | (a[i + 1] & b[i + 1]) | (a[i + 2] & b[i + 2]) |
        (a[i + 3] & b[i + 3])) {
      return true;
    }
  }
  for (; i < n; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

/// Words in `range`; 0 for an empty range (begin >= end).
inline std::size_t words_in(WordRange range) {
  return range.end > range.begin ? range.end - range.begin : 0;
}

}  // namespace

NodeSet::NodeSet(int bits)
    : bits_(bits), nwords_(static_cast<std::size_t>((bits + 63) / 64)) {
  BGL_CHECK(bits >= 0, "NodeSet size must be non-negative");
  if (nwords_ > kInlineWords) {
    heap_ = std::make_unique<std::uint64_t[]>(nwords_);
    std::memset(heap_.get(), 0, nwords_ * sizeof(std::uint64_t));
  }
}

NodeSet::NodeSet(const NodeSet& other) : bits_(other.bits_), nwords_(other.nwords_) {
  if (nwords_ > kInlineWords) {
    heap_ = std::make_unique<std::uint64_t[]>(nwords_);
    std::memcpy(heap_.get(), other.heap_.get(), nwords_ * sizeof(std::uint64_t));
  } else {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  }
}

NodeSet::NodeSet(NodeSet&& other) noexcept
    : bits_(other.bits_), nwords_(other.nwords_), heap_(std::move(other.heap_)) {
  inline_[0] = other.inline_[0];
  inline_[1] = other.inline_[1];
  other.bits_ = 0;
  other.nwords_ = 0;
  other.inline_[0] = other.inline_[1] = 0;
}

NodeSet& NodeSet::operator=(const NodeSet& other) {
  if (this == &other) return *this;
  if (other.nwords_ > kInlineWords) {
    // Reuse an existing allocation of the right width — the scheduler's
    // per-pass `occ = occupied` copies hit this path every invocation.
    if (nwords_ != other.nwords_ || !heap_) {
      heap_ = std::make_unique<std::uint64_t[]>(other.nwords_);
    }
    std::memcpy(heap_.get(), other.heap_.get(),
                other.nwords_ * sizeof(std::uint64_t));
  } else {
    heap_.reset();
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  }
  bits_ = other.bits_;
  nwords_ = other.nwords_;
  return *this;
}

NodeSet& NodeSet::operator=(NodeSet&& other) noexcept {
  if (this == &other) return *this;
  bits_ = other.bits_;
  nwords_ = other.nwords_;
  heap_ = std::move(other.heap_);
  inline_[0] = other.inline_[0];
  inline_[1] = other.inline_[1];
  other.bits_ = 0;
  other.nwords_ = 0;
  other.inline_[0] = other.inline_[1] = 0;
  return *this;
}

bool NodeSet::empty() const { return !words_any(data(), nwords_); }

int NodeSet::count() const { return words_popcount(data(), nwords_); }

void NodeSet::set(int id) {
  BGL_CHECK(id >= 0 && id < bits_, "NodeSet::set out of range");
  data()[id >> 6] |= (1ULL << (id & 63));
}

void NodeSet::reset(int id) {
  BGL_CHECK(id >= 0 && id < bits_, "NodeSet::reset out of range");
  data()[id >> 6] &= ~(1ULL << (id & 63));
}

bool NodeSet::test(int id) const {
  BGL_CHECK(id >= 0 && id < bits_, "NodeSet::test out of range");
  return (data()[id >> 6] >> (id & 63)) & 1ULL;
}

void NodeSet::clear() {
  std::memset(data(), 0, nwords_ * sizeof(std::uint64_t));
}

void NodeSet::fill() {
  if (bits_ == 0) return;
  std::uint64_t* w = data();
  std::memset(w, 0xff, nwords_ * sizeof(std::uint64_t));
  const int tail = bits_ & 63;
  if (tail != 0) w[nwords_ - 1] = (1ULL << tail) - 1;
}

bool NodeSet::intersects(const NodeSet& other, WordRange range) const {
  check_compatible(other, range);
  const std::size_t n = words_in(range);
  return n != 0 && words_intersect(data() + range.begin,
                                   other.data() + range.begin, n);
}

int NodeSet::intersect_count(const NodeSet& other, WordRange range) const {
  check_compatible(other, range);
  const std::size_t n = words_in(range);
  const std::uint64_t* a = data() + range.begin;
  const std::uint64_t* b = other.data() + range.begin;
  int c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += std::popcount(a[i] & b[i]);
    c1 += std::popcount(a[i + 1] & b[i + 1]);
    c2 += std::popcount(a[i + 2] & b[i + 2]);
    c3 += std::popcount(a[i + 3] & b[i + 3]);
  }
  for (; i < n; ++i) c0 += std::popcount(a[i] & b[i]);
  return c0 + c1 + c2 + c3;
}

bool NodeSet::any_in_word_range(std::size_t word_begin, std::size_t word_end) const {
  word_end = std::min(word_end, nwords_);
  if (word_begin >= word_end) return false;
  return words_any(data() + word_begin, word_end - word_begin);
}

NodeSet& NodeSet::unite(const NodeSet& other, WordRange range) {
  check_compatible(other, range);
  const std::size_t n = words_in(range);
  std::uint64_t* a = data() + range.begin;
  const std::uint64_t* b = other.data() + range.begin;
  for (std::size_t i = 0; i < n; ++i) a[i] |= b[i];
  return *this;
}

NodeSet& NodeSet::subtract(const NodeSet& other, WordRange range) {
  check_compatible(other, range);
  const std::size_t n = words_in(range);
  std::uint64_t* a = data() + range.begin;
  const std::uint64_t* b = other.data() + range.begin;
  for (std::size_t i = 0; i < n; ++i) a[i] &= ~b[i];
  return *this;
}

bool operator==(const NodeSet& a, const NodeSet& b) {
  if (a.bits_ != b.bits_) return false;
  return std::memcmp(a.data(), b.data(), a.nwords_ * sizeof(std::uint64_t)) == 0;
}

std::uint64_t NodeSet::hash() const {
  std::uint64_t h = 0x2545f4914f6cdd1dULL ^ static_cast<std::uint64_t>(bits_);
  const std::uint64_t* w = data();
  for (std::size_t i = 0; i < nwords_; ++i) h = hash_combine(h, w[i]);
  return h;
}

std::vector<int> NodeSet::to_ids() const {
  std::vector<int> ids;
  ids.reserve(static_cast<std::size_t>(count()));
  const std::uint64_t* words = data();
  for (std::size_t wi = 0; wi < nwords_; ++wi) {
    std::uint64_t w = words[wi];
    while (w) {
      const int bit = std::countr_zero(w);
      ids.push_back(static_cast<int>(wi * 64) + bit);
      w &= w - 1;
    }
  }
  return ids;
}

void NodeSet::check_compatible(const NodeSet& other, WordRange range) const {
  BGL_CHECK(bits_ == other.bits_, "NodeSet size mismatch");
  BGL_CHECK(range.begin <= nwords_ && range.end <= nwords_,
            "NodeSet word range past the last word");
}

}  // namespace bgl
