#include "des/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace bgl {

namespace {
constexpr EventAfter kAfter{};  // a.after(b): a sorts later than b

// True if `a` pops before `b` (strict, total — seq breaks all ties).
inline bool pops_before(const Event& a, const Event& b) { return kAfter(b, a); }
}  // namespace

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kFinish: return "finish";
    case EventType::kFailure: return "failure";
    case EventType::kArrival: return "arrival";
    case EventType::kCheckpoint: return "checkpoint";
    case EventType::kCustom: return "custom";
  }
  return "?";
}

EventQueue::EventQueue() : buckets_(kMinBuckets) {}

void EventQueue::push(Event event) {
  BGL_CHECK(event.time >= now_, "event scheduled in the past");
  event.seq = next_seq_++;
  const std::uint64_t slot = slot_of(event.time);
  // A zero-delay event can land in an earlier slot than the cursor (which
  // sits on the last located minimum); drag the cursor back so the one-year
  // scan in find_min never starts past a live event.
  if (slot < cursor_slot_ || size_ == 0) cursor_slot_ = slot;
  const std::size_t bucket = static_cast<std::size_t>(slot & (buckets_.size() - 1));
  buckets_[bucket].push_back(event);
  if (min_valid_ && pops_before(event, buckets_[min_bucket_][min_index_])) {
    min_bucket_ = bucket;
    min_index_ = buckets_[bucket].size() - 1;
  }
  if (size_ + 1 > 2 * buckets_.size()) rehash(2 * buckets_.size());
  ++size_;
}

const Event& EventQueue::top() const {
  BGL_CHECK(size_ != 0, "top() on empty event queue");
  if (!min_valid_) find_min();
  return buckets_[min_bucket_][min_index_];
}

Event EventQueue::pop() {
  BGL_CHECK(size_ != 0, "pop() on empty event queue");
  if (!min_valid_) find_min();
  std::vector<Event>& bucket = buckets_[min_bucket_];
  const Event e = bucket[min_index_];
  bucket[min_index_] = bucket.back();
  bucket.pop_back();
  min_valid_ = false;
  --size_;
  if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 2) {
    rehash(buckets_.size() / 2);
  }
  now_ = e.time;
  return e;
}

void EventQueue::clear() {
  buckets_.assign(kMinBuckets, {});
  width_ = 1.0;
  cursor_slot_ = 0;
  min_valid_ = false;
  size_ = 0;
  next_seq_ = 0;
  now_ = 0.0;
}

void EventQueue::find_min() const {
  const std::size_t nbuckets = buckets_.size();
  // Scan one calendar year, bucket by bucket, starting from the cursor slot.
  // The first slot holding any event holds the global minimum (events in
  // later slots have strictly later times); ties inside the slot resolve by
  // the full comparator, which is total thanks to the FIFO seq.
  for (std::size_t i = 0; i < nbuckets; ++i) {
    const std::uint64_t slot = cursor_slot_ + i;
    const std::vector<Event>& bucket =
        buckets_[static_cast<std::size_t>(slot & (nbuckets - 1))];
    bool found = false;
    std::size_t best = 0;
    for (std::size_t k = 0; k < bucket.size(); ++k) {
      if (slot_of(bucket[k].time) != slot) continue;  // different year
      if (!found || pops_before(bucket[k], bucket[best])) {
        found = true;
        best = k;
      }
    }
    if (found) {
      cursor_slot_ = slot;
      min_bucket_ = static_cast<std::size_t>(slot & (nbuckets - 1));
      min_index_ = best;
      min_valid_ = true;
      return;
    }
  }
  // Nothing within a year of the cursor: direct search (rare — only when the
  // live events are clustered far past the cursor, e.g. right after a long
  // idle gap). Re-seats the cursor so subsequent pops scan locally again.
  bool found = false;
  for (std::size_t b = 0; b < nbuckets; ++b) {
    for (std::size_t k = 0; k < buckets_[b].size(); ++k) {
      if (!found || pops_before(buckets_[b][k], buckets_[min_bucket_][min_index_])) {
        found = true;
        min_bucket_ = b;
        min_index_ = k;
      }
    }
  }
  BGL_CHECK(found, "calendar queue lost an event");
  cursor_slot_ = slot_of(buckets_[min_bucket_][min_index_].time);
  min_valid_ = true;
}

void EventQueue::rehash(std::size_t new_buckets) {
  new_buckets = std::bit_ceil(std::max(new_buckets, kMinBuckets));
  std::vector<std::vector<Event>> old = std::move(buckets_);
  // Re-derive the bucket width from the live population: one average
  // inter-event gap per bucket keeps occupancy near one event per bucket for
  // roughly uniform spacings (the arrival preload) while the resize
  // hysteresis absorbs clustered spacings (the finish/failure churn).
  SimTime lo = 0.0, hi = 0.0;
  bool first = true;
  for (const std::vector<Event>& bucket : old) {
    for (const Event& e : bucket) {
      if (first || e.time < lo) lo = e.time;
      if (first || e.time > hi) hi = e.time;
      first = false;
    }
  }
  const double span = hi - lo;
  width_ = (size_ >= 2 && span > 0.0)
               ? std::max(span / static_cast<double>(size_), 1e-9)
               : 1.0;
  buckets_.assign(new_buckets, {});
  for (std::vector<Event>& bucket : old) {
    for (Event& e : bucket) {
      buckets_[static_cast<std::size_t>(slot_of(e.time) & (new_buckets - 1))]
          .push_back(e);
    }
  }
  // Re-seat the cursor (and the min cache) on the new layout's minimum.
  min_valid_ = false;
  for (std::size_t b = 0; b < new_buckets; ++b) {
    for (std::size_t k = 0; k < buckets_[b].size(); ++k) {
      if (!min_valid_ ||
          pops_before(buckets_[b][k], buckets_[min_bucket_][min_index_])) {
        min_bucket_ = b;
        min_index_ = k;
        min_valid_ = true;
      }
    }
  }
  cursor_slot_ =
      min_valid_ ? slot_of(buckets_[min_bucket_][min_index_].time) : 0;
}

}  // namespace bgl
