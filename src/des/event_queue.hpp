// Pending-event set with stable FIFO tie-breaking: a calendar queue
// (Brown 1988). Events hash into time-sliced buckets of `width` seconds,
// `num_buckets` covering one "year". Push and pop are O(1) amortised; the
// bucket table doubles / halves as the population crosses 2N / N/2 and the
// width is re-derived from the live min/max event times, so both the
// million-arrival preload and the near-term finish/failure churn stay at ~1
// event per bucket.
//
// Pops follow the exact total order of EventAfter — (time, semantic type,
// FIFO seq) — the order a binary heap over the same comparator gives (the
// differential fuzz in tests/des_test.cpp holds it against one). Equal-time
// events always land in the same bucket (the slot index is a pure function
// of the timestamp), which keeps tie-breaking a purely intra-bucket affair;
// the in-bucket min scan uses the full comparator, whose seq field makes the
// order total (no two events compare equal).
#pragma once

#include <cstdint>
#include <vector>

#include "des/event.hpp"
#include "util/error.hpp"

namespace bgl {

class EventQueue {
 public:
  EventQueue();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Enqueue; the event's seq field is overwritten with a fresh number.
  /// Events must not be scheduled before the last popped time.
  void push(Event event);

  /// Earliest event (undefined if empty — checked).
  const Event& top() const;

  /// Remove and return the earliest event; advances the internal clock.
  Event pop();

  /// Time of the last popped event (0 before the first pop).
  SimTime now() const { return now_; }

  void clear();

 private:
  /// Locate the minimum event (sets min_bucket_/min_index_); scans at most
  /// one calendar year from the current cursor before falling back to a
  /// direct search. Logically const — only touches the mutable cursor/cache.
  void find_min() const;
  std::uint64_t slot_of(SimTime t) const {
    return static_cast<std::uint64_t>(t / width_);
  }
  /// Rebuild the bucket table with `new_buckets` buckets and a width derived
  /// from the live event population, then re-seat the cursor on the minimum.
  void rehash(std::size_t new_buckets);

  static constexpr std::size_t kMinBuckets = 4;

  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0.0;

  // Buckets are unsorted; the pop-side min scan uses the full EventAfter
  // order, so intra-bucket order is free.
  std::vector<std::vector<Event>> buckets_;
  double width_ = 1.0;
  mutable std::uint64_t cursor_slot_ = 0;   ///< Earliest slot any event can occupy.
  mutable bool min_valid_ = false;          ///< min_bucket_/min_index_ point at the min.
  mutable std::size_t min_bucket_ = 0;
  mutable std::size_t min_index_ = 0;
};

}  // namespace bgl
