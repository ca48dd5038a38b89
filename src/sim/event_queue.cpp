#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace deproto::sim {

namespace {

constexpr auto kWindow = static_cast<std::int64_t>(EventQueue::kBuckets);

// Function objects, not functions: std::sort and the heap algorithms
// inline them instead of calling through a pointer.
constexpr auto earlier = [](const Event& x, const Event& y) {
  return x.time < y.time || (x.time == y.time && x.seq < y.seq);
};
constexpr auto later = [](const Event& x, const Event& y) {
  return earlier(y, x);
};

/// Absolute bucket index of a time in [0, kFarTime). The scale is a power
/// of two, so the product is exact and the index is monotone in time.
std::int64_t bucket_of(double t) {
  return static_cast<std::int64_t>(
      t * static_cast<double>(EventQueue::kBucketsPerPeriod));
}

}  // namespace

void EventQueue::schedule(double t, std::uint32_t kind, std::uint32_t a,
                          std::uint64_t b) {
  if (!std::isfinite(t)) {
    throw std::invalid_argument("EventQueue::schedule: non-finite time");
  }
  if (t < now_) {
    throw std::invalid_argument("EventQueue::schedule: time in the past");
  }
  // An empty ring may trail the clock by any distance: bring its window up
  // to the clock first, so the new event lands in the ring if it can.
  if (ring_size_ == 0 && now_ < kFarTime) slide_to(bucket_of(now_));
  place(Event{t, next_seq_++, kind, a, b});
}

double EventQueue::next_time() {
  if (ring_size_ > 0) return first_bucket()[head_].time;
  return heap_.empty() ? std::numeric_limits<double>::infinity()
                       : heap_.front().time;
}

bool EventQueue::pop_due(double t_end, Event* out) {
  if (ring_size_ > 0) {
    std::vector<Event>& first = first_bucket();
    if (!(first[head_].time <= t_end)) return false;
    *out = first[head_++];
    --ring_size_;
    if (head_ == first.size()) {
      first.clear();  // keeps its capacity for the next lap
      head_ = 0;
      first_sorted_ = false;
      if (ring_size_ > 0) {
        do {
          ++first_;
        } while (bucket(first_).empty());
      }
    }
    slide_to(bucket_of(out->time));
  } else if (!heap_.empty() && heap_.front().time <= t_end) {
    // With the ring empty, the heap's top is the earliest event.
    std::pop_heap(heap_.begin(), heap_.end(), later);
    *out = heap_.back();
    heap_.pop_back();
    if (out->time < kFarTime) slide_to(bucket_of(out->time));
  } else {
    return false;
  }
  now_ = out->time;
  ++executed_;
  return true;
}

std::vector<Event>& EventQueue::first_bucket() {
  std::vector<Event>& first = bucket(first_);
  if (!first_sorted_) {
    std::sort(first.begin(), first.end(), earlier);
    first_sorted_ = true;
  }
  return first;
}

void EventQueue::place(const Event& event) {
  if (event.time < kFarTime) {
    // Never below base_: the event is no earlier than the clock.
    const std::int64_t index = bucket_of(event.time);
    if (index < base_ + kWindow) {
      if (ring_size_ == 0 || index < first_) {
        // A new earliest bucket. Nothing of the old one has been read: a
        // read would have moved base_ up to it.
        first_ = index;
        first_sorted_ = false;
      } else if (index == first_ && first_sorted_) {
        // Into the bucket being read: in place, after every earlier
        // (time, seq) -- the new record has the largest seq.
        std::vector<Event>& first = bucket(first_);
        first.insert(std::upper_bound(
                         first.begin() + static_cast<std::ptrdiff_t>(head_),
                         first.end(), event, earlier),
                     event);
        ++ring_size_;
        return;
      }
      bucket(index).push_back(event);
      ++ring_size_;
      return;
    }
  }
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void EventQueue::slide_to(std::int64_t start) {
  if (start <= base_) return;
  base_ = start;
  while (!heap_.empty() && heap_.front().time < kFarTime &&
         bucket_of(heap_.front().time) < base_ + kWindow) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Event event = heap_.back();
    heap_.pop_back();
    place(event);
  }
}

}  // namespace deproto::sim
