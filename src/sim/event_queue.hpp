#pragma once

// Discrete-event kernel: a time-ordered queue of typed event records with
// stable FIFO tie-breaking at equal timestamps.
//
// Record layout. An Event is a trivially copyable 32-byte record: its
// time, a sequence number stamped at schedule time, a `kind` naming the
// handler, and two payload fields `a` (a process id, a probe slot) and
// `b` (an epoch, a packed token, a bit-cast fraction). The queue never
// interprets kind or payload; the caller pops a record and dispatches it
// (sim::AsyncEngine does so with one switch).
//
// Storage: Brown's calendar queue (CACM 1988) with fixed constants. Time
// is cut into buckets of 1/kBucketsPerPeriod periods held in a ring of
// kBuckets; the ring covers kBuckets / kBucketsPerPeriod = 4 periods
// from the clock's bucket, which is where timers (one period out) and
// messages (a fraction of a period) land.
//   - The earliest non-empty bucket is sorted by (time, seq) when the
//     clock first reads it, then read through a cursor; an event
//     scheduled into it after that is inserted in place.
//   - Every other bucket is appended to unsorted.
//   - Events beyond the ring's horizon (churn playback, long downtimes)
//     wait in a binary min-heap and move into the ring as the clock
//     advances; so do times too large for a bucket index (>= kFarTime),
//     which are popped straight from the heap.
//
// Pop order. (time, seq) is a strict total order and every pop returns
// its minimum: the earliest ring bucket holds the earliest event, and
// every heap event lies beyond every ring event. The sequence of popped
// records is therefore exactly that of a plain priority queue on
// (time, seq), so replacing one by the other moves no random draw.

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

namespace deproto::sim {

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t kind = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
};
static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) == 32);

class EventQueue {
 public:
  /// Bucket width is 1 / kBucketsPerPeriod periods.
  static constexpr std::int64_t kBucketsPerPeriod = 64;
  static constexpr std::size_t kBuckets = 256;
  /// Times at or beyond this never get a bucket index (the index would
  /// leave the exactly representable integers); they stay in the heap.
  static constexpr double kFarTime = 0x1p46;

  /// Schedule a `kind` record at absolute time `t`. Throws
  /// std::invalid_argument when `t` is not finite or lies before now().
  void schedule(double t, std::uint32_t kind, std::uint32_t a = 0,
                std::uint64_t b = 0);

  /// Schedule a `kind` record `delay` time units from now.
  void schedule_in(double delay, std::uint32_t kind, std::uint32_t a = 0,
                   std::uint64_t b = 0) {
    schedule(now_ + delay, kind, a, b);
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  /// Timestamp of the earliest pending event; +infinity when empty (so
  /// callers pacing the queue against an external clock -- the net
  /// backend's wall-clock loop -- can min() it against their horizon).
  /// Not const: it may sort the bucket it reads.
  [[nodiscard]] double next_time();
  [[nodiscard]] bool empty() const noexcept {
    return ring_size_ == 0 && heap_.empty();
  }
  [[nodiscard]] std::size_t pending() const noexcept {
    return ring_size_ + heap_.size();
  }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Pop the earliest event if its time is <= `t_end`, advancing the
  /// clock to it. Returns false (and pops nothing) otherwise.
  bool pop_due(double t_end, Event* out);

  /// Pop and hand the earliest event to `handle`. Returns false when the
  /// queue is empty.
  template <class Handler>
  bool step(Handler&& handle) {
    Event event;
    if (!pop_due(std::numeric_limits<double>::infinity(), &event)) {
      return false;
    }
    handle(event);
    return true;
  }

  /// Hand events to `handle` until the queue empties or the next event is
  /// later than `t_end`; the clock then advances to t_end.
  template <class Handler>
  void run_until(double t_end, Handler&& handle) {
    Event event;
    while (pop_due(t_end, &event)) handle(event);
    if (now_ < t_end) now_ = t_end;
  }

  /// Drain everything (use only when the event population is finite).
  template <class Handler>
  void run_all(Handler&& handle) {
    while (step(handle)) {
    }
  }

 private:
  [[nodiscard]] std::vector<Event>& bucket(std::int64_t index) noexcept {
    return ring_[static_cast<std::size_t>(index) % kBuckets];
  }
  /// The earliest ring bucket, sorted from the cursor on.
  std::vector<Event>& first_bucket();
  void place(const Event& event);
  /// Slide the ring's window to start at bucket `start` and move the
  /// heap events that now fall inside it.
  void slide_to(std::int64_t start);

  // Ring invariants: every ring event's bucket lies in [base_, base_ +
  // kBuckets), every non-far heap event's at or beyond its end; base_
  // never passes the clock's bucket, so a new event never lands behind
  // it; first_ is the earliest non-empty bucket, read from head_ once
  // first_sorted_ (head_ is 0 before).
  std::array<std::vector<Event>, kBuckets> ring_;
  std::int64_t base_ = 0;
  std::int64_t first_ = 0;
  std::size_t head_ = 0;
  bool first_sorted_ = false;
  std::size_t ring_size_ = 0;  // unread events in the ring
  std::vector<Event> heap_;    // min-heap: beyond the window, or far
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace deproto::sim
