#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <random>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace deproto::sim {
namespace {

/// Records the `a` payload of every event handed to it.
struct Recorder {
  std::vector<std::uint32_t>* out;
  void operator()(const Event& event) const { out->push_back(event.a); }
};

TEST(EventQueueTest, RecordsAreSmallAndTriviallyCopyable) {
  EXPECT_TRUE(std::is_trivially_copyable_v<Event>);
  EXPECT_LE(sizeof(Event), 32U);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<std::uint32_t> order;
  q.schedule(3.0, 0, 3);
  q.schedule(1.0, 0, 1);
  q.schedule(2.0, 0, 2);
  q.run_all(Recorder{&order});
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(q.executed(), 3U);
}

TEST(EventQueueTest, FifoAtEqualTimestamps) {
  EventQueue q;
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < 5; ++i) q.schedule(1.0, 0, i);
  q.run_all(Recorder{&order});
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ClockAdvancesWithEvents) {
  EventQueue q;
  q.schedule(2.5, 0);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  q.step([](const Event&) {});
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, 0);
  q.schedule(2.0, 0);
  q.schedule(5.0, 0);
  q.run_until(2.0, [&](const Event&) { ++fired; });
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1U);
}

TEST(EventQueueTest, HandlersMayScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  q.schedule(0.0, 0);
  q.run_all([&](const Event&) {
    if (++depth < 5) q.schedule_in(1.0, 0);
  });
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueueTest, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule(5.0, 0);
  q.step([](const Event&) {});
  EXPECT_THROW(q.schedule(1.0, 0), std::invalid_argument);
}

TEST(EventQueueTest, StepOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.step([](const Event&) {}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RejectsNonFiniteTimes) {
  // NaN compares false against the clock, so only an explicit check keeps
  // it out; infinity would never fire and has no bucket.
  EventQueue q;
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::quiet_NaN(), 0),
               std::invalid_argument);
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::infinity(), 0),
               std::invalid_argument);
  EXPECT_THROW(q.schedule_in(std::numeric_limits<double>::quiet_NaN(), 0),
               std::invalid_argument);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), std::numeric_limits<double>::infinity());
}

// ---------------------------------------------------------------------
// Differential test: the calendar queue against a plain priority queue on
// (time, seq). Both are driven in lock step by one seeded schedule; every
// pop must hand out the identical record.

bool same_event(const Event& x, const Event& y) {
  return x.time == y.time && x.seq == y.seq && x.kind == y.kind &&
         x.a == y.a && x.b == y.b;
}

class ReferenceQueue {
 public:
  void schedule(double t, std::uint32_t kind, std::uint32_t a,
                std::uint64_t b) {
    heap_.push(Event{t, next_seq_++, kind, a, b});
  }
  bool pop_due(double t_end, Event* out) {
    if (heap_.empty() || heap_.top().time > t_end) return false;
    *out = heap_.top();
    heap_.pop();
    now_ = out->time;
    return true;
  }
  void advance_to(double t) {
    if (now_ < t) now_ = t;
  }
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] double next_time() const {
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : heap_.top().time;
  }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

 private:
  struct Later {
    bool operator()(const Event& x, const Event& y) const {
      if (x.time != y.time) return x.time > y.time;
      return x.seq > y.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

class LockStep {
 public:
  LockStep(std::uint64_t seed, bool far_events)
      : rng_(seed), far_events_(far_events) {}

  /// A delay (or absolute time) drawn to hit every part of the calendar:
  /// the current bucket, messages, timers, equal-time ties, the heap
  /// beyond the ring's horizon, and (optionally) 1e300.
  double draw_time() {
    const double now = cal_.now();
    switch (pick(11)) {
      case 0:
        return now;  // zero delay: into the bucket being drained
      case 1:
        return now + unit() / EventQueue::kBucketsPerPeriod;
      case 2:
      case 3:
      case 4:
        return now + 0.02 + 0.08 * unit();  // message latency
      case 5:
      case 6:
        return now + 0.95 + 0.1 * unit();  // a period timer
      case 7:
      case 8:  // quarter-period grid: many equal timestamps
        return std::floor(now * 4.0) / 4.0 + 0.25 * (1.0 + pick(8));
      case 9:
        return now + 4.0 + 26.0 * unit();  // past the ring's horizon
      default:
        return far_events_ ? 1e300 : now + 100.0 + 900.0 * unit();
    }
  }

  void schedule_both(double t) {
    const auto kind = static_cast<std::uint32_t>(pick(7));
    const auto a = static_cast<std::uint32_t>(rng_());
    const std::uint64_t b = rng_();
    cal_.schedule(t, kind, a, b);
    ref_.schedule(t, kind, a, b);
  }

  /// What a handler does: check the record against the reference's pop,
  /// then schedule zero, one, or two follow-ups.
  void handle(const Event& event, double t_end) {
    Event want;
    ASSERT_TRUE(ref_.pop_due(t_end, &want));
    ASSERT_TRUE(same_event(event, want))
        << "got t=" << event.time << " seq=" << event.seq
        << ", want t=" << want.time << " seq=" << want.seq;
    ++popped_;
    std::size_t follow_ups = 0;
    if (!draining_ && ref_.pending() < 300) {
      const std::uint64_t roll = pick(10);
      follow_ups = roll == 0 ? 2 : (roll == 1 ? 0 : 1);
    }
    for (std::size_t k = 0; k < follow_ups; ++k) schedule_both(draw_time());
  }

  void run_until(double t_end) {
    cal_.run_until(t_end, [&](const Event& e) { handle(e, t_end); });
    Event extra;
    EXPECT_FALSE(ref_.pop_due(t_end, &extra)) << "calendar stopped early";
    ref_.advance_to(t_end);
    check_state();
  }

  /// Run everything due by `t_end` without scheduling follow-ups.
  void drain(double t_end) {
    draining_ = true;
    run_until(t_end);
    draining_ = false;
  }

  void step() {
    const bool had_events = ref_.pending() > 0;
    const bool stepped = cal_.step([&](const Event& e) {
      handle(e, std::numeric_limits<double>::infinity());
    });
    EXPECT_EQ(stepped, had_events);
    check_state();
  }

  void check_state() {
    EXPECT_EQ(cal_.now(), ref_.now());
    EXPECT_EQ(cal_.next_time(), ref_.next_time());
    EXPECT_EQ(cal_.pending(), ref_.pending());
    EXPECT_EQ(cal_.empty(), ref_.pending() == 0);
  }

  /// Interleave external schedules, steps, run_until calls, and
  /// next_time probes for `ops` operations.
  void drive(int ops) {
    for (int op = 0; op < ops; ++op) {
      switch (pick(6)) {
        case 0:
        case 1:
          schedule_both(draw_time());
          break;
        case 2:
          step();
          break;
        case 3:
          run_until(cal_.now() + 0.5 * unit());
          break;
        case 4:
          run_until(cal_.now() + 2.0 * unit());
          break;
        default:
          check_state();
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  [[nodiscard]] EventQueue& calendar() { return cal_; }
  [[nodiscard]] std::size_t popped() const { return popped_; }

 private:
  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }
  double unit() { return std::uniform_real_distribution<double>()(rng_); }

  std::mt19937_64 rng_;
  bool far_events_;
  bool draining_ = false;
  EventQueue cal_;
  ReferenceQueue ref_;
  std::size_t popped_ = 0;
};

TEST(EventQueueDifferentialTest, MatchesPriorityQueueUnderRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    LockStep run(seed, /*far_events=*/false);
    for (int k = 0; k < 200; ++k) run.schedule_both(run.draw_time());
    run.drive(2000);
    ASSERT_FALSE(HasFatalFailure());
    run.drain(run.calendar().now() + 2000.0);  // past every event
    EXPECT_TRUE(run.calendar().empty());
    EXPECT_GT(run.popped(), 3000U);
  }
}

TEST(EventQueueDifferentialTest, FarEventsWaitBeyondEverythingElse) {
  // Events at 1e300 sit in the heap for the whole run, then drain last
  // in FIFO order once the clock is allowed to reach them.
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    SCOPED_TRACE(seed);
    LockStep run(seed, /*far_events=*/true);
    for (int k = 0; k < 100; ++k) run.schedule_both(run.draw_time());
    run.drive(1500);
    ASSERT_FALSE(HasFatalFailure());
    run.drain(2e300);
    EXPECT_TRUE(run.calendar().empty());
    EXPECT_EQ(run.calendar().now(), 2e300);
  }
}

TEST(EventQueueDifferentialTest, EmptiesAndRefills) {
  // Drain to empty, then refill far past the old ring position (the
  // calendar re-anchors), several times over.
  LockStep run(21, /*far_events=*/false);
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    const double base = run.calendar().now() + 37.0 * round;
    for (int k = 0; k < 300; ++k) {
      run.schedule_both(base + 0.01 * (k % 50));
    }
    run.drive(500);
    ASSERT_FALSE(HasFatalFailure());
    run.drain(run.calendar().now() + 5000.0);
    EXPECT_TRUE(run.calendar().empty());
    EXPECT_EQ(run.calendar().next_time(),
              std::numeric_limits<double>::infinity());
  }
}

TEST(EventQueueDifferentialTest, TimesAroundTheBucketIndexLimit) {
  // Times just below kFarTime still get a bucket; at and beyond it they
  // stay in the heap. Order must hold across the boundary, and after the
  // clock passes it (every later event is then a heap event).
  const double far = EventQueue::kFarTime;
  const std::vector<double> times = {far,        far - 1.0 / 64, 1.0,
                                     far + 1.0,  far - 1e-3,     far,
                                     far - 0.5,  1e300,          far + 0.0625};
  EventQueue cal;
  ReferenceQueue ref;
  std::uint32_t tag = 0;
  for (const double t : times) {
    cal.schedule(t, 0, tag);
    ref.schedule(t, 0, tag, 0);
    ++tag;
  }
  int follow_ups = 0;
  cal.run_all([&](const Event& event) {
    Event want;
    ASSERT_TRUE(ref.pop_due(std::numeric_limits<double>::infinity(), &want));
    EXPECT_TRUE(same_event(event, want)) << event.a << " vs " << want.a;
    if (follow_ups < 20 && event.time < 1e300) {
      ++follow_ups;
      cal.schedule_in(0.0, 1, tag);  // zero delay in heap-only mode too
      ref.schedule(cal.now(), 1, tag, 0);
      ++tag;
    }
  });
  EXPECT_EQ(ref.pending(), 0U);
  EXPECT_EQ(cal.now(), 1e300);
}

}  // namespace
}  // namespace deproto::sim
