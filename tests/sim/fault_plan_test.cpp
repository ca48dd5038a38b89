// The shared fault-plan quantization rules: every backend (sync, event,
// count) delegates to these helpers, so pinning them here pins the
// cross-backend parity the equivalence suite relies on.

#include "sim/fault_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace deproto::sim::fault_plan {
namespace {

TEST(FaultPlanTest, ValidatorsAcceptBoundsAndRejectOutside) {
  EXPECT_NO_THROW(validate_failure_fraction(0.0));
  EXPECT_NO_THROW(validate_failure_fraction(1.0));
  EXPECT_THROW(validate_failure_fraction(-0.1), std::invalid_argument);
  EXPECT_THROW(validate_failure_fraction(1.1), std::invalid_argument);

  EXPECT_NO_THROW(validate_crash_recovery(0.0, 0.0));
  EXPECT_NO_THROW(validate_crash_recovery(1.0, 10.0));
  EXPECT_THROW(validate_crash_recovery(-0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(validate_crash_recovery(1.1, 1.0), std::invalid_argument);
  EXPECT_THROW(validate_crash_recovery(0.5, -1.0), std::invalid_argument);

  EXPECT_NO_THROW(validate_periods_per_hour(0.5));
  EXPECT_THROW(validate_periods_per_hour(0.0), std::invalid_argument);
  EXPECT_THROW(validate_periods_per_hour(-1.0), std::invalid_argument);
}

TEST(FaultPlanTest, FailureVictimsRoundToNearest) {
  // llround semantics: half rounds away from zero. Both per-node backends
  // historically used llround, so the count backend must too.
  EXPECT_EQ(failure_victims(0.5, 1000), 500U);
  EXPECT_EQ(failure_victims(0.5, 1001), 501U);  // 500.5 -> 501
  EXPECT_EQ(failure_victims(0.25, 10), 3U);     // 2.5 -> 3
  EXPECT_EQ(failure_victims(0.0, 12345), 0U);
  EXPECT_EQ(failure_victims(1.0, 12345), 12345U);
}

TEST(FaultPlanTest, TraceInPeriodsConvertsHoursAndPreservesOrder) {
  const ChurnTrace trace = ChurnTrace::from_events({
      ChurnEvent{0.1, 3, false},
      ChurnEvent{0.5, 3, true},
      ChurnEvent{2.0, 7, false},
  });
  const std::vector<ChurnEvent> events = trace_in_periods(trace, 10.0);
  ASSERT_EQ(events.size(), 3U);
  EXPECT_DOUBLE_EQ(events[0].time_hours, 1.0);  // now in periods
  EXPECT_DOUBLE_EQ(events[1].time_hours, 5.0);
  EXPECT_DOUBLE_EQ(events[2].time_hours, 20.0);
  EXPECT_EQ(events[0].host, 3U);
  EXPECT_FALSE(events[0].up);
  EXPECT_TRUE(events[1].up);
}

TEST(FaultPlanTest, TraceInPeriodsClampsStaleEventsToMinTime) {
  // The event backend replays a trace attached mid-run: events already in
  // the past fire "now" instead of being lost or applied retroactively.
  const ChurnTrace trace = ChurnTrace::from_events({
      ChurnEvent{0.1, 1, false},
      ChurnEvent{1.0, 2, false},
  });
  const std::vector<ChurnEvent> events = trace_in_periods(trace, 10.0, 4.5);
  ASSERT_EQ(events.size(), 2U);
  EXPECT_DOUBLE_EQ(events[0].time_hours, 4.5);   // 1.0 clamped up
  EXPECT_DOUBLE_EQ(events[1].time_hours, 10.0);  // already past min_time
}

TEST(FaultPlanTest, TraceInPeriodsRejectsBadRate) {
  EXPECT_THROW((void)trace_in_periods(ChurnTrace(), 0.0),
               std::invalid_argument);
}

TEST(FaultPlanTest, RecoveryDelayIsOnePeriodPlusExponentialTail) {
  Rng rng(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(recovery_delay(rng, 5.0), 1.0);
  }
}

TEST(FaultPlanTest, FirstPeriodAtOrAfterCeilsAndClampsNegative) {
  EXPECT_EQ(first_period_at_or_after(-3.0), 0U);
  EXPECT_EQ(first_period_at_or_after(0.0), 0U);
  EXPECT_EQ(first_period_at_or_after(2.0), 2U);
  EXPECT_EQ(first_period_at_or_after(2.25), 3U);
}

TEST(FaultPlanTest, RoundSchedulePlaysEachEventOnceInItsWindow) {
  RoundSchedule schedule;
  schedule.add_massive_failure(2.0, 0.5);
  schedule.add_massive_failure(0.5, 0.25);  // due at the next boundary
  schedule.add_crash(7, 1.5, /*recover_time=*/1.5);
  schedule.attach_churn(ChurnTrace::from_events({ChurnEvent{0.25, 3, false},
                                                 ChurnEvent{0.05, 4, false}}),
                        10.0);  // periods 2.5 and 0.5
  std::vector<double> failures;
  std::vector<ChurnEvent> events;
  const auto play = [&](double t) {
    failures.clear();
    events.clear();
    schedule.play(
        t, [&](double fraction) { failures.push_back(fraction); },
        [&](const ChurnEvent& e) { events.push_back(e); });
  };

  play(0.0);  // churn covers [0, 1); crashes and failures need time <= 0
  EXPECT_TRUE(failures.empty());
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].host, 4U);

  play(1.0);
  EXPECT_EQ(failures, std::vector<double>{0.25});
  EXPECT_TRUE(events.empty());

  play(2.0);  // the crash and its same-time recovery, then churn in [2, 3)
  EXPECT_EQ(failures, std::vector<double>{0.5});
  ASSERT_EQ(events.size(), 3U);
  EXPECT_FALSE(events[0].up);
  EXPECT_TRUE(events[1].up);
  EXPECT_EQ(events[2].host, 3U);

  play(3.0);
  EXPECT_TRUE(failures.empty());
  EXPECT_TRUE(events.empty());
}

TEST(FaultPlanTest, RoundScheduleValidatesLikeTheHelpers) {
  RoundSchedule schedule;
  EXPECT_THROW(schedule.add_massive_failure(1.0, 1.5), std::invalid_argument);
  EXPECT_THROW(schedule.set_crash_recovery(0.5, -1.0),
               std::invalid_argument);
  EXPECT_THROW(schedule.attach_churn(ChurnTrace{}, 0.0),
               std::invalid_argument);
  schedule.set_crash_recovery(0.1, 4.0);
  EXPECT_DOUBLE_EQ(schedule.crash_prob(), 0.1);
  EXPECT_DOUBLE_EQ(schedule.mean_downtime(), 4.0);
}

}  // namespace
}  // namespace deproto::sim::fault_plan
