#include "sim/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace deproto::sim::fault_plan {

void validate_fault_time(double time) {
  if (!std::isfinite(time)) {
    throw std::invalid_argument("fault plan: fault time must be finite");
  }
}

void validate_failure_fraction(double fraction) {
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument("schedule_massive_failure: bad fraction");
  }
}

void validate_crash_recovery(double crash_prob,
                             double mean_downtime_periods) {
  if (!(crash_prob >= 0.0 && crash_prob <= 1.0) ||
      mean_downtime_periods < 0.0) {
    throw std::invalid_argument("set_crash_recovery: bad parameters");
  }
}

void validate_periods_per_hour(double periods_per_hour) {
  if (!(periods_per_hour > 0.0)) {
    throw std::invalid_argument("attach_churn: bad periods_per_hour");
  }
}

std::size_t failure_victims(double fraction, std::size_t total_alive) {
  return static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(total_alive)));
}

std::vector<ChurnEvent> trace_in_periods(const ChurnTrace& trace,
                                         double periods_per_hour,
                                         double min_time) {
  validate_periods_per_hour(periods_per_hour);
  std::vector<ChurnEvent> events;
  events.reserve(trace.events().size());
  for (ChurnEvent e : trace.events()) {
    validate_fault_time(e.time_hours * periods_per_hour);
    e.time_hours =
        std::max(e.time_hours * periods_per_hour, min_time);  // now periods
    events.push_back(e);
  }
  return events;
}

double recovery_delay(Rng& rng, double mean_downtime_periods) {
  return 1.0 + rng.exponential_mean(mean_downtime_periods);
}

std::size_t first_period_at_or_after(double time) {
  if (!(time > 0.0)) return 0;
  return static_cast<std::size_t>(std::ceil(time));
}

void RoundSchedule::add_massive_failure(double time, double fraction) {
  validate_fault_time(time);
  validate_failure_fraction(fraction);
  failures_.push_back(PendingFailure{MassiveFailure{time, fraction}, false});
}

void RoundSchedule::add_crash(ProcessId pid, double time,
                              double recover_time) {
  validate_fault_time(time);
  validate_fault_time(recover_time);
  // A targeted crash is a one-host departure (plus optional rejoin),
  // already expressed in periods.
  crashes_.push_back(ChurnEvent{time, pid, false});
  if (recover_time >= 0.0) {
    crashes_.push_back(ChurnEvent{recover_time, pid, true});
  }
  // Stable: equal-time events keep scheduling order (crash before its own
  // recovery), matching the event queue's FIFO tie-breaking.
  std::stable_sort(
      crashes_.begin() + static_cast<std::ptrdiff_t>(crashes_next_),
      crashes_.end(), [](const ChurnEvent& a, const ChurnEvent& b) {
        return a.time_hours < b.time_hours;
      });
}

void RoundSchedule::attach_churn(const ChurnTrace& trace,
                                 double periods_per_hour) {
  churn_ = trace_in_periods(trace, periods_per_hour);
  churn_next_ = 0;
  std::sort(churn_.begin(), churn_.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              return a.time_hours < b.time_hours;
            });
}

void RoundSchedule::set_crash_recovery(double crash_prob,
                                       double mean_downtime_periods) {
  validate_crash_recovery(crash_prob, mean_downtime_periods);
  crash_prob_ = crash_prob;
  mean_downtime_ = mean_downtime_periods;
}

}  // namespace deproto::sim::fault_plan
