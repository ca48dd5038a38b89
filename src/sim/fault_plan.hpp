#pragma once
// Fault-plan quantization and validation rules shared by every execution
// backend (sync, event, net, count), and the fault schedule of the
// round-based ones. A backend that re-derives any of them risks drifting
// from the others in exactly the places the backend equivalence suite
// compares, so they are pinned here once.

#include <cstddef>
#include <vector>

#include "sim/churn.hpp"
#include "sim/group.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace deproto::sim::fault_plan {

/// Throws std::invalid_argument when a fault time (a massive failure's,
/// a targeted crash's or recovery's) is NaN or infinite: no backend can
/// order it against the clock.
void validate_fault_time(double time);

/// Throws std::invalid_argument unless fraction lies in [0, 1].
void validate_failure_fraction(double fraction);

/// Throws std::invalid_argument unless crash_prob lies in [0, 1] and the
/// mean downtime is non-negative.
void validate_crash_recovery(double crash_prob, double mean_downtime_periods);

/// Throws std::invalid_argument unless periods_per_hour is positive.
void validate_periods_per_hour(double periods_per_hour);

/// Massive-failure victim count: fraction of the currently alive
/// population, rounded to nearest (llround).
[[nodiscard]] std::size_t failure_victims(double fraction,
                                          std::size_t total_alive);

/// Convert a churn trace from wall-clock hours into protocol periods,
/// clamping each event to happen no earlier than `min_time` (the event
/// backend passes its current queue time so stale events fire "now"; the
/// sync backend passes 0). Order is preserved; callers needing sorted
/// playback sort afterwards. Throws std::invalid_argument when an event's
/// time in periods is not finite.
[[nodiscard]] std::vector<ChurnEvent> trace_in_periods(
    const ChurnTrace& trace, double periods_per_hour, double min_time = 0.0);

/// Background crash-recovery downtime: one whole period (the crash is
/// only noticed at the next boundary) plus an exponential tail drawn from
/// `rng`. Returns the delay relative to the crash time.
[[nodiscard]] double recovery_delay(Rng& rng, double mean_downtime_periods);

/// First whole-period boundary at or after `time`: the period index where
/// a round-based backend notices an event scheduled at `time`. Negative
/// times clamp to period 0.
[[nodiscard]] std::size_t first_period_at_or_after(double time);

/// The fault plan of the round-based backends (sync, count): scheduled
/// massive failures, targeted crashes and recoveries, the attached churn
/// trace, and the background crash-recovery rate. At each period start,
/// play() hands the backend what is due; the backend decides only how a
/// due event lands (a per-pid crash, or an anonymous removal).
class RoundSchedule {
 public:
  /// Throws std::invalid_argument unless fraction lies in [0, 1] and the
  /// time is finite.
  void add_massive_failure(double time, double fraction);
  /// A crash of `pid` at `time`, and its recovery at `recover_time` if
  /// that is >= 0. Throws std::invalid_argument for a non-finite time.
  void add_crash(ProcessId pid, double time, double recover_time);
  /// Replaces any earlier trace.
  void attach_churn(const ChurnTrace& trace, double periods_per_hour);
  void set_crash_recovery(double crash_prob, double mean_downtime_periods);

  [[nodiscard]] double crash_prob() const noexcept { return crash_prob_; }
  [[nodiscard]] double mean_downtime() const noexcept {
    return mean_downtime_;
  }

  /// The start of period `t`: on_failure(fraction) for every massive
  /// failure due (time <= t, so one scheduled "in the past" fires at the
  /// next boundary instead of being dropped), in scheduling order; then
  /// on_event(e) for each targeted crash or recovery due at t, and for
  /// each churn event due before t + 1. Targeted crashes quantize like
  /// massive failures (matching the event backend at whole-period times);
  /// churn keeps its covering-period window, so a trace event inside
  /// [t, t+1) is visible in the same period's sample on every backend.
  template <class OnFailure, class OnEvent>
  void play(double t, OnFailure&& on_failure, OnEvent&& on_event) {
    for (PendingFailure& pending : failures_) {
      if (pending.applied || pending.failure.time > t) continue;
      pending.applied = true;
      on_failure(pending.failure.fraction);
    }
    while (crashes_next_ < crashes_.size() &&
           crashes_[crashes_next_].time_hours <= t) {
      on_event(crashes_[crashes_next_++]);
    }
    while (churn_next_ < churn_.size() &&
           churn_[churn_next_].time_hours <= t + 1.0) {
      on_event(churn_[churn_next_++]);
    }
  }

 private:
  struct PendingFailure {
    MassiveFailure failure;
    bool applied = false;
  };
  std::vector<PendingFailure> failures_;
  std::vector<ChurnEvent> crashes_;  // schedule_crash events, in periods
  std::size_t crashes_next_ = 0;
  std::vector<ChurnEvent> churn_;  // in periods, sorted
  std::size_t churn_next_ = 0;
  double crash_prob_ = 0.0;
  double mean_downtime_ = 0.0;  // 0 = crash-stop
};

}  // namespace deproto::sim::fault_plan
