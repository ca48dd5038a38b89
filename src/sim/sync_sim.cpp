#include "sim/sync_sim.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/fault_plan.hpp"

namespace deproto::sim {

SyncSimulator::SyncSimulator(std::size_t n, PeriodicProtocol& protocol,
                             std::uint64_t seed)
    : group_(n, protocol.num_states()),
      protocol_(protocol),
      rng_(seed),
      metrics_(protocol.num_states()) {}

void SyncSimulator::schedule_massive_failure(double time, double fraction) {
  faults_.add_massive_failure(time, fraction);
}

void SyncSimulator::schedule_crash(ProcessId pid, double time,
                                   double recover_time) {
  faults_.add_crash(pid, time, recover_time);
}

void SyncSimulator::attach_churn(const ChurnTrace& trace,
                                 double periods_per_hour) {
  faults_.attach_churn(trace, periods_per_hour);
}

void SyncSimulator::seed_states(const std::vector<std::size_t>& counts) {
  if (counts.size() > group_.num_states()) {
    throw std::invalid_argument("seed_states: too many states");
  }
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  if (total > group_.size()) {
    throw std::invalid_argument("seed_states: counts exceed group size");
  }
  ProcessId pid = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    for (std::size_t k = 0; k < counts[s]; ++k, ++pid) {
      if (!group_.alive(pid)) continue;
      group_.transition(pid, s);
    }
  }
}

void SyncSimulator::set_crash_recovery(double crash_prob,
                                       double mean_downtime_periods) {
  faults_.set_crash_recovery(crash_prob, mean_downtime_periods);
}

void SyncSimulator::apply_event(const ChurnEvent& e) {
  if (e.host >= group_.size()) return;
  if (!e.up) {
    if (group_.alive(e.host)) {
      protocol_.on_crash(e.host);
      group_.crash(e.host);
    }
  } else if (!group_.alive(e.host)) {
    group_.recover(e.host, protocol_.rejoin_state());
  }
}

void SyncSimulator::run(std::size_t periods) {
  for (std::size_t k = 0; k < periods; ++k) {
    const auto t = static_cast<double>(period_);

    // Scheduled faults at the start of the period (see
    // fault_plan::RoundSchedule::play for the due windows).
    faults_.play(
        t,
        [this](double fraction) {
          const std::size_t victims =
              fault_plan::failure_victims(fraction, group_.total_alive());
          for (ProcessId pid : group_.crash_random_alive(victims, rng_)) {
            protocol_.on_crash(pid);
          }
        },
        [this](const ChurnEvent& e) { apply_event(e); });

    // Background crash-recovery. Due recoveries drain even after the
    // process is disarmed (crash_prob reset to 0): already-crashed hosts
    // still come back, exactly as the event backend's queued recovery
    // events do.
    while (!recoveries_.empty() && recoveries_.top().first <= t) {
      const ProcessId pid = recoveries_.top().second;
      recoveries_.pop();
      if (!group_.alive(pid)) {
        group_.recover(pid, protocol_.rejoin_state());
      }
    }
    if (faults_.crash_prob() > 0.0) {
      const std::size_t crashes =
          rng_.binomial(group_.total_alive(), faults_.crash_prob());
      for (ProcessId pid : group_.crash_random_alive(crashes, rng_)) {
        protocol_.on_crash(pid);
        if (faults_.mean_downtime() > 0.0) {
          recoveries_.emplace(
              t + fault_plan::recovery_delay(rng_, faults_.mean_downtime()),
              pid);
        }
      }
    }

    metrics_.begin_period(t);
    group_.set_transition_observer(
        [this](ProcessId, std::size_t from, std::size_t to) {
          metrics_.record_transition(from, to);
        });
    protocol_.execute_period(group_, rng_, metrics_);
    group_.set_transition_observer(nullptr);
    metrics_.end_period(group_);
    ++period_;
  }
}

void SyncSimulator::run_for(double periods) {
  run(static_cast<std::size_t>(std::ceil(periods)));
}

}  // namespace deproto::sim
