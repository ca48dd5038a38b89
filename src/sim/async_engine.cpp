#include "sim/async_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/action.hpp"
#include "sim/fault_plan.hpp"

namespace deproto::sim {

namespace {

/// Whether `states` answers a probe set of `same_samples` probes expecting
/// `same_state`, followed by one probe per entry of `targets`. A lost
/// reply (nullopt) never matches.
bool probes_match(const std::vector<std::optional<std::size_t>>& states,
                  std::size_t same_state, std::size_t same_samples,
                  const std::vector<std::size_t>& targets) {
  std::size_t at = 0;
  for (std::size_t k = 0; k < same_samples; ++k, ++at) {
    if (states[at] != same_state) return false;
  }
  for (std::size_t t : targets) {
    if (states[at++] != t) return false;
  }
  return true;
}

}  // namespace

AsyncEngine::AsyncEngine(std::size_t n,
                         std::optional<core::ProtocolStateMachine> machine,
                         PeriodicProtocol* protocol, std::uint64_t seed,
                         double clock_drift, TokenRouting tokens)
    : machine_(std::move(machine)),
      protocol_(protocol),
      token_routing_(tokens),
      rng_(seed),
      group_(n, machine_.has_value() ? machine_->num_states()
                                     : protocol_->num_states()),
      metrics_(group_.num_states()) {
  if (!(clock_drift >= 0.0 && clock_drift < 0.5)) {
    throw std::invalid_argument("AsyncEngine: bad clock drift");
  }
  if (protocol_ != nullptr) {
    // Driver mode: one whole-group period per tick of a single drifting,
    // arbitrary-phase timer.
    driver_period_ = rng_.uniform(1.0 - clock_drift, 1.0 + clock_drift);
    queue_.schedule(rng_.uniform01() * driver_period_, kDriverTick);
    return;
  }
  period_of_.resize(n);
  timer_epoch_.assign(n, 0);
  for (ProcessId pid = 0; pid < n; ++pid) {
    period_of_[pid] = rng_.uniform(1.0 - clock_drift, 1.0 + clock_drift);
    activate(pid);
  }
}

void AsyncEngine::seed_states(const std::vector<std::size_t>& counts) {
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  if (counts.size() > group_.num_states() || total > group_.size()) {
    throw std::invalid_argument("seed_states: bad counts");
  }
  ProcessId pid = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    for (std::size_t k = 0; k < counts[s]; ++k, ++pid) {
      group_.transition(pid, s);
    }
  }
}

// ---------------------------------------------------------------------
// Fault surface. Targeted and churn crashes fire the protocol's on_crash()
// hook before the process leaves the group; massive and background
// crashes fire it after Group::crash_random_alive, as the sync backend's
// massive-failure path does.

void AsyncEngine::crash_process(ProcessId pid, bool graceful) {
  if (!group_.alive(pid)) return;
  if (protocol_ != nullptr) protocol_->on_crash(pid);
  group_.crash(pid);
  went_down(pid, graceful);
}

std::vector<ProcessId> AsyncEngine::crash_random_alive(std::size_t k) {
  std::vector<ProcessId> victims = group_.crash_random_alive(k, rng_);
  for (ProcessId pid : victims) {
    if (protocol_ != nullptr) protocol_->on_crash(pid);
    went_down(pid, false);
  }
  return victims;
}

void AsyncEngine::went_down(ProcessId pid, bool graceful) {
  if (!timer_epoch_.empty()) ++timer_epoch_[pid];
  node_down(pid, graceful);
}

void AsyncEngine::recover_process(ProcessId pid) {
  if (group_.alive(pid)) return;
  group_.recover(pid, protocol_ != nullptr ? protocol_->rejoin_state() : 0);
  // Driver mode: the group-wide period timer keeps running; the revived
  // process simply participates in the next execute_period.
  if (node_up(pid) && machine_.has_value()) {
    schedule_tick(pid, period_of_[pid]);
  }
}

void AsyncEngine::schedule_massive_failure(double time, double fraction) {
  fault_plan::validate_fault_time(time);
  fault_plan::validate_failure_fraction(fraction);
  queue_.schedule(std::max(time, queue_.now()), kMassiveFailure, 0,
                  std::bit_cast<std::uint64_t>(fraction));
}

void AsyncEngine::schedule_crash(ProcessId pid, double time,
                                 double recover_time) {
  fault_plan::validate_fault_time(time);
  fault_plan::validate_fault_time(recover_time);
  if (pid >= group_.size()) return;  // ignored, like the sync backend
  queue_.schedule(std::max(time, queue_.now()), kCrash, pid);
  if (recover_time >= 0.0) {
    queue_.schedule(std::max(recover_time, queue_.now()), kRecover, pid);
  }
}

void AsyncEngine::set_crash_recovery(double crash_prob,
                                     double mean_downtime_periods) {
  fault_plan::validate_crash_recovery(crash_prob, mean_downtime_periods);
  // Each call starts a fresh tick chain; any chain already in the queue
  // carries a stale epoch and dies at its next tick, so reconfiguring
  // (including disarm + re-arm within one period) never stacks chains.
  const std::uint64_t epoch = ++recovery_epoch_;
  crash_prob_ = crash_prob;
  mean_downtime_ = mean_downtime_periods;
  if (crash_prob_ > 0.0) queue_.schedule_in(1.0, kCrashRecoveryTick, 0, epoch);
}

void AsyncEngine::on_crash_recovery_tick(std::uint64_t epoch) {
  if (epoch != recovery_epoch_) return;  // reconfigured; chain abandoned
  const std::vector<ProcessId> victims =
      crash_random_alive(rng_.binomial(group_.total_alive(), crash_prob_));
  if (mean_downtime_ > 0.0) {
    // Downtime quantization is shared with the sync backend: one period
    // (the crash is only noticed at the next boundary) plus an exponential
    // tail. Recoveries outlive a later disarm, as the sync backend's heap
    // does.
    for (ProcessId pid : victims) {
      queue_.schedule_in(fault_plan::recovery_delay(rng_, mean_downtime_),
                         kRecover, pid);
    }
  }
  queue_.schedule_in(1.0, kCrashRecoveryTick, 0, epoch);
}

void AsyncEngine::attach_churn(const ChurnTrace& trace,
                               double periods_per_hour) {
  // Attaching replaces any earlier trace (the sync backend's semantics):
  // events already in the queue carry the previous epoch and become
  // no-ops, since the queue offers no cancellation.
  const std::uint64_t epoch = ++churn_epoch_;
  for (const ChurnEvent& e :
       fault_plan::trace_in_periods(trace, periods_per_hour, queue_.now())) {
    if (e.host >= group_.size()) continue;
    // time_hours is already converted to periods.
    queue_.schedule(e.time_hours, kChurn, e.host,
                    epoch << 1 | static_cast<std::uint64_t>(e.up));
  }
}

// ---------------------------------------------------------------------
// Timers and action semantics.

void AsyncEngine::schedule_tick(ProcessId pid, double delay) {
  queue_.schedule_in(delay, kTick, pid, timer_epoch_[pid]);
}

void AsyncEngine::activate(ProcessId pid) {
  // Arbitrary phase: the first tick falls anywhere in the period.
  schedule_tick(pid, rng_.uniform01() * period_of_[pid]);
}

void AsyncEngine::on_tick(ProcessId pid, std::uint64_t epoch) {
  // Stale timers (armed before a crash) die here, even if the process has
  // since recovered (recovery armed a fresh-epoch timer).
  if (epoch != timer_epoch_[pid] || !group_.alive(pid)) return;
  const std::size_t state = group_.state_of(pid);
  for (std::size_t idx : machine_->actions_of(state)) {
    run_action(pid, idx);
  }
  schedule_tick(pid, period_of_[pid]);
}

void AsyncEngine::on_driver_tick() {
  protocol_->execute_period(group_, rng_, metrics_);
  queue_.schedule_in(driver_period_, kDriverTick);
}

void AsyncEngine::run_action(ProcessId pid, std::size_t action_index) {
  std::visit(
      [&](const auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, core::FlippingAction>) {
          if (rng_.bernoulli(a.coin_bias)) group_.transition(pid, a.to_state);
        } else if constexpr (std::is_same_v<T, core::PushAction>) {
          for (unsigned k = 0; k < a.fanout; ++k) {
            send_push(pid, group_.random_target(pid, rng_), action_index);
          }
        } else if constexpr (std::is_same_v<T, core::AnyOfSamplingAction>) {
          probe_all(pid, action_index, a.fanout);
        } else {  // Sampling and Tokenizing
          probe_all(pid, action_index,
                    a.same_state_samples + a.target_states.size());
        }
      },
      machine_->actions()[action_index]);
}

void AsyncEngine::probe_all(ProcessId pid, std::size_t action_index,
                            std::size_t count) {
  ProbeSlot slot = 0;
  if (free_probes_.empty()) {
    slot = static_cast<ProbeSlot>(probes_.size());
    probes_.emplace_back();
  } else {
    slot = free_probes_.back();
    free_probes_.pop_back();
  }
  ProbeContext& probe = probes_[slot];
  probe.pid = pid;
  probe.action = action_index;
  probe.states.clear();  // a reused slot keeps its capacity
  probe.remaining = count;
  if (count == 0) {  // nothing to wait for
    decide(probe);
    free_probes_.push_back(slot);
    return;
  }
  for (std::size_t k = 0; k < count; ++k) {
    send_probe(pid, group_.random_target(pid, rng_), slot);
  }
}

void AsyncEngine::resolve_probe(ProbeSlot slot,
                                std::optional<std::size_t> state) {
  ProbeContext& probe = probes_[slot];
  probe.states.push_back(state);
  if (--probe.remaining == 0) {
    decide(probe);
    free_probes_.push_back(slot);
  }
}

void AsyncEngine::decide(const ProbeContext& probe) {
  const ProcessId pid = probe.pid;
  // A process that moved on or crashed while waiting drops its decision;
  // a tokenizing executor hands its token out regardless.
  const auto still_in = [&](std::size_t state) {
    return group_.alive(pid) && group_.state_of(pid) == state;
  };
  std::visit(
      [&](const auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, core::SamplingAction>) {
          if (still_in(a.from_state) &&
              probes_match(probe.states, a.from_state, a.same_state_samples,
                           a.target_states) &&
              rng_.bernoulli(a.coin_bias)) {
            group_.transition(pid, a.to_state);
          }
        } else if constexpr (std::is_same_v<T, core::TokenizingAction>) {
          if (probes_match(probe.states, a.executor_state,
                           a.same_state_samples, a.target_states) &&
              rng_.bernoulli(a.coin_bias)) {
            route_token(pid, a.token_state, a.to_state);
          }
        } else if constexpr (std::is_same_v<T, core::AnyOfSamplingAction>) {
          const bool any = std::any_of(
              probe.states.begin(), probe.states.end(),
              [&](const auto& s) { return s == a.match_state; });
          if (still_in(a.from_state) && any && rng_.bernoulli(a.coin_bias)) {
            group_.transition(pid, a.to_state);
          }
        }
      },
      machine_->actions()[probe.action]);
}

const core::PushAction& AsyncEngine::push_action(std::size_t action) const {
  return std::get<core::PushAction>(machine_->actions()[action]);
}

void AsyncEngine::deliver_push(ProcessId to, std::size_t target_state,
                               std::size_t to_state, double coin_bias) {
  if (group_.alive(to) && group_.state_of(to) == target_state &&
      rng_.bernoulli(coin_bias)) {
    group_.transition(to, to_state);
  }
}

// ---------------------------------------------------------------------
// Token routing: a directory handoff straight to a current member of the
// token state, or a TTL-bounded random walk that forwards on every miss.

void AsyncEngine::route_token(ProcessId from, std::size_t token_state,
                              std::size_t to_state) {
  ++tokens_.generated;
  if (token_routing_.mode == TokenRouting::Mode::RandomWalkTtl) {
    walk_token(from, Token{token_state, to_state, token_routing_.ttl});
    return;
  }
  if (group_.count(token_state) == 0) {
    ++tokens_.dropped;  // "If no processes are in state x, drop it"
    return;
  }
  const ProcessId to = group_.random_member(token_state, rng_);
  if (!send_token(from, to, Token{token_state, to_state, 0})) {
    ++tokens_.dropped;
  }
}

void AsyncEngine::deliver_token(ProcessId at, const Token& token) {
  if (group_.alive(at) && group_.state_of(at) == token.token_state) {
    group_.transition(at, token.to_state);
    ++tokens_.delivered;
    return;
  }
  walk_token(at, token);
}

void AsyncEngine::walk_token(ProcessId from, Token token) {
  if (token.hops_left == 0) {
    ++tokens_.dropped;  // directory miss, or the walk's TTL ran out
    return;
  }
  --token.hops_left;
  const auto to = static_cast<ProcessId>(rng_.uniform_int(group_.size()));
  if (!send_token(from, to, token)) ++tokens_.dropped;
}

// ---------------------------------------------------------------------
// Event dispatch and the run loop: advance the transport's clock one
// sample point at a time.

void AsyncEngine::dispatch(const Event& event) {
  switch (event.kind) {
    case kTick:
      on_tick(event.a, event.b);
      return;
    case kDriverTick:
      on_driver_tick();
      return;
    case kMassiveFailure:
      crash_random_alive(fault_plan::failure_victims(
          std::bit_cast<double>(event.b), group_.total_alive()));
      return;
    case kCrash:
      crash_process(event.a);
      return;
    case kRecover:
      recover_process(event.a);
      return;
    case kCrashRecoveryTick:
      on_crash_recovery_tick(event.b);
      return;
    case kChurn:
      if (event.b >> 1 != churn_epoch_) return;  // a replaced trace
      if ((event.b & 1U) != 0) {
        recover_process(event.a);
      } else {
        crash_process(event.a, /*graceful=*/true);
      }
      return;
    default:
      on_transport_event(event);
  }
}

void AsyncEngine::run_events_until(double t_end) {
  queue_.run_until(t_end, [this](const Event& event) { dispatch(event); });
}

void AsyncEngine::run_until(double t_end) {
  start_run();
  while (next_sample_ <= t_end) {
    advance_to(next_sample_);
    metrics_.begin_period(queue_.now());
    metrics_.end_period(group_);
    next_sample_ += 1.0;
  }
  advance_to(t_end);
}

void AsyncEngine::run_for(double periods) { run_until(queue_.now() + periods); }

}  // namespace deproto::sim
