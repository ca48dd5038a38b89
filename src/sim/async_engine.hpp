#pragma once

// The asynchronous executor behind the event and net backends. The
// paper's protocols need no global clock: each process acts on its own
// drifting period timer and learns about others only through lossy
// messages. Following the I/O-automata split (Lynch; PAPERS.md), this
// class composes the process automata -- per-process timers with
// arbitrary phase and bounded drift, the action semantics of a
// synthesized machine (or a hand-written PeriodicProtocol in driver
// mode), probe collection, token routing, and the whole fault surface --
// and a subclass is the channel automaton behind the seam below: how a
// probe, push, or token hop travels and whether it arrives, what a node's
// departure and return mean to the channel, and how the clock advances.
//
// Events are typed records (sim::Event) on a calendar queue, dispatched
// by one switch: the engine's own kinds are a process's timer tick (a =
// pid, b = timer epoch), the driver-mode tick, a massive failure (b = the
// fraction's bits), a targeted crash and a recovery (a = pid), the
// background crash-recovery tick (b = its epoch), and a churn step (a =
// pid, b = churn epoch << 1 | up). A transport numbers its own kinds from
// kTransportKind up and receives them through on_transport_event(). Probe
// sets live in a slot pool: a slot is reused once its last reply
// resolves, and keeps its reply vector's capacity, so a warm run
// allocates nothing per event.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/action.hpp"
#include "core/state_machine.hpp"
#include "sim/event_queue.hpp"
#include "sim/group.hpp"
#include "sim/metrics.hpp"
#include "sim/protocol.hpp"
#include "sim/runtime.hpp"
#include "sim/simulator.hpp"

namespace deproto::sim {

class AsyncEngine : public Simulator {
 public:
  [[nodiscard]] Group& group() noexcept override { return group_; }
  [[nodiscard]] MetricsCollector& metrics() noexcept override {
    return metrics_;
  }
  [[nodiscard]] Rng& rng() noexcept override { return rng_; }
  [[nodiscard]] double now() const noexcept override { return queue_.now(); }
  [[nodiscard]] std::size_t num_states() const noexcept override {
    return group_.num_states();
  }
  [[nodiscard]] std::size_t count(std::size_t state) const override {
    return group_.count(state);
  }
  [[nodiscard]] std::size_t total_alive() const noexcept override {
    return group_.total_alive();
  }
  /// Tokens generated, handed over, and dropped (empty directory, expired
  /// walk, or a hop the transport lost at send time).
  [[nodiscard]] const TokenStats& token_stats() const noexcept {
    return tokens_;
  }

  void seed_states(const std::vector<std::size_t>& counts) override;
  void schedule_massive_failure(double time, double fraction) override;
  /// Crash one process at `time`; if `recover_time` >= 0, revive it then
  /// into the protocol's rejoin_state() (state 0 for raw machines).
  void schedule_crash(ProcessId pid, double time,
                      double recover_time = -1.0) override;
  void set_crash_recovery(double crash_prob,
                          double mean_downtime_periods) override;
  void attach_churn(const ChurnTrace& trace, double periods_per_hour) override;

  /// Run until absolute time `t_end` (periods); metrics sample each whole
  /// period, including t = 0.
  void run_until(double t_end);
  /// Simulator interface: run_until(now() + periods).
  void run_for(double periods) override;

 protected:
  /// The decision a set of probes feeds: which process sent them for which
  /// action, the replies so far (nullopt = lost), and how many are still
  /// outstanding. The decision runs when the last one resolves.
  struct ProbeContext {
    ProcessId pid = 0;
    std::size_t action = 0;
    std::vector<std::optional<std::size_t>> states;
    std::size_t remaining = 0;
  };
  /// A probe set's slot in the engine's pool; the handle a transport
  /// carries with each probe.
  using ProbeSlot = std::uint32_t;

  /// A token in flight: a receiver in `token_state` moves to `to_state`;
  /// otherwise the token walks on while `hops_left` > 0.
  struct Token {
    std::size_t token_state = 0;
    std::size_t to_state = 0;
    unsigned hops_left = 0;
  };

  /// The first event kind a transport may use; the engine's kinds lie
  /// below it.
  static constexpr std::uint32_t kTransportKind = 16;

  /// Machine mode (`protocol` null) interprets `machine` with one timer
  /// per process; driver mode (`machine` empty) runs protocol's whole
  /// period off one group-wide drifting timer. Throws
  /// std::invalid_argument unless clock_drift lies in [0, 0.5).
  AsyncEngine(std::size_t n, std::optional<core::ProtocolStateMachine> machine,
              PeriodicProtocol* protocol, std::uint64_t seed,
              double clock_drift, TokenRouting tokens);

  // --- The channel seam -------------------------------------------------
  /// Carry probe set `probe` from `from` to `to`; resolve_probe() must
  /// follow exactly once, with the target's state or nullopt for a loss.
  virtual void send_probe(ProcessId from, ProcessId to, ProbeSlot probe) = 0;
  /// Carry the push of machine action `action` (see push_action()).
  virtual void send_push(ProcessId from, ProcessId to, std::size_t action) = 0;
  /// False when the hop is lost at send time (counted as a dropped token).
  virtual bool send_token(ProcessId from, ProcessId to,
                          const Token& token) = 0;
  /// `pid` has just left the population; `graceful` marks a churn
  /// departure, which may announce itself first.
  virtual void node_down(ProcessId pid, bool graceful) = 0;
  /// `pid` has just rejoined. True starts its timer one period from now;
  /// false means the transport calls activate(pid) once it is reachable.
  virtual bool node_up(ProcessId pid) = 0;
  /// An event of one of the transport's own kinds (>= kTransportKind).
  virtual void on_transport_event(const Event& event) = 0;
  /// Run every event due up to `t_end` and leave the clock there. Each
  /// run_until calls start_run() once, then advance_to in time order.
  virtual void start_run() {}
  virtual void advance_to(double t_end) { run_events_until(t_end); }

  // --- Arrivals, called by the transport --------------------------------
  void resolve_probe(ProbeSlot probe, std::optional<std::size_t> state);
  void deliver_push(ProcessId to, std::size_t target_state,
                    std::size_t to_state, double coin_bias);
  void deliver_token(ProcessId at, const Token& token);
  /// Start `pid`'s timer at a random phase within its period.
  void activate(ProcessId pid);
  /// Crash `pid` now if it is alive (a targeted crash: the protocol's
  /// on_crash() hook runs before the process leaves the group).
  void crash_process(ProcessId pid, bool graceful = false);

  /// The machine's push action at `action` (a send_push argument).
  [[nodiscard]] const core::PushAction& push_action(std::size_t action) const;
  /// Sim-time events: timers, faults, and whatever the transport queues.
  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
  /// Dispatch every queued event due up to `t_end`; the clock ends there.
  void run_events_until(double t_end);

 private:
  enum Kind : std::uint32_t {
    kTick,
    kDriverTick,
    kMassiveFailure,
    kCrash,
    kRecover,
    kCrashRecoveryTick,
    kChurn,
  };
  static_assert(kChurn < kTransportKind);

  void dispatch(const Event& event);
  /// A massive or background crash: the protocol's on_crash() hook runs
  /// after the victims have left the group.
  std::vector<ProcessId> crash_random_alive(std::size_t k);
  void went_down(ProcessId pid, bool graceful);
  void recover_process(ProcessId pid);
  void schedule_tick(ProcessId pid, double delay);
  void on_tick(ProcessId pid, std::uint64_t epoch);
  void on_driver_tick();
  void on_crash_recovery_tick(std::uint64_t epoch);
  void run_action(ProcessId pid, std::size_t action_index);
  void probe_all(ProcessId pid, std::size_t action_index, std::size_t count);
  void decide(const ProbeContext& probe);
  void route_token(ProcessId from, std::size_t token_state,
                   std::size_t to_state);
  /// One more random hop, or a drop once no hops are left.
  void walk_token(ProcessId from, Token token);

  std::optional<core::ProtocolStateMachine> machine_;  // machine mode
  PeriodicProtocol* protocol_ = nullptr;               // driver mode
  TokenRouting token_routing_;
  EventQueue queue_;
  Rng rng_;
  Group group_;
  MetricsCollector metrics_;
  TokenStats tokens_;
  std::vector<ProbeContext> probes_;  // the probe-set pool
  std::vector<ProbeSlot> free_probes_;
  std::vector<double> period_of_;  // per-process period length
  // Guards against stale timers: bumped on every crash, so a tick armed
  // before the crash is ignored even if the process recovered meanwhile.
  std::vector<std::uint64_t> timer_epoch_;
  double driver_period_ = 1.0;  // driver mode period length
  double crash_prob_ = 0.0;     // background crash-recovery, per period
  double mean_downtime_ = 0.0;  // 0 = crash-stop
  // Bumped by attach_churn: queued events from a replaced trace no-op.
  std::uint64_t churn_epoch_ = 0;
  // Bumped by set_crash_recovery: a superseded tick chain no-ops.
  std::uint64_t recovery_epoch_ = 0;
  double next_sample_ = 0.0;
};

}  // namespace deproto::sim
