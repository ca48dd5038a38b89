#pragma once

// Fully asynchronous execution backend: the shared AsyncEngine over a
// modelled network. In machine mode each process runs its own
// protocol-period timer (arbitrary phase, bounded drift -- the paper's
// clock model), sampling probes are request/response message pairs over
// sim::Network's random latency and loss, and decisions are taken when the
// last response (or loss surrogate) arrives. This validates that the
// protocols need no global clock, synchronization, or agreement.
//
// Every message is one typed event on the engine's queue: a probe's
// arrival at its target (a = probe slot, b = target), its reply (b = the
// target's state), the loss surrogate of either leg (due when the message
// would have arrived), a push (a = target, b = action index), and a token
// hop (a = target, b = the packed Token).
//
// A second constructor accepts any hand-written PeriodicProtocol and drives
// it from a (drifting, arbitrary-phase) period timer, so the paper's case
// studies (protocols/epidemic|lv_majority|endemic_replication) and any
// MachineExecutor compose with the event backend's fault surface -- churn
// playback, crash-recovery, targeted crashes -- exactly like synthesized
// machines do.

#include <cstddef>
#include <cstdint>

#include "core/state_machine.hpp"
#include "sim/async_engine.hpp"
#include "sim/network.hpp"
#include "sim/protocol.hpp"
#include "sim/runtime.hpp"

namespace deproto::sim {

struct EventSimOptions {
  NetworkOptions network;
  /// Per-process period = 1 * Uniform(1 - drift, 1 + drift).
  double clock_drift = 0.05;
  /// Token routing (shared with the sync runtime's RuntimeOptions):
  /// directory handoff, or TTL-bounded random walks riding on real
  /// messages.
  TokenRouting tokens;
};

class EventSimulator final : public AsyncEngine {
 public:
  /// Machine mode: interpret a synthesized state machine, one independent
  /// timer per process.
  EventSimulator(std::size_t n, core::ProtocolStateMachine machine,
                 std::uint64_t seed, EventSimOptions options = {});

  /// Protocol-driver mode: execute a hand-written PeriodicProtocol one
  /// whole period per tick of a drifting, arbitrary-phase period timer.
  /// The protocol does its own (synchronous) sampling; the network carries
  /// no messages in this mode.
  EventSimulator(std::size_t n, PeriodicProtocol& protocol,
                 std::uint64_t seed, EventSimOptions options = {});

  [[nodiscard]] const Network& network() const noexcept { return network_; }

 private:
  enum Kind : std::uint32_t {
    kProbeArrival = kTransportKind,
    kReply,
    kProbeLost,
    kPush,
    kTokenHop,
  };

  void send_probe(ProcessId from, ProcessId to, ProbeSlot probe) override;
  void send_push(ProcessId from, ProcessId to, std::size_t action) override;
  bool send_token(ProcessId from, ProcessId to, const Token& token) override;
  /// Modelled processes hold no channel state: a crashed target is simply
  /// one that no longer answers.
  void node_down(ProcessId /*pid*/, bool /*graceful*/) override {}
  bool node_up(ProcessId /*pid*/) override { return true; }
  void on_transport_event(const Event& event) override;

  Network network_;
};

}  // namespace deproto::sim
