#include "sim/event_sim.hpp"

#include <optional>
#include <utility>

namespace deproto::sim {

EventSimulator::EventSimulator(std::size_t n,
                               core::ProtocolStateMachine machine,
                               std::uint64_t seed, EventSimOptions options)
    : AsyncEngine(n, std::move(machine), nullptr, seed, options.clock_drift,
                  options.tokens),
      network_(queue(), rng(), options.network) {}

EventSimulator::EventSimulator(std::size_t n, PeriodicProtocol& protocol,
                               std::uint64_t seed, EventSimOptions options)
    : AsyncEngine(n, std::nullopt, &protocol, seed, options.clock_drift,
                  options.tokens),
      network_(queue(), rng(), options.network) {}

void EventSimulator::send_probe(ProcessId /*from*/, ProcessId to,
                                const Probe& probe) {
  network_.send(
      [this, to, probe] {
        // The reply carries the target's state at response time. Crashed
        // targets never answer: model that as a lost reply.
        if (!group().alive(to)) {
          resolve_probe(probe, std::nullopt);
          return;
        }
        const std::size_t remote = group().state_of(to);
        network_.send([this, probe, remote] { resolve_probe(probe, remote); },
                      [this, probe] { resolve_probe(probe, std::nullopt); });
      },
      [this, probe] { resolve_probe(probe, std::nullopt); });
}

void EventSimulator::send_push(ProcessId /*from*/, ProcessId to,
                               const core::PushAction& push) {
  network_.send([this, to, &push] {
    deliver_push(to, push.target_state, push.to_state, push.coin_bias);
  });
}

bool EventSimulator::send_token(ProcessId /*from*/, ProcessId to,
                                const Token& token) {
  return network_.send([this, to, token] { deliver_token(to, token); });
}

}  // namespace deproto::sim
