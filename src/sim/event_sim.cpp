#include "sim/event_sim.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

namespace deproto::sim {

EventSimulator::EventSimulator(std::size_t n,
                               core::ProtocolStateMachine machine,
                               std::uint64_t seed, EventSimOptions options)
    : AsyncEngine(n, std::move(machine), nullptr, seed, options.clock_drift,
                  options.tokens),
      network_(rng(), options.network) {}

EventSimulator::EventSimulator(std::size_t n, PeriodicProtocol& protocol,
                               std::uint64_t seed, EventSimOptions options)
    : AsyncEngine(n, std::nullopt, &protocol, seed, options.clock_drift,
                  options.tokens),
      network_(rng(), options.network) {}

namespace {

// A token rides in one 64-bit payload: both states fit 16 bits (a Group
// holds at most 255), the hop budget takes the upper 32.
std::uint64_t pack_token(std::size_t token_state, std::size_t to_state,
                         unsigned hops_left) {
  return static_cast<std::uint64_t>(hops_left) << 32 |
         static_cast<std::uint64_t>(to_state) << 16 |
         static_cast<std::uint64_t>(token_state);
}

}  // namespace

void EventSimulator::send_probe(ProcessId /*from*/, ProcessId to,
                                ProbeSlot probe) {
  const MessageFate fate = network_.send();
  queue().schedule_in(fate.latency, fate.lost ? kProbeLost : kProbeArrival,
                      probe, to);
}

void EventSimulator::send_push(ProcessId /*from*/, ProcessId to,
                               std::size_t action) {
  const MessageFate fate = network_.send();
  if (!fate.lost) queue().schedule_in(fate.latency, kPush, to, action);
}

bool EventSimulator::send_token(ProcessId /*from*/, ProcessId to,
                                const Token& token) {
  const MessageFate fate = network_.send();
  if (fate.lost) return false;
  queue().schedule_in(
      fate.latency, kTokenHop, to,
      pack_token(token.token_state, token.to_state, token.hops_left));
  return true;
}

void EventSimulator::on_transport_event(const Event& event) {
  switch (event.kind) {
    case kProbeArrival: {
      // The reply carries the target's state at response time. Crashed
      // targets never answer: model that as a lost reply.
      const auto to = static_cast<ProcessId>(event.b);
      if (!group().alive(to)) {
        resolve_probe(event.a, std::nullopt);
        return;
      }
      const MessageFate fate = network_.send();
      queue().schedule_in(fate.latency, fate.lost ? kProbeLost : kReply,
                          event.a, group().state_of(to));
      return;
    }
    case kReply:
      resolve_probe(event.a, static_cast<std::size_t>(event.b));
      return;
    case kProbeLost:
      resolve_probe(event.a, std::nullopt);
      return;
    case kPush: {
      const core::PushAction& push = push_action(event.b);
      deliver_push(event.a, push.target_state, push.to_state,
                   push.coin_bias);
      return;
    }
    case kTokenHop:
      deliver_token(event.a,
                    Token{event.b & 0xffffU, (event.b >> 16) & 0xffffU,
                          static_cast<unsigned>(event.b >> 32)});
      return;
    default:
      throw std::logic_error("EventSimulator: unknown event kind");
  }
}

}  // namespace deproto::sim
