#pragma once

// Unreliable asynchronous network (system model, Section 1): messages
// experience random latency and may be dropped. Latency is expressed in
// protocol-period units. This class only draws each message's fate and
// counts it; the event transport (sim::EventSimulator) schedules the
// arrival, or the loss surrogate, as a typed event.

#include <cstdint>

#include "sim/rng.hpp"

namespace deproto::sim {

struct NetworkOptions {
  double loss = 0.0;          // independent drop probability per message
  double latency_min = 0.02;  // uniform latency band, in periods
  double latency_max = 0.10;
};

/// One message's fate: it arrives, or is found lost, `latency` periods
/// after the send (a receiver cannot tell a loss from latency sooner).
struct MessageFate {
  double latency = 0.0;
  bool lost = false;
};

class Network {
 public:
  Network(Rng& rng, NetworkOptions options = {});

  /// Send one message: draw its latency, then -- only when loss > 0 --
  /// whether it is dropped. Counts it in sent(), and in dropped() if lost.
  MessageFate send();

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  Rng& rng_;
  NetworkOptions options_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace deproto::sim
