#pragma once

// The real-network execution backend: the shared sim::AsyncEngine over
// actual UDP sockets on loopback. The engine owns everything a process
// does -- timers, action semantics, probe collection, token routing, and
// the fault surface -- exactly as for the event backend; this class is
// only the channel behind its seam:
//   send_probe  a Probe datagram; the ProbeReply resolves the probe, and
//               an unanswered probe resolves as lost after
//               options.probe_timeout periods (a probe-timeout event), the
//               timeout surrogate a deployed gossip node would use;
//   send_push   a Push datagram (coin bias in Q32 fixed point);
//   send_token  a Token datagram, forwarded hop by hop on a random walk;
//   node_down   the socket closes mid-flight (peers see timeouts, not
//               errors); a churn departure gossips a Leave first;
//   node_up     the port is rebound and a Join/JoinAck handshake runs
//               (retried by a Join-retry event) before the node's period
//               timer starts again;
//   advance_to  the event queue is paced against the wall clock
//               (options.period_ms per protocol period, anchored at
//               start_run) while incoming datagrams are polled and drained.
// Loss, RTT, reordering, and duplication are *measured* properties of the
// kernel's network stack (NetStats, SequenceTracker), not synthetic draws.
//
// All N nodes live in one OS process (loopback deployment); group state
// is shared, so directory token routing and population metrics read the
// same oracle the event backend uses, and the loopback equivalence suite
// can pin net steady states against sync/event/mean-field.

#include <netinet/in.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/state_machine.hpp"
#include "net/packet.hpp"
#include "net/socket.hpp"
#include "sim/async_engine.hpp"
#include "sim/runtime.hpp"

namespace deproto::net {

struct NetSimOptions {
  /// Wall-clock milliseconds per protocol period. The protocols tolerate
  /// any value (periods are just gossip rounds); short periods make
  /// loopback tests fast, long ones make RTTs negligible by comparison.
  double period_ms = 20.0;
  /// Probe loss surrogate: a probe unanswered for this many periods
  /// resolves as lost (the nullopt the machines already understand).
  double probe_timeout = 0.5;
  /// Emulated send-side drop probability, so synthetic loss experiments
  /// (runtime.message_loss) compose with measured loopback behavior.
  double message_loss = 0.0;
  /// Per-process period = period_ms * Uniform(1 - drift, 1 + drift).
  double clock_drift = 0.05;
  /// Token routing (shared vocabulary with the other backends).
  sim::TokenRouting tokens;
};

/// Measured network behavior, aggregated over the whole run.
struct NetStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t emulated_drops = 0;  // message_loss knob, counted not sent
  std::uint64_t probes_sent = 0;
  std::uint64_t probe_timeouts = 0;  // the measured-loss numerator
  std::uint64_t reordered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t joins = 0;   // Join handshakes acked by peers
  std::uint64_t leaves = 0;  // graceful departures observed by peers
  std::uint64_t rtt_samples = 0;
  double rtt_ms_min = 0.0;
  double rtt_ms_max = 0.0;
  double rtt_ms_sum = 0.0;

  [[nodiscard]] double rtt_ms_mean() const {
    return rtt_samples == 0 ? 0.0
                            : rtt_ms_sum / static_cast<double>(rtt_samples);
  }
  /// probe_timeouts / probes_sent -- the measured counterpart of the
  /// synthetic backends' message_loss.
  [[nodiscard]] double observed_loss() const {
    return probes_sent == 0
               ? 0.0
               : static_cast<double>(probe_timeouts) /
                     static_cast<double>(probes_sent);
  }
};

class NetSimulator final : public sim::AsyncEngine {
 public:
  /// Socket-per-node puts a hard ceiling on N (fd budget and poll cost);
  /// gigascale runs belong on the count backend.
  static constexpr std::size_t kMaxNodes = 1024;

  /// Binds n loopback sockets immediately. Throws std::invalid_argument
  /// for n outside [2, kMaxNodes], a machine wider than sim::Group holds
  /// (Group::kMaxStates, which also keeps every state inside a datagram's
  /// one-byte state field), or bad options; std::system_error when the
  /// kernel refuses a socket.
  NetSimulator(std::size_t n, core::ProtocolStateMachine machine,
               std::uint64_t seed, NetSimOptions options = {});

  /// Measured network behavior so far (per-node trackers aggregated).
  [[nodiscard]] NetStats net_stats() const;

  /// The UDP port node `pid` is currently bound to (0 while crashed).
  [[nodiscard]] std::uint16_t port_of(sim::ProcessId pid) const;

  /// SIGKILL surrogate for tests and fault drills: the node vanishes
  /// abruptly -- socket closed, timer dead, no Leave gossip -- and the
  /// peers' probe timeouts absorb it as churn.
  void kill_node(sim::ProcessId pid);

  /// Weave an external fd into the poll loop: `on_readable` runs (and
  /// must drain the fd) whenever it is readable during run_for. This is
  /// how a real service (examples/persistent_store) answers client
  /// requests while the protocol gossips underneath.
  void watch_fd(int fd, std::function<void()> on_readable);

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingProbe {
    ProbeSlot probe = 0;
    Clock::time_point sent_at;
  };
  struct Node {
    UdpSocket socket;
    std::uint16_t home_port = 0;  // preferred rebind port after recovery
    std::uint64_t next_seq = 1;
    std::uint64_t incarnation = 0;  // bumped per rejoin; stale acks no-op
    unsigned join_tries_left = 0;   // of the current incarnation's Join
    bool active = true;             // period timer armed (false mid-join)
    SequenceTracker tracker;
    std::unordered_map<std::uint64_t, PendingProbe> pending;
  };
  struct WatchedFd {
    int fd = -1;
    std::function<void()> on_readable;
  };

  enum Kind : std::uint32_t {
    kProbeTimeout = kTransportKind,  // a = sender, b = probe id
    kJoinRetry,                      // a = joining node, b = incarnation
  };

  // The channel seam (see sim/async_engine.hpp).
  void send_probe(sim::ProcessId from, sim::ProcessId to,
                  ProbeSlot probe) override;
  void send_push(sim::ProcessId from, sim::ProcessId to,
                 std::size_t action) override;
  bool send_token(sim::ProcessId from, sim::ProcessId to,
                  const Token& token) override;
  void node_down(sim::ProcessId pid, bool graceful) override;
  bool node_up(sim::ProcessId pid) override;
  void on_transport_event(const sim::Event& event) override;
  void start_run() override;
  void advance_to(double t_end) override;

  [[nodiscard]] double sim_of(Clock::time_point wall) const;
  [[nodiscard]] Clock::time_point wall_of(double sim_time) const;

  void poll_and_drain(Clock::time_point deadline);
  void drain_node(sim::ProcessId pid);
  void handle_packet(sim::ProcessId pid, const Packet& packet,
                     const sockaddr_in& from);

  /// Stamp sender/seq and send `packet` from node `from` to `dest`.
  /// False when the datagram did not reach the kernel (emulated drop or
  /// send error).
  bool send_packet(sim::ProcessId from, const sockaddr_in& dest,
                   Packet packet);
  void begin_join(sim::ProcessId pid, unsigned tries_left);
  void record_rtt(Clock::time_point sent_at);

  NetSimOptions options_;
  std::vector<Node> nodes_;
  std::vector<sockaddr_in> addr_;  // current endpoint per node
  std::vector<WatchedFd> watched_;
  NetStats stats_;  // tracker-independent counters (see net_stats())
  std::uint64_t next_probe_id_ = 1;
  Clock::time_point anchor_wall_;  // wall <-> sim mapping, reset per run
  double anchor_sim_ = 0.0;
};

}  // namespace deproto::net
