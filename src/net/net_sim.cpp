#include "net/net_sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

namespace deproto::net {

namespace {

/// Peers a graceful Leave is gossiped to, and a Join handshake is offered
/// to, per attempt. Small: the handshake only needs one live responder.
constexpr unsigned kHandshakeFanout = 3;
/// Join attempts before a recovering node gives up on finding a live
/// peer and activates alone (everyone else may be crashed).
constexpr unsigned kJoinRetries = 3;
/// Poll slice cap so external watch_fd work and wall/sim drift stay
/// bounded even when the next sim event is far away.
constexpr int kMaxPollMs = 100;

/// Validate everything the engine does not (it checks clock_drift) before
/// any state is allocated for `n` processes; returns `machine`.
core::ProtocolStateMachine checked(core::ProtocolStateMachine machine,
                                   std::size_t n,
                                   const NetSimOptions& options) {
  if (n < 2 || n > NetSimulator::kMaxNodes) {
    throw std::invalid_argument(
        "NetSimulator: n must lie in [2, " +
        std::to_string(NetSimulator::kMaxNodes) +
        "] (socket per node; larger populations belong on the count "
        "backend)");
  }
  if (!(options.period_ms > 0.0)) {
    throw std::invalid_argument("NetSimulator: period_ms must be positive");
  }
  if (!(options.probe_timeout > 0.0)) {
    throw std::invalid_argument(
        "NetSimulator: probe_timeout must be positive");
  }
  if (!(options.message_loss >= 0.0 && options.message_loss < 1.0)) {
    throw std::invalid_argument(
        "NetSimulator: message_loss must lie in [0, 1)");
  }
  return machine;
}

}  // namespace

NetSimulator::NetSimulator(std::size_t n,
                           core::ProtocolStateMachine machine,
                           std::uint64_t seed, NetSimOptions options)
    : AsyncEngine(n, checked(std::move(machine), n, options), nullptr, seed,
                  options.clock_drift, options.tokens),
      options_(options),
      nodes_(n),
      addr_(n) {
  for (sim::ProcessId pid = 0; pid < n; ++pid) {
    Node& node = nodes_[pid];
    node.socket = UdpSocket::bind_loopback();
    node.home_port = node.socket.port();
    addr_[pid] = loopback_endpoint(node.home_port);
  }
}

// ---------------------------------------------------------------------
// Wall clock <-> sim time. One protocol period == period_ms of real
// time; the anchors are reset at every run so sim time does not elapse
// between runs.

double NetSimulator::sim_of(Clock::time_point wall) const {
  const double ms = std::chrono::duration<double, std::milli>(
                        wall - anchor_wall_)
                        .count();
  return anchor_sim_ + ms / options_.period_ms;
}

NetSimulator::Clock::time_point NetSimulator::wall_of(
    double sim_time) const {
  return anchor_wall_ + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                (sim_time - anchor_sim_) *
                                options_.period_ms));
}

void NetSimulator::start_run() {
  anchor_wall_ = Clock::now();
  anchor_sim_ = now();
}

void NetSimulator::advance_to(double t_end) {
  sim::EventQueue& events = queue();
  for (;;) {
    // Run everything the wall clock has made due, then either finish or
    // sleep in poll() until the next sim event (or a datagram) is ready.
    double reach = std::min(sim_of(Clock::now()), t_end);
    // Catch up one event batch at a time with a non-blocking drain in
    // between: after a scheduler stall, several periods of probes and
    // their timeouts can all be due at once while the probe replies sit
    // unread in the kernel buffers. Expiring those probes before reading
    // the buffers would turn a CPU hiccup into fake total loss.
    while (events.next_time() <= reach) {
      run_events_until(events.next_time());
      poll_and_drain(Clock::now());
      reach = std::min(sim_of(Clock::now()), t_end);
    }
    if (reach > events.now()) run_events_until(reach);
    if (reach >= t_end) {
      run_events_until(t_end);
      return;
    }
    const double next_t = std::min(events.next_time(), t_end);
    poll_and_drain(wall_of(next_t));
  }
}

void NetSimulator::poll_and_drain(Clock::time_point deadline) {
  const auto now_w = Clock::now();
  int timeout_ms = 0;
  if (deadline > now_w) {
    const double ms =
        std::chrono::duration<double, std::milli>(deadline - now_w).count();
    timeout_ms = std::min(kMaxPollMs, static_cast<int>(ms) + 1);
  }
  std::vector<pollfd> fds;
  std::vector<sim::ProcessId> owners;
  fds.reserve(nodes_.size() + watched_.size());
  for (sim::ProcessId pid = 0; pid < nodes_.size(); ++pid) {
    if (!nodes_[pid].socket.open()) continue;
    fds.push_back(pollfd{nodes_[pid].socket.fd(), POLLIN, 0});
    owners.push_back(pid);
  }
  const std::size_t watched_base = fds.size();
  for (const WatchedFd& w : watched_) {
    fds.push_back(pollfd{w.fd, POLLIN, 0});
  }
  // With every node crashed and nothing watched, this just sleeps until
  // the deadline.
  if (poll_sockets(fds, timeout_ms) <= 0) return;
  for (std::size_t i = 0; i < watched_base; ++i) {
    if ((fds[i].revents & POLLIN) != 0) drain_node(owners[i]);
  }
  for (std::size_t i = watched_base; i < fds.size(); ++i) {
    if ((fds[i].revents & POLLIN) != 0) {
      watched_[i - watched_base].on_readable();
    }
  }
}

void NetSimulator::drain_node(sim::ProcessId pid) {
  char buf[kPacketSize * 2];
  for (;;) {
    Node& node = nodes_[pid];
    if (!node.socket.open()) return;  // crashed while draining
    sockaddr_in from{};
    const long got = node.socket.recv_from(buf, sizeof(buf), &from);
    if (got < 0) return;
    ++stats_.datagrams_received;
    Packet packet;
    const DecodeStatus status =
        decode_packet(buf, static_cast<std::size_t>(got), &packet);
    if (status != DecodeStatus::Ok) {
      ++stats_.decode_errors;
      continue;  // fail closed per datagram; boundaries are intact
    }
    if (node.tracker.observe(packet.sender, packet.seq) ==
        SequenceTracker::Arrival::Duplicate) {
      continue;  // counted by the tracker; never processed twice
    }
    handle_packet(pid, packet, from);
  }
}

void NetSimulator::handle_packet(sim::ProcessId pid, const Packet& packet,
                                 const sockaddr_in& from) {
  Node& node = nodes_[pid];
  switch (packet.type) {
    case PacketType::Probe: {
      if (!group().alive(pid)) return;
      Packet reply;
      reply.type = PacketType::ProbeReply;
      reply.state = static_cast<std::uint8_t>(group().state_of(pid));
      reply.tag = packet.tag;
      send_packet(pid, from, reply);
      return;
    }
    case PacketType::ProbeReply: {
      const auto it = node.pending.find(packet.tag);
      if (it == node.pending.end()) return;  // timed out or stale ack
      record_rtt(it->second.sent_at);
      const ProbeSlot probe = it->second.probe;
      node.pending.erase(it);
      resolve_probe(probe, static_cast<std::size_t>(packet.state));
      return;
    }
    case PacketType::Push:
      deliver_push(pid, packet.arg0, packet.arg1, q32_to_coin(packet.arg2));
      return;
    case PacketType::Token:
      deliver_token(pid, Token{packet.arg0, packet.arg1, packet.arg2});
      return;
    case PacketType::Join: {
      if (!group().alive(pid)) return;
      ++stats_.joins;
      Packet ack;
      ack.type = PacketType::JoinAck;
      ack.tag = packet.tag;
      send_packet(pid, from, ack);
      return;
    }
    case PacketType::JoinAck: {
      if (!group().alive(pid) || node.active ||
          packet.tag != node.incarnation) {
        return;  // stale ack from an earlier incarnation
      }
      node.active = true;
      activate(pid);
      return;
    }
    case PacketType::Leave:
      ++stats_.leaves;
      return;
  }
}

bool NetSimulator::send_packet(sim::ProcessId from, const sockaddr_in& dest,
                               Packet packet) {
  Node& node = nodes_[from];
  if (!node.socket.open()) return false;
  if (options_.message_loss > 0.0 && rng().bernoulli(options_.message_loss)) {
    ++stats_.emulated_drops;
    return false;
  }
  packet.sender = from;
  packet.seq = node.next_seq++;
  const std::string bytes = encode_packet(packet);
  if (!node.socket.send_to(dest, bytes.data(), bytes.size())) return false;
  ++stats_.datagrams_sent;
  return true;
}

void NetSimulator::record_rtt(Clock::time_point sent_at) {
  const double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              sent_at)
                        .count();
  if (stats_.rtt_samples == 0 || ms < stats_.rtt_ms_min) {
    stats_.rtt_ms_min = ms;
  }
  if (ms > stats_.rtt_ms_max) stats_.rtt_ms_max = ms;
  stats_.rtt_ms_sum += ms;
  ++stats_.rtt_samples;
}

// ---------------------------------------------------------------------
// The channel seam: messages as datagrams.

void NetSimulator::send_probe(sim::ProcessId from, sim::ProcessId to,
                              ProbeSlot probe) {
  const std::uint64_t probe_id = next_probe_id_++;
  ++stats_.probes_sent;
  nodes_[from].pending.emplace(probe_id, PendingProbe{probe, Clock::now()});
  Packet packet;
  packet.type = PacketType::Probe;
  packet.state = static_cast<std::uint8_t>(group().state_of(from));
  packet.tag = probe_id;
  send_packet(from, addr_[to], packet);
  // The loss surrogate: if no reply claimed this probe id by the
  // deadline, it resolves as lost -- whether the request leg, the reply
  // leg, a crashed target, or an emulated drop ate it.
  queue().schedule_in(options_.probe_timeout, kProbeTimeout, from, probe_id);
}

void NetSimulator::on_transport_event(const sim::Event& event) {
  switch (event.kind) {
    case kProbeTimeout: {
      Node& owner = nodes_[event.a];
      const auto it = owner.pending.find(event.b);
      if (it == owner.pending.end()) return;  // answered in time
      const ProbeSlot expired = it->second.probe;
      owner.pending.erase(it);
      ++stats_.probe_timeouts;
      resolve_probe(expired, std::nullopt);
      return;
    }
    case kJoinRetry: {
      const Node& joining = nodes_[event.a];
      if (joining.active || joining.incarnation != event.b) {
        return;  // acked, or superseded by a rejoin
      }
      begin_join(event.a, joining.join_tries_left - 1);
      return;
    }
    default:
      throw std::logic_error("NetSimulator: unknown event kind");
  }
}

void NetSimulator::send_push(sim::ProcessId from, sim::ProcessId to,
                             std::size_t action) {
  const core::PushAction& push = push_action(action);
  Packet packet;
  packet.type = PacketType::Push;
  packet.state = static_cast<std::uint8_t>(group().state_of(from));
  packet.arg0 = static_cast<std::uint32_t>(push.target_state);
  packet.arg1 = static_cast<std::uint32_t>(push.to_state);
  packet.arg2 = coin_to_q32(push.coin_bias);
  send_packet(from, addr_[to], packet);
}

bool NetSimulator::send_token(sim::ProcessId from, sim::ProcessId to,
                              const Token& token) {
  Packet packet;
  packet.type = PacketType::Token;
  packet.arg0 = static_cast<std::uint32_t>(token.token_state);
  packet.arg1 = static_cast<std::uint32_t>(token.to_state);
  packet.arg2 = token.hops_left;
  return send_packet(from, addr_[to], packet);
}

// ---------------------------------------------------------------------
// Node lifecycle: crashes close sockets, recoveries rebind and handshake.

void NetSimulator::node_down(sim::ProcessId pid, bool graceful) {
  if (graceful) {
    // Churn departures announce themselves before going dark; the Leave
    // is informational (peers already absorb silent exits via timeouts).
    Packet leave;
    leave.type = PacketType::Leave;
    for (unsigned k = 0; k < kHandshakeFanout; ++k) {
      send_packet(pid, addr_[group().random_target(pid, rng())], leave);
    }
  }
  // The port goes silent mid-flight: in-flight probes to it time out.
  Node& node = nodes_[pid];
  node.active = false;
  node.socket.close();
}

bool NetSimulator::node_up(sim::ProcessId pid) {
  Node& node = nodes_[pid];
  // Rebind the home port if it is still free (peers cache endpoints);
  // otherwise take a fresh ephemeral port and republish the address.
  try {
    node.socket = UdpSocket::bind_loopback(node.home_port);
  } catch (const std::system_error&) {
    node.socket = UdpSocket::bind_loopback();
  }
  addr_[pid] = loopback_endpoint(node.socket.port());
  ++node.incarnation;
  begin_join(pid, kJoinRetries);
  return false;  // the timer starts once a peer acks the Join
}

void NetSimulator::begin_join(sim::ProcessId pid, unsigned tries_left) {
  Node& node = nodes_[pid];
  if (!group().alive(pid) || node.active) return;
  node.join_tries_left = tries_left;
  if (tries_left == 0) {
    // No live peer answered (possibly none exists): activate alone, like
    // the first node of a bootstrapping group.
    node.active = true;
    activate(pid);
    return;
  }
  Packet join;
  join.type = PacketType::Join;
  join.tag = node.incarnation;
  for (unsigned k = 0; k < kHandshakeFanout; ++k) {
    send_packet(pid, addr_[group().random_target(pid, rng())], join);
  }
  queue().schedule_in(options_.probe_timeout, kJoinRetry, pid,
                      node.incarnation);
}

void NetSimulator::kill_node(sim::ProcessId pid) {
  if (pid < nodes_.size()) crash_process(pid);
}

NetStats NetSimulator::net_stats() const {
  NetStats stats = stats_;
  for (const Node& node : nodes_) {
    stats.reordered += node.tracker.reordered();
    stats.duplicates += node.tracker.duplicates();
  }
  return stats;
}

std::uint16_t NetSimulator::port_of(sim::ProcessId pid) const {
  return nodes_.at(pid).socket.port();
}

void NetSimulator::watch_fd(int fd, std::function<void()> on_readable) {
  watched_.push_back(WatchedFd{fd, std::move(on_readable)});
}

}  // namespace deproto::net
