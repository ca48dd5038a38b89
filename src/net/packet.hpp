#pragma once

// The real-network backend's datagram codec: an RFC-style fixed-layout,
// versioned packet carrying the gossip vocabulary of the synthesized
// machines (probe/reply sampling, pushes, tokens) plus the join/leave
// handshake, over UDP. Wire layout (all integers little-endian):
//
//    0  4 bytes  magic 'D' 'P' 'N' 'P'
//    4  u16      protocol version (kPacketVersion)
//    6  u8       packet type (PacketType)
//    7  u8       state -- the sender's machine state (ProbeReply: the
//                responder's state at reply time)
//    8  u32      sender node id
//   12  u64      seq -- per-sender datagram number, strictly increasing;
//                receivers run it through a SequenceTracker to measure
//                reordering and duplication
//   20  u64      tag -- probe id (Probe/ProbeReply echoes it back) or
//                join incarnation (Join/JoinAck); 0 when unused
//   28  u32      arg0 | per-type operands, see PacketType; 0 when unused
//   32  u32      arg1 |
//   36  u32      arg2 |
//   40 bytes total (kPacketSize)
//
// Decoding follows the fail-closed discipline of dist/wire: a datagram
// that violates any invariant (short, bad magic, unknown version or
// type, trailing bytes) is rejected whole with a diagnosis. Unlike the
// stream decoder there is no sticky corruption -- UDP preserves datagram
// boundaries, so one bad packet cannot desynchronize the next -- but
// every rejection is counted, never silently skipped.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

namespace deproto::net {

/// First 4 bytes of every datagram, in order: 'D' 'P' 'N' 'P'.
inline constexpr char kPacketMagic[4] = {'D', 'P', 'N', 'P'};

/// Bumped on any incompatible change to the layout, types, or operand
/// conventions. A node never interprets packets from another version.
inline constexpr std::uint16_t kPacketVersion = 1;

/// Fixed datagram size: header + operands (layout above).
inline constexpr std::size_t kPacketSize = 40;

enum class PacketType : std::uint8_t {
  /// Sampling probe: "what state are you in?". tag = probe id, echoed by
  /// the reply; the sender matches replies to pending probes by it.
  Probe = 1,
  /// Answer to a Probe: tag echoes the probe id, `state` carries the
  /// responder's machine state at reply time.
  ProbeReply = 2,
  /// Push conversion (PushAction): arg0 = target_state, arg1 = to_state,
  /// arg2 = coin bias in Q32 fixed point (see coin_to_q32). The receiver
  /// transitions iff it is alive, in target_state, and the coin hits.
  Push = 3,
  /// Token handoff (TokenizingAction): arg0 = token_state, arg1 =
  /// to_state, arg2 = hops left (random-walk routing forwards with
  /// arg2 - 1 on a miss; directory routing sends with arg2 = 0).
  Token = 4,
  /// Rejoin handshake: a recovering node announces itself. tag = its
  /// join incarnation, bumped on every rejoin so stale acks are ignored.
  Join = 5,
  /// Answer to Join: tag echoes the incarnation. Receipt of the first
  /// matching ack makes the joining node protocol-active.
  JoinAck = 6,
  /// Graceful departure (churn down-event): purely informational -- the
  /// peers' probe timeouts already treat the node as gone.
  Leave = 7,
};

/// True for the PacketType values this version defines.
[[nodiscard]] bool packet_type_known(std::uint8_t value);
[[nodiscard]] const char* packet_type_name(PacketType type);

/// Coin biases ride in 32-bit fixed point: q = round(p * 2^32 - 1)
/// clamped to [0, 2^32 - 1]; q32_to_coin inverts. Exact at 0 and 1.
[[nodiscard]] std::uint32_t coin_to_q32(double bias);
[[nodiscard]] double q32_to_coin(std::uint32_t q);

struct Packet {
  PacketType type = PacketType::Probe;
  std::uint8_t state = 0;
  std::uint32_t sender = 0;
  std::uint64_t seq = 0;
  std::uint64_t tag = 0;
  std::uint32_t arg0 = 0;
  std::uint32_t arg1 = 0;
  std::uint32_t arg2 = 0;

  friend bool operator==(const Packet&, const Packet&) = default;
};

/// Packet as wire bytes (always kPacketSize long).
[[nodiscard]] std::string encode_packet(const Packet& packet);

enum class DecodeStatus {
  Ok,
  Truncated,   ///< shorter than kPacketSize
  BadMagic,    ///< first 4 bytes are not kPacketMagic
  BadVersion,  ///< version field != kPacketVersion
  BadType,     ///< type byte outside PacketType
  BadLength,   ///< trailing bytes after the fixed layout
};

/// Validate and decode one datagram. On any status but Ok, *out is left
/// untouched; the caller counts the rejection and drops the datagram.
[[nodiscard]] DecodeStatus decode_packet(const char* data, std::size_t n,
                                         Packet* out);

/// Classifies each received (sender, seq) pair against the per-sender
/// history, RFC 3550 style: the highest sequence seen plus a 64-wide
/// bitmap window below it distinguishes late (reordered) arrivals from
/// genuine duplicates; anything older than the window is Stale.
class SequenceTracker {
 public:
  enum class Arrival { InOrder, Reordered, Duplicate, Stale };

  Arrival observe(std::uint32_t sender, std::uint64_t seq);

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  [[nodiscard]] std::uint64_t reordered() const noexcept { return reordered_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept {
    return duplicates_;
  }

 private:
  struct PeerSeq {
    std::uint64_t highest = 0;
    std::uint64_t window = 0;  // bit k set <=> (highest - k) was seen
    bool any = false;
  };

  std::unordered_map<std::uint32_t, PeerSeq> peers_;
  std::uint64_t received_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace deproto::net
