#include "net/packet.hpp"

#include <cmath>
#include <cstring>

namespace deproto::net {

namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

std::uint16_t get_u16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

std::uint64_t get_u64(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

}  // namespace

bool packet_type_known(std::uint8_t value) {
  return value >= static_cast<std::uint8_t>(PacketType::Probe) &&
         value <= static_cast<std::uint8_t>(PacketType::Leave);
}

const char* packet_type_name(PacketType type) {
  switch (type) {
    case PacketType::Probe:
      return "probe";
    case PacketType::ProbeReply:
      return "probe-reply";
    case PacketType::Push:
      return "push";
    case PacketType::Token:
      return "token";
    case PacketType::Join:
      return "join";
    case PacketType::JoinAck:
      return "join-ack";
    case PacketType::Leave:
      return "leave";
  }
  return "unknown";
}

std::uint32_t coin_to_q32(double bias) {
  if (!(bias > 0.0)) return 0;
  if (bias >= 1.0) return 0xFFFFFFFFu;
  const double scaled = std::round(bias * 4294967296.0);  // 2^32
  if (scaled >= 4294967295.0) return 0xFFFFFFFFu;
  return static_cast<std::uint32_t>(scaled);
}

double q32_to_coin(std::uint32_t q) {
  if (q == 0xFFFFFFFFu) return 1.0;
  return static_cast<double>(q) / 4294967296.0;
}

std::string encode_packet(const Packet& packet) {
  std::string out;
  out.reserve(kPacketSize);
  out.append(kPacketMagic, sizeof(kPacketMagic));
  put_u16(out, kPacketVersion);
  out.push_back(static_cast<char>(packet.type));
  out.push_back(static_cast<char>(packet.state));
  put_u32(out, packet.sender);
  put_u64(out, packet.seq);
  put_u64(out, packet.tag);
  put_u32(out, packet.arg0);
  put_u32(out, packet.arg1);
  put_u32(out, packet.arg2);
  return out;
}

DecodeStatus decode_packet(const char* data, std::size_t n, Packet* out) {
  if (n < kPacketSize) return DecodeStatus::Truncated;
  if (std::memcmp(data, kPacketMagic, sizeof(kPacketMagic)) != 0) {
    return DecodeStatus::BadMagic;
  }
  if (get_u16(data + 4) != kPacketVersion) return DecodeStatus::BadVersion;
  const auto type = static_cast<std::uint8_t>(data[6]);
  if (!packet_type_known(type)) return DecodeStatus::BadType;
  if (n > kPacketSize) return DecodeStatus::BadLength;
  out->type = static_cast<PacketType>(type);
  out->state = static_cast<std::uint8_t>(data[7]);
  out->sender = get_u32(data + 8);
  out->seq = get_u64(data + 12);
  out->tag = get_u64(data + 20);
  out->arg0 = get_u32(data + 28);
  out->arg1 = get_u32(data + 32);
  out->arg2 = get_u32(data + 36);
  return DecodeStatus::Ok;
}

SequenceTracker::Arrival SequenceTracker::observe(std::uint32_t sender,
                                                  std::uint64_t seq) {
  ++received_;
  PeerSeq& peer = peers_[sender];
  if (!peer.any) {
    peer.any = true;
    peer.highest = seq;
    peer.window = 1;
    return Arrival::InOrder;
  }
  if (seq > peer.highest) {
    const std::uint64_t shift = seq - peer.highest;
    peer.window = shift >= 64 ? 1 : (peer.window << shift) | 1;
    peer.highest = seq;
    return Arrival::InOrder;
  }
  const std::uint64_t age = peer.highest - seq;
  if (age >= 64) {
    // Too old to tell a duplicate from a straggler; count with the
    // reorders (both mean "arrived far out of order").
    ++reordered_;
    return Arrival::Stale;
  }
  const std::uint64_t bit = std::uint64_t{1} << age;
  if ((peer.window & bit) != 0) {
    ++duplicates_;
    return Arrival::Duplicate;
  }
  peer.window |= bit;
  ++reordered_;
  return Arrival::Reordered;
}

}  // namespace deproto::net
