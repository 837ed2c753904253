#include "wire/icmpv6.h"

#include <algorithm>
#include <cstring>

namespace scent::wire {
namespace {

constexpr std::size_t kMinMtu = 1280;
constexpr std::size_t kIcmpErrorHeaderSize = 8;  // type, code, cksum, unused
constexpr std::uint16_t kEchoBodySize = 8;       // type, code, cksum, id, seq

/// Sizes `out` to the whole packet (its capacity is kept) and writes the
/// IPv6 header of a packet carrying `icmp_size` bytes of ICMPv6 at offset 0.
/// Returns a pointer to the ICMPv6 message at kIpv6HeaderSize, which the
/// caller fills completely.
std::uint8_t* begin_packet(Packet& out, net::Ipv6Address source,
                           net::Ipv6Address destination, std::uint8_t hop_limit,
                           std::size_t icmp_size) {
  out.resize(kIpv6HeaderSize + icmp_size);
  Ipv6Header ip;
  ip.source = source;
  ip.destination = destination;
  ip.hop_limit = hop_limit;
  ip.payload_length = static_cast<std::uint16_t>(icmp_size);
  ip.write(std::span<std::uint8_t, kIpv6HeaderSize>{out.data(),
                                                     kIpv6HeaderSize});
  return out.data() + kIpv6HeaderSize;
}

/// Computes the ICMPv6 checksum over the pseudo-header and the message
/// (whose checksum field is zero), and stores it in bytes 2-3 of it.
void patch_checksum(Packet& out, net::Ipv6Address source,
                    net::Ipv6Address destination) {
  const auto icmp = std::span<std::uint8_t>{out}.subspan(kIpv6HeaderSize);
  store_u16(icmp.data() + 2, icmpv6_checksum(source, destination, icmp));
}

void build_echo_into(Packet& out, Icmpv6Type type, net::Ipv6Address source,
                     net::Ipv6Address destination, std::uint16_t identifier,
                     std::uint16_t sequence, std::uint8_t hop_limit) {
  std::uint8_t* icmp =
      begin_packet(out, source, destination, hop_limit, kEchoBodySize);
  // type, code, zero checksum placeholder, identifier, sequence.
  store_u32(icmp, static_cast<std::uint32_t>(type) << 24);
  store_u16(icmp + 4, identifier);
  store_u16(icmp + 6, sequence);
  patch_checksum(out, source, destination);
}

}  // namespace

Packet build_echo_request(net::Ipv6Address source, net::Ipv6Address destination,
                          std::uint16_t identifier, std::uint16_t sequence,
                          std::uint8_t hop_limit) {
  Packet packet;
  build_echo_request_into(packet, source, destination, identifier, sequence,
                          hop_limit);
  return packet;
}

void build_echo_request_into(Packet& out, net::Ipv6Address source,
                             net::Ipv6Address destination,
                             std::uint16_t identifier, std::uint16_t sequence,
                             std::uint8_t hop_limit) {
  build_echo_into(out, Icmpv6Type::kEchoRequest, source, destination,
                  identifier, sequence, hop_limit);
}

Packet build_echo_reply(net::Ipv6Address source, net::Ipv6Address destination,
                        std::uint16_t identifier, std::uint16_t sequence) {
  Packet packet;
  build_echo_reply_into(packet, source, destination, identifier, sequence);
  return packet;
}

void build_echo_reply_into(Packet& out, net::Ipv6Address source,
                           net::Ipv6Address destination,
                           std::uint16_t identifier, std::uint16_t sequence) {
  build_echo_into(out, Icmpv6Type::kEchoReply, source, destination, identifier,
                  sequence, /*hop_limit=*/64);
}

Packet build_error(net::Ipv6Address source, net::Ipv6Address destination,
                   Icmpv6Type error_type, std::uint8_t code,
                   std::span<const std::uint8_t> invoking_packet) {
  Packet packet;
  build_error_into(packet, source, destination, error_type, code,
                   invoking_packet);
  return packet;
}

void build_error_into(Packet& out, net::Ipv6Address source,
                      net::Ipv6Address destination, Icmpv6Type error_type,
                      std::uint8_t code,
                      std::span<const std::uint8_t> invoking_packet) {
  // RFC 4443 s2.4(c): include as much of the invoking packet as fits
  // without exceeding the minimum IPv6 MTU.
  const std::size_t budget =
      kMinMtu - kIpv6HeaderSize - kIcmpErrorHeaderSize;
  const std::size_t quoted = std::min(invoking_packet.size(), budget);

  std::uint8_t* icmp = begin_packet(out, source, destination, 64,
                                    kIcmpErrorHeaderSize + quoted);
  // type, code, zero checksum placeholder; then the unused/reserved word.
  store_u32(icmp, static_cast<std::uint32_t>(error_type) << 24 |
                      static_cast<std::uint32_t>(code) << 16);
  store_u32(icmp + 4, 0);
  if (quoted != 0) {
    std::memcpy(icmp + kIcmpErrorHeaderSize, invoking_packet.data(), quoted);
  }
  patch_checksum(out, source, destination);
}

std::optional<ParsedPacket> parse_packet(std::span<const std::uint8_t> bytes) {
  ParsedPacket parsed;
  if (!parse_packet_into(bytes, parsed)) return std::nullopt;
  return parsed;
}

bool parse_packet_into(std::span<const std::uint8_t> bytes,
                       ParsedPacket& out) {
  const auto ip = Ipv6Header::parse(bytes);
  if (!ip || ip->next_header != kNextHeaderIcmpv6) return false;

  const auto icmp = bytes.subspan(kIpv6HeaderSize);
  if (icmp.size() < 8 || icmp.size() != ip->payload_length) return false;
  if (!icmpv6_checksum_ok(ip->source, ip->destination, icmp)) return false;

  const std::uint8_t raw_type = icmp[0];
  switch (raw_type) {
    case 1:
    case 2:
    case 3:
    case 4:
    case 128:
    case 129:
      break;
    default:
      return false;  // types we never emit
  }

  // Every field is written on success, so nothing from a previous parse
  // into the same `out` survives; the quote reuses invoking_packet's
  // capacity. Bytes 2-3 are the checksum, already verified.
  Icmpv6Message& msg = out.icmp;
  out.ip = *ip;
  msg.type = static_cast<Icmpv6Type>(raw_type);
  msg.code = icmp[1];
  if (msg.is_error()) {
    // Bytes 4-7: unused / MTU / pointer field; the quote follows.
    const auto quote = icmp.subspan(kIcmpErrorHeaderSize);
    msg.identifier = 0;
    msg.sequence = 0;
    msg.invoking_packet.assign(quote.begin(), quote.end());
  } else {
    msg.identifier = load_u16(icmp.data() + 4);
    msg.sequence = load_u16(icmp.data() + 6);
    msg.invoking_packet.clear();
  }
  return true;
}

std::optional<InvokingProbe> extract_invoking_probe(
    const Icmpv6Message& error) {
  if (!error.is_error()) return std::nullopt;
  const std::span<const std::uint8_t> quote{error.invoking_packet};
  const auto inner_ip = Ipv6Header::parse(quote);
  if (!inner_ip) return std::nullopt;

  InvokingProbe probe;
  probe.target = inner_ip->destination;
  // The quoted packet may be truncated before the echo fields; identifier
  // and sequence are best-effort. They sit at bytes 4-7 of the inner echo
  // (after type, code and checksum).
  const auto inner = quote.subspan(kIpv6HeaderSize);
  if (inner_ip->next_header == kNextHeaderIcmpv6 && inner.size() >= 8) {
    probe.identifier = load_u16(inner.data() + 4);
    probe.sequence = load_u16(inner.data() + 6);
  }
  return probe;
}

}  // namespace scent::wire
