#include "wire/icmpv6.h"

#include <algorithm>

namespace scent::wire {
namespace {

constexpr std::size_t kMinMtu = 1280;
constexpr std::size_t kIcmpErrorHeaderSize = 8;  // type, code, cksum, unused
constexpr std::uint16_t kEchoBodySize = 8;       // type, code, cksum, id, seq

/// Clears `out` (keeping its capacity) and serializes the IPv6 header of a
/// packet carrying `icmp_size` bytes of ICMPv6. Returns the ICMPv6 offset.
std::size_t begin_packet(Packet& out, net::Ipv6Address source,
                         net::Ipv6Address destination, std::uint8_t hop_limit,
                         std::size_t icmp_size) {
  out.clear();
  out.reserve(kIpv6HeaderSize + icmp_size);
  Ipv6Header ip;
  ip.source = source;
  ip.destination = destination;
  ip.hop_limit = hop_limit;
  ip.payload_length = static_cast<std::uint16_t>(icmp_size);
  BufferWriter w{out};
  ip.serialize(w);
  return out.size();
}

/// Computes the ICMPv6 checksum over the pseudo-header and the message at
/// `icmp_offset`, and patches it into bytes 2-3 of that message.
void patch_checksum(Packet& out, std::size_t icmp_offset,
                    net::Ipv6Address source, net::Ipv6Address destination) {
  const std::uint16_t cksum = icmpv6_checksum(
      source, destination,
      std::span<const std::uint8_t>{out}.subspan(icmp_offset));
  BufferWriter{out}.patch_u16(icmp_offset + 2, cksum);
}

void build_echo_into(Packet& out, Icmpv6Type type, net::Ipv6Address source,
                     net::Ipv6Address destination, std::uint16_t identifier,
                     std::uint16_t sequence, std::uint8_t hop_limit) {
  const std::size_t icmp_offset =
      begin_packet(out, source, destination, hop_limit, kEchoBodySize);
  BufferWriter w{out};
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);   // code
  w.u16(0);  // checksum placeholder
  w.u16(identifier);
  w.u16(sequence);
  patch_checksum(out, icmp_offset, source, destination);
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

  const std::size_t icmp_offset = begin_packet(
      out, source, destination, 64, kIcmpErrorHeaderSize + quoted);
  BufferWriter w{out};
  w.u8(static_cast<std::uint8_t>(error_type));
  w.u8(code);
  w.u16(0);  // checksum placeholder
  w.u32(0);  // unused / reserved
  w.bytes(invoking_packet.subspan(0, quoted));
  patch_checksum(out, icmp_offset, source, destination);
}

std::optional<ParsedPacket> parse_packet(std::span<const std::uint8_t> bytes) {
  ParsedPacket parsed;
  if (!parse_packet_into(bytes, parsed)) return std::nullopt;
  return parsed;
}

bool parse_packet_into(std::span<const std::uint8_t> bytes,
                       ParsedPacket& out) {
  BufferReader r{bytes};
  const auto ip = Ipv6Header::parse(r);
  if (!ip || ip->next_header != kNextHeaderIcmpv6) return false;

  const auto icmp_bytes = r.remaining();
  if (icmp_bytes.size() < 8 || icmp_bytes.size() != ip->payload_length) {
    return false;
  }
  if (!icmpv6_checksum_ok(ip->source, ip->destination, icmp_bytes)) {
    return false;
  }

  BufferReader ir{icmp_bytes};
  const std::uint8_t raw_type = ir.u8();
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
  // capacity.
  Icmpv6Message& msg = out.icmp;
  out.ip = *ip;
  msg.type = static_cast<Icmpv6Type>(raw_type);
  msg.code = ir.u8();
  (void)ir.u16();  // checksum, already verified
  if (msg.is_error()) {
    (void)ir.u32();  // unused / MTU / pointer field
    const auto quote = ir.remaining();
    msg.identifier = 0;
    msg.sequence = 0;
    msg.invoking_packet.assign(quote.begin(), quote.end());
  } else {
    msg.identifier = ir.u16();
    msg.sequence = ir.u16();
    msg.invoking_packet.clear();
  }
  return ir.ok();
}

std::optional<InvokingProbe> extract_invoking_probe(
    const Icmpv6Message& error) {
  if (!error.is_error()) return std::nullopt;
  BufferReader r{error.invoking_packet};
  const auto inner_ip = Ipv6Header::parse(r);
  if (!inner_ip) return std::nullopt;

  InvokingProbe probe;
  probe.target = inner_ip->destination;
  // The quoted packet may be truncated before the echo fields; identifier
  // and sequence are best-effort.
  if (inner_ip->next_header == kNextHeaderIcmpv6 &&
      r.remaining().size() >= 8) {
    BufferReader er{r.remaining()};
    (void)er.u8();   // type
    (void)er.u8();   // code
    (void)er.u16();  // checksum
    probe.identifier = er.u16();
    probe.sequence = er.u16();
  }
  return probe;
}

}  // namespace scent::wire
