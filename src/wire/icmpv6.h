// icmpv6.h - ICMPv6 (RFC 4443) message types used by the measurement system.
//
// The prober sends Echo Requests to nonexistent hosts inside customer
// subnets; the CPE answers with Destination Unreachable (various codes) or
// Hop Limit Exceeded errors whose *source address* is the CPE WAN interface.
// Which error flavor arrives depends on the CPE operating system; the paper
// notes the specific type/code does not matter — every flavor leaks the CPE
// address. This header models exactly the subset of ICMPv6 the pipeline
// exchanges, as real bytes with valid checksums.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "netbase/ipv6_address.h"
#include "wire/buffer.h"
#include "wire/checksum.h"
#include "wire/ipv6_header.h"

namespace scent::wire {

enum class Icmpv6Type : std::uint8_t {
  kDestinationUnreachable = 1,
  kPacketTooBig = 2,
  kTimeExceeded = 3,
  kParameterProblem = 4,
  kEchoRequest = 128,
  kEchoReply = 129,
};

/// RFC 4443 s3.1 Destination Unreachable codes observed in the wild by the
/// paper's campaign (§3.1).
enum class UnreachableCode : std::uint8_t {
  kNoRoute = 0,
  kAdminProhibited = 1,
  kBeyondScope = 2,
  kAddressUnreachable = 3,
  kPortUnreachable = 4,
};

enum class TimeExceededCode : std::uint8_t {
  kHopLimitExceeded = 0,
  kFragmentReassembly = 1,
};

[[nodiscard]] constexpr std::string_view to_string(Icmpv6Type t) noexcept {
  switch (t) {
    case Icmpv6Type::kDestinationUnreachable: return "destination-unreachable";
    case Icmpv6Type::kPacketTooBig: return "packet-too-big";
    case Icmpv6Type::kTimeExceeded: return "time-exceeded";
    case Icmpv6Type::kParameterProblem: return "parameter-problem";
    case Icmpv6Type::kEchoRequest: return "echo-request";
    case Icmpv6Type::kEchoReply: return "echo-reply";
  }
  return "unknown";
}

/// A parsed ICMPv6 message. Echo messages carry identifier/sequence;
/// error messages carry the leading bytes of the invoking packet, from which
/// the original probe target is recovered.
struct Icmpv6Message {
  Icmpv6Type type = Icmpv6Type::kEchoRequest;
  std::uint8_t code = 0;

  // Echo request/reply fields.
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;

  // Error-message payload: the invoking packet (IPv6 header + as much of the
  // payload as fits under the minimum MTU).
  std::vector<std::uint8_t> invoking_packet;

  [[nodiscard]] bool is_error() const noexcept {
    return static_cast<std::uint8_t>(type) < 128;
  }
};

/// A full probe-sized IPv6+ICMPv6 packet as bytes.
using Packet = std::vector<std::uint8_t>;

/// Builds an ICMPv6 Echo Request packet (IPv6 header + ICMPv6) with a valid
/// checksum. `identifier`/`sequence` let the prober match replies to probes.
[[nodiscard]] Packet build_echo_request(net::Ipv6Address source,
                                        net::Ipv6Address destination,
                                        std::uint16_t identifier,
                                        std::uint16_t sequence,
                                        std::uint8_t hop_limit = 64);

/// The `_into` builders serialize straight into `out`: it is resized to the
/// packet once (its capacity is kept), every field is stored at its fixed
/// offset, and the checksum is patched in place. This is the
/// allocation-free path of wire-mode sweeps — the prober and the simulated
/// Internet reuse one scratch Packet each for millions of probes. The
/// returning builders are thin wrappers producing the same bytes.
void build_echo_request_into(Packet& out, net::Ipv6Address source,
                             net::Ipv6Address destination,
                             std::uint16_t identifier, std::uint16_t sequence,
                             std::uint8_t hop_limit = 64);

/// Builds an Echo Reply mirroring a request.
[[nodiscard]] Packet build_echo_reply(net::Ipv6Address source,
                                      net::Ipv6Address destination,
                                      std::uint16_t identifier,
                                      std::uint16_t sequence);
void build_echo_reply_into(Packet& out, net::Ipv6Address source,
                           net::Ipv6Address destination,
                           std::uint16_t identifier, std::uint16_t sequence);

/// Builds an ICMPv6 error (Destination Unreachable or Time Exceeded) quoting
/// the invoking packet, truncated so the whole error fits in the IPv6
/// minimum MTU of 1280 bytes (RFC 4443 s2.4(c)).
[[nodiscard]] Packet build_error(net::Ipv6Address source,
                                 net::Ipv6Address destination,
                                 Icmpv6Type error_type, std::uint8_t code,
                                 std::span<const std::uint8_t> invoking_packet);
void build_error_into(Packet& out, net::Ipv6Address source,
                      net::Ipv6Address destination, Icmpv6Type error_type,
                      std::uint8_t code,
                      std::span<const std::uint8_t> invoking_packet);

/// A fully parsed packet: outer IPv6 header plus ICMPv6 message.
struct ParsedPacket {
  Ipv6Header ip;
  Icmpv6Message icmp;
};

/// Parses and checksum-verifies a packet. Returns nullopt for anything
/// malformed: wrong version, non-ICMPv6 next header, truncation, or a bad
/// checksum. Never throws — garbage input is expected on a measurement path.
[[nodiscard]] std::optional<ParsedPacket> parse_packet(
    std::span<const std::uint8_t> bytes);

/// Same, into caller-owned storage: on success every field of `out` is set
/// (identifier/sequence are 0 for errors, invoking_packet is empty for echo
/// messages) and the quote reuses invoking_packet's capacity. Returns false
/// for a malformed packet, leaving `out` unspecified.
[[nodiscard]] bool parse_packet_into(std::span<const std::uint8_t> bytes,
                                     ParsedPacket& out);

/// Extracts the original probe destination from an error message's quoted
/// invoking packet, plus the echo identifier/sequence when the quote is deep
/// enough. This is how the pipeline recovers the <target, response> pair:
/// the *response* source is the CPE, the quoted *target* is the probed
/// address.
struct InvokingProbe {
  net::Ipv6Address target;
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;
};

[[nodiscard]] std::optional<InvokingProbe> extract_invoking_probe(
    const Icmpv6Message& error);

}  // namespace scent::wire
