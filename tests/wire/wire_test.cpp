// Tests for the wire layer: buffer codecs, checksums, IPv6/ICMPv6 packets.
#include <gtest/gtest.h>

#include "wire/buffer.h"
#include "wire/checksum.h"
#include "wire/icmpv6.h"
#include "wire/ipv6_header.h"

namespace scent::wire {
namespace {

net::Ipv6Address addr(const char* text) {
  return *net::Ipv6Address::parse(text);
}

// ---- BufferWriter / BufferReader ---------------------------------------

TEST(Buffer, WriterProducesNetworkOrder) {
  std::vector<std::uint8_t> bytes;
  BufferWriter w{bytes};
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090a0b0c0d0e0fULL);
  ASSERT_EQ(bytes.size(), 15u);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[i], i + 1) << "byte " << i;
  }
}

TEST(Buffer, ReaderRoundTripsWriter) {
  std::vector<std::uint8_t> bytes;
  BufferWriter w{bytes};
  w.u8(0xab);
  w.u16(0xcdef);
  w.u32(0x12345678);
  w.u64(0x9abcdef011223344ULL);
  BufferReader r{bytes};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xcdef);
  EXPECT_EQ(r.u32(), 0x12345678u);
  EXPECT_EQ(r.u64(), 0x9abcdef011223344ULL);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.remaining().empty());
}

TEST(Buffer, ReaderSetsStickyErrorOnTruncation) {
  const std::vector<std::uint8_t> bytes{0x01};
  BufferReader r{bytes};
  EXPECT_EQ(r.u16(), 0u);
  EXPECT_FALSE(r.ok());
  // Error is sticky: subsequent reads remain flagged.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Buffer, ReaderBytesViewAndTruncation) {
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4};
  BufferReader r{bytes};
  const auto view = r.bytes(3);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[2], 3);
  EXPECT_TRUE(r.bytes(2).empty());
  EXPECT_FALSE(r.ok());
}

TEST(Buffer, PatchU16) {
  std::vector<std::uint8_t> bytes;
  BufferWriter w{bytes};
  w.u32(0);
  w.patch_u16(1, 0xbeef);
  EXPECT_EQ(bytes[1], 0xbe);
  EXPECT_EQ(bytes[2], 0xef);
}

// ---- Checksum ------------------------------------------------------------

TEST(Checksum, Rfc1071ReferenceVector) {
  // RFC 1071 example words 0x0001 0xf203 0xf4f5 0xf6f7: sum 0x2ddf0,
  // folded 0xddf2, complement 0x220d.
  ChecksumAccumulator acc;
  acc.add_u16(0x0001);
  acc.add_u16(0xf203);
  acc.add_u16(0xf4f5);
  acc.add_u16(0xf6f7);
  EXPECT_EQ(acc.finalize(), 0x220d);
}

TEST(Checksum, OddByteIsPaddedWithZero) {
  ChecksumAccumulator a;
  const std::uint8_t odd[] = {0x12, 0x34, 0x56};
  a.add_bytes(odd);
  ChecksumAccumulator b;
  b.add_u16(0x1234);
  b.add_u16(0x5600);
  EXPECT_EQ(a.finalize(), b.finalize());
}

TEST(Checksum, ZeroResultTransmitsAsAllOnes) {
  ChecksumAccumulator acc;
  acc.add_u16(0xffff);
  EXPECT_EQ(acc.finalize(), 0xffff);
}

TEST(Checksum, Icmpv6PseudoHeaderDependsOnAddresses) {
  const std::uint8_t msg[] = {128, 0, 0, 0, 0, 1, 0, 1};
  const auto c1 = icmpv6_checksum(addr("2001:db8::1"), addr("2001:db8::2"), msg);
  const auto c2 = icmpv6_checksum(addr("2001:db8::1"), addr("2001:db8::3"), msg);
  EXPECT_NE(c1, c2);
}

// ---- IPv6 header ----------------------------------------------------------

TEST(Ipv6Header, SerializeParseRoundTrip) {
  Ipv6Header h;
  h.traffic_class = 0xab;
  h.flow_label = 0x12345;
  h.payload_length = 64;
  h.hop_limit = 3;
  h.source = addr("2001:db8::1");
  h.destination = addr("2003:e2::42");

  std::vector<std::uint8_t> bytes;
  BufferWriter w{bytes};
  h.serialize(w);
  ASSERT_EQ(bytes.size(), kIpv6HeaderSize);
  EXPECT_EQ(bytes[0] >> 4, 6);  // version

  BufferReader r{bytes};
  const auto parsed = Ipv6Header::parse(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->traffic_class, 0xab);
  EXPECT_EQ(parsed->flow_label, 0x12345u);
  EXPECT_EQ(parsed->payload_length, 64);
  EXPECT_EQ(parsed->hop_limit, 3);
  EXPECT_EQ(parsed->source, h.source);
  EXPECT_EQ(parsed->destination, h.destination);
}

TEST(Ipv6Header, ParseRejectsWrongVersion) {
  std::vector<std::uint8_t> bytes(kIpv6HeaderSize, 0);
  bytes[0] = 0x40;  // version 4
  BufferReader r{bytes};
  EXPECT_FALSE(Ipv6Header::parse(r).has_value());
}

TEST(Ipv6Header, ParseRejectsTruncation) {
  const std::vector<std::uint8_t> bytes(kIpv6HeaderSize - 1, 0x60);
  BufferReader r{bytes};
  EXPECT_FALSE(Ipv6Header::parse(r).has_value());
}

// ---- ICMPv6 packets -------------------------------------------------------

TEST(Icmpv6, EchoRequestRoundTrip) {
  const auto pkt = build_echo_request(addr("2001:db8::1"),
                                      addr("2001:16b8:2:300::42"), 0x5C37,
                                      7, 64);
  const auto parsed = parse_packet(pkt);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->icmp.type, Icmpv6Type::kEchoRequest);
  EXPECT_EQ(parsed->icmp.identifier, 0x5C37);
  EXPECT_EQ(parsed->icmp.sequence, 7);
  EXPECT_EQ(parsed->ip.hop_limit, 64);
  EXPECT_EQ(parsed->ip.source, addr("2001:db8::1"));
  EXPECT_EQ(parsed->ip.destination, addr("2001:16b8:2:300::42"));
  EXPECT_FALSE(parsed->icmp.is_error());
}

/// A reused scratch packet: larger than any message and full of 0xAA, so
/// an `_into` builder that failed to clear it, or wrote short, would show.
Packet dirty_scratch() { return Packet(2048, 0xAA); }

TEST(Icmpv6, EchoReplyRoundTrip) {
  const auto pkt =
      build_echo_reply(addr("2001:db8::2"), addr("2001:db8::1"), 1, 2);
  const auto parsed = parse_packet(pkt);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->icmp.type, Icmpv6Type::kEchoReply);

  Packet scratch = dirty_scratch();
  build_echo_reply_into(scratch, addr("2001:db8::2"), addr("2001:db8::1"), 1,
                        2);
  EXPECT_EQ(scratch, pkt);
}

TEST(Icmpv6, ParsePacketIntoNeverLeaksStaleFields) {
  // One ParsedPacket reused across error -> echo reply -> error: each parse
  // must set every field, whatever the previous one left behind.
  const auto request = build_echo_request(addr("2001:db8::1"),
                                          addr("2a02:580:7::9"), 11, 22, 64);
  const auto error = build_error(addr("2a02:580:7::1"), addr("2001:db8::1"),
                                 Icmpv6Type::kDestinationUnreachable, 3,
                                 request);
  const auto reply =
      build_echo_reply(addr("2a02:580:7::5"), addr("2001:db8::1"), 33, 44);
  const auto other_error =
      build_error(addr("2a02:580:7::2"), addr("2001:db8::1"),
                  Icmpv6Type::kTimeExceeded, 0, request);

  ParsedPacket parsed;
  ASSERT_TRUE(parse_packet_into(error, parsed));
  EXPECT_EQ(parsed.icmp.type, Icmpv6Type::kDestinationUnreachable);
  EXPECT_EQ(parsed.icmp.code, 3);
  EXPECT_EQ(parsed.icmp.identifier, 0);
  EXPECT_EQ(parsed.icmp.sequence, 0);
  EXPECT_EQ(parsed.icmp.invoking_packet, request);
  EXPECT_EQ(parsed.ip.source, addr("2a02:580:7::1"));

  ASSERT_TRUE(parse_packet_into(reply, parsed));
  EXPECT_EQ(parsed.icmp.type, Icmpv6Type::kEchoReply);
  EXPECT_EQ(parsed.icmp.code, 0);
  EXPECT_EQ(parsed.icmp.identifier, 33);
  EXPECT_EQ(parsed.icmp.sequence, 44);
  EXPECT_TRUE(parsed.icmp.invoking_packet.empty());
  EXPECT_EQ(parsed.ip.source, addr("2a02:580:7::5"));

  ASSERT_TRUE(parse_packet_into(other_error, parsed));
  EXPECT_EQ(parsed.icmp.type, Icmpv6Type::kTimeExceeded);
  EXPECT_EQ(parsed.icmp.code, 0);
  EXPECT_EQ(parsed.icmp.identifier, 0);
  EXPECT_EQ(parsed.icmp.sequence, 0);
  EXPECT_EQ(parsed.icmp.invoking_packet, request);
  EXPECT_EQ(parsed.ip.source, addr("2a02:580:7::2"));

  // Each reuse agrees with a fresh parse, field for field.
  const auto fresh = parse_packet(other_error);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(parsed.ip.source, fresh->ip.source);
  EXPECT_EQ(parsed.ip.destination, fresh->ip.destination);
  EXPECT_EQ(parsed.ip.hop_limit, fresh->ip.hop_limit);
  EXPECT_EQ(parsed.ip.payload_length, fresh->ip.payload_length);
  EXPECT_EQ(parsed.icmp.invoking_packet, fresh->icmp.invoking_packet);
}

TEST(Icmpv6, CorruptedChecksumRejected) {
  auto pkt = build_echo_request(addr("2001:db8::1"), addr("2001:db8::2"), 1,
                                1, 64);
  pkt[kIpv6HeaderSize + 2] ^= 0x01;  // flip a checksum bit
  EXPECT_FALSE(parse_packet(pkt).has_value());
}

TEST(Icmpv6, CorruptedPayloadRejected) {
  auto pkt = build_echo_request(addr("2001:db8::1"), addr("2001:db8::2"), 1,
                                1, 64);
  pkt.back() ^= 0xff;
  EXPECT_FALSE(parse_packet(pkt).has_value());
}

TEST(Icmpv6, TruncatedPacketRejected) {
  auto pkt = build_echo_request(addr("2001:db8::1"), addr("2001:db8::2"), 1,
                                1, 64);
  pkt.pop_back();
  EXPECT_FALSE(parse_packet(pkt).has_value());
}

TEST(Icmpv6, UnknownTypeRejected) {
  // Build a syntactically valid packet with type 200 and a correct
  // checksum; the parser only accepts the subset this system exchanges.
  std::vector<std::uint8_t> body{200, 0, 0, 0, 0, 0, 0, 0};
  Ipv6Header ip;
  ip.source = addr("2001:db8::1");
  ip.destination = addr("2001:db8::2");
  ip.payload_length = static_cast<std::uint16_t>(body.size());
  std::vector<std::uint8_t> pkt;
  BufferWriter w{pkt};
  ip.serialize(w);
  const std::size_t off = pkt.size();
  w.bytes(body);
  w.patch_u16(off + 2, icmpv6_checksum(ip.source, ip.destination,
                                       std::span<const std::uint8_t>{pkt}
                                           .subspan(off)));
  EXPECT_FALSE(parse_packet(pkt).has_value());
}

TEST(Icmpv6, ErrorQuotesInvokingPacketAndExtractsProbe) {
  const auto request = build_echo_request(
      addr("2001:db8::1"), addr("2001:16b8:100:5600:dead:beef:1234:5678"),
      0x5C37, 99, 64);
  const auto error = build_error(
      addr("2001:16b8:100:5600:3a10:d5ff:feaa:bbcc"), addr("2001:db8::1"),
      Icmpv6Type::kDestinationUnreachable,
      static_cast<std::uint8_t>(UnreachableCode::kAdminProhibited), request);

  const auto parsed = parse_packet(error);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->icmp.is_error());
  EXPECT_EQ(parsed->icmp.code, 1);
  EXPECT_EQ(parsed->ip.source,
            addr("2001:16b8:100:5600:3a10:d5ff:feaa:bbcc"));

  const auto invoking = extract_invoking_probe(parsed->icmp);
  ASSERT_TRUE(invoking.has_value());
  EXPECT_EQ(invoking->target,
            addr("2001:16b8:100:5600:dead:beef:1234:5678"));
  EXPECT_EQ(invoking->identifier, 0x5C37);
  EXPECT_EQ(invoking->sequence, 99);
}

TEST(Icmpv6, ErrorTruncatesQuoteToMinimumMtu) {
  // An oversized invoking packet must be truncated so the error fits in
  // 1280 bytes (RFC 4443 s2.4(c)).
  std::vector<std::uint8_t> huge(4000, 0x5a);
  const auto error =
      build_error(addr("2001:db8::9"), addr("2001:db8::1"),
                  Icmpv6Type::kTimeExceeded, 0, huge);
  EXPECT_LE(error.size(), 1280u);
  const auto parsed = parse_packet(error);
  ASSERT_TRUE(parsed.has_value());
}

TEST(Icmpv6, ExtractInvokingProbeHandlesShallowQuote) {
  // A quote containing only the inner IPv6 header (no echo fields) still
  // yields the target, with identifier/sequence zero.
  Icmpv6Message msg;
  msg.type = Icmpv6Type::kDestinationUnreachable;
  msg.code = 0;
  Ipv6Header inner;
  inner.source = addr("2001:db8::1");
  inner.destination = addr("2001:db8:ffff::2");
  BufferWriter w{msg.invoking_packet};
  inner.serialize(w);
  const auto probe = extract_invoking_probe(msg);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->target, addr("2001:db8:ffff::2"));
  EXPECT_EQ(probe->identifier, 0);
}

TEST(Icmpv6, ExtractInvokingProbeRejectsNonError) {
  Icmpv6Message msg;
  msg.type = Icmpv6Type::kEchoReply;
  EXPECT_FALSE(extract_invoking_probe(msg).has_value());
}

TEST(Icmpv6, ExtractInvokingProbeRejectsGarbageQuote) {
  Icmpv6Message msg;
  msg.type = Icmpv6Type::kDestinationUnreachable;
  msg.invoking_packet = {0x01, 0x02, 0x03};
  EXPECT_FALSE(extract_invoking_probe(msg).has_value());
}

TEST(Icmpv6, TypeNames) {
  EXPECT_EQ(to_string(Icmpv6Type::kEchoRequest), "echo-request");
  EXPECT_EQ(to_string(Icmpv6Type::kDestinationUnreachable),
            "destination-unreachable");
  EXPECT_EQ(to_string(Icmpv6Type::kTimeExceeded), "time-exceeded");
}

/// Property: every build_error flavor parses, checksum-verifies, and
/// recovers the original probe target.
class ErrorFlavors
    : public ::testing::TestWithParam<std::pair<Icmpv6Type, std::uint8_t>> {};

TEST_P(ErrorFlavors, RoundTripsWithQuote) {
  const auto [type, code] = GetParam();
  const auto request = build_echo_request(addr("2001:db8::1"),
                                          addr("2a02:580:7::9"), 11, 22, 64);
  // The probe itself, and the probe followed by padding past the 1232-byte
  // quote budget (the RFC 4443 truncation path).
  Packet oversized = request;
  oversized.resize(1500, 0x5a);
  for (const Packet& quote : {request, oversized}) {
    const auto error =
        build_error(addr("2a02:580:7::1"), addr("2001:db8::1"), type, code,
                    quote);
    EXPECT_LE(error.size(), 1280u);
    const auto parsed = parse_packet(error);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->icmp.type, type);
    EXPECT_EQ(parsed->icmp.code, code);
    const auto probe = extract_invoking_probe(parsed->icmp);
    ASSERT_TRUE(probe.has_value());
    EXPECT_EQ(probe->target, addr("2a02:580:7::9"));

    Packet scratch = dirty_scratch();
    build_error_into(scratch, addr("2a02:580:7::1"), addr("2001:db8::1"),
                     type, code, quote);
    EXPECT_EQ(scratch, error);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFlavors, ErrorFlavors,
    ::testing::Values(
        std::pair{Icmpv6Type::kDestinationUnreachable, std::uint8_t{0}},
        std::pair{Icmpv6Type::kDestinationUnreachable, std::uint8_t{1}},
        std::pair{Icmpv6Type::kDestinationUnreachable, std::uint8_t{3}},
        std::pair{Icmpv6Type::kTimeExceeded, std::uint8_t{0}}));

}  // namespace
}  // namespace scent::wire
