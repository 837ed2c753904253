// Tests for the wire layer: buffer codecs, checksums, IPv6/ICMPv6 packets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <utility>
#include <vector>

#include "wire/buffer.h"
#include "wire/checksum.h"
#include "wire/icmpv6.h"
#include "wire/ipv6_header.h"

namespace scent::wire {
namespace {

net::Ipv6Address addr(const char* text) {
  return *net::Ipv6Address::parse(text);
}

// ---- Fixed-offset stores / BufferReader ----------------------------------

TEST(Buffer, WriterProducesNetworkOrder) {
  std::vector<std::uint8_t> bytes(15);
  bytes[0] = 0x01;
  store_u16(bytes.data() + 1, 0x0203);
  store_u32(bytes.data() + 3, 0x04050607);
  store_u64(bytes.data() + 7, 0x08090a0b0c0d0e0fULL);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[i], i + 1) << "byte " << i;
  }
  EXPECT_EQ(load_u16(bytes.data() + 1), 0x0203);
  EXPECT_EQ(load_u32(bytes.data() + 3), 0x04050607u);
  EXPECT_EQ(load_u64(bytes.data() + 7), 0x08090a0b0c0d0e0fULL);
}

TEST(Buffer, ReaderRoundTripsWriter) {
  std::vector<std::uint8_t> bytes(15);
  bytes[0] = 0xab;
  store_u16(bytes.data() + 1, 0xcdef);
  store_u32(bytes.data() + 3, 0x12345678);
  store_u64(bytes.data() + 7, 0x9abcdef011223344ULL);
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
  // A store at an unaligned offset touches exactly its own two bytes.
  std::vector<std::uint8_t> bytes(4, 0x11);
  store_u16(bytes.data() + 1, 0xbeef);
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0x11, 0xbe, 0xef, 0x11}));
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

  std::vector<std::uint8_t> bytes(kIpv6HeaderSize + 3, 0xee);
  h.write(std::span<std::uint8_t, kIpv6HeaderSize>{bytes.data(),
                                                    kIpv6HeaderSize});
  EXPECT_EQ(bytes[0] >> 4, 6);  // version
  EXPECT_EQ(bytes[kIpv6HeaderSize], 0xee);  // nothing past the header

  const auto parsed = Ipv6Header::parse(bytes);
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
  EXPECT_FALSE(Ipv6Header::parse(bytes).has_value());
}

TEST(Ipv6Header, ParseRejectsTruncation) {
  const std::vector<std::uint8_t> bytes(kIpv6HeaderSize - 1, 0x60);
  EXPECT_FALSE(Ipv6Header::parse(bytes).has_value());
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
  std::vector<std::uint8_t> pkt(kIpv6HeaderSize);
  ip.write(std::span<std::uint8_t, kIpv6HeaderSize>{pkt.data(),
                                                     kIpv6HeaderSize});
  pkt.insert(pkt.end(), body.begin(), body.end());
  store_u16(pkt.data() + kIpv6HeaderSize + 2,
            icmpv6_checksum(ip.source, ip.destination, body));
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
  msg.invoking_packet.resize(kIpv6HeaderSize);
  inner.write(std::span<std::uint8_t, kIpv6HeaderSize>{
      msg.invoking_packet.data(), kIpv6HeaderSize});
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

// ---- Golden bytes ----------------------------------------------------------
//
// Exact packets the builders emit, pinned as hex. Any rewrite of the
// serializers (field order, checksum arithmetic, quote truncation) must
// reproduce these bytes.

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(nibble(hex[i]) << 4 |
                                            nibble(hex[i + 1])));
  }
  return out;
}

const net::Ipv6Address kGoldenVantage = addr("2001:db8::1");
const net::Ipv6Address kGoldenTarget =
    addr("2001:16b8:100:5600:dead:beef:1234:5678");
const net::Ipv6Address kGoldenCpe =
    addr("2001:16b8:100:5600:3a10:d5ff:feaa:bbcc");

Packet golden_request() {
  return build_echo_request(kGoldenVantage, kGoldenTarget, 0x5C37, 99, 64);
}

/// The probe followed by a counting pattern out to 1500 bytes: longer than
/// the 1232-byte quote budget, so the error truncates it.
Packet oversized_quote() {
  Packet quote = golden_request();
  for (std::size_t i = quote.size(); i < 1500; ++i) {
    quote.push_back(static_cast<std::uint8_t>(i * 7 + 3));
  }
  return quote;
}

constexpr std::string_view kGoldenRequestHex =
    "6000000000083a4020010db800000000"
    "0000000000000001200116b801005600"
    "deadbeef12345678800061655c370063";

constexpr std::string_view kGoldenReplyHex =
    "6000000000083a40200116b801005600"
    "3a10d5fffeaabbcc20010db800000000"
    "000000000000000181009c275c370063";

constexpr std::string_view kGoldenErrorHex =
    "6000000000383a40200116b801005600"
    "3a10d5fffeaabbcc20010db800000000"
    "00000000000000010101de8a00000000"
    "6000000000083a4020010db800000000"
    "0000000000000001200116b801005600"
    "deadbeef12345678800061655c370063";

/// The first 48 bytes (IPv6 header and ICMPv6 head, checksum included) of
/// the MTU-truncated error; the rest is the first 1232 quote bytes.
constexpr std::string_view kGoldenMtuErrorHeadHex =
    "6000000004d83a402a02058000070000"
    "000000000000000120010db800000000"
    "00000000000000010300198a00000000";

TEST(WireGolden, EchoRequestBytes) {
  EXPECT_EQ(golden_request(), from_hex(kGoldenRequestHex));
}

TEST(WireGolden, EchoReplyBytes) {
  EXPECT_EQ(build_echo_reply(kGoldenCpe, kGoldenVantage, 0x5C37, 99),
            from_hex(kGoldenReplyHex));
}

TEST(WireGolden, ErrorWithShortQuoteBytes) {
  EXPECT_EQ(build_error(kGoldenCpe, kGoldenVantage,
                        Icmpv6Type::kDestinationUnreachable, 1,
                        golden_request()),
            from_hex(kGoldenErrorHex));
}

TEST(WireGolden, ErrorTruncatedAtMinimumMtuBytes) {
  const Packet quote = oversized_quote();
  const Packet error = build_error(addr("2a02:580:7::1"), kGoldenVantage,
                                   Icmpv6Type::kTimeExceeded, 0, quote);
  ASSERT_EQ(error.size(), 1280u);
  Packet expected = from_hex(kGoldenMtuErrorHeadHex);
  expected.insert(expected.end(), quote.begin(), quote.begin() + 1232);
  EXPECT_EQ(error, expected);
}

// ---- Checksum against a per-word reference ------------------------------

/// RFC 1071 done the textbook way: one big-endian 16-bit word at a time,
/// a trailing odd byte padded with zero, carries folded at the end, and
/// (as ICMPv6 transmits) an all-zero result sent as 0xffff.
std::uint16_t reference_checksum(std::span<const std::uint8_t> data) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < data.size(); i += 2) {
    const std::uint16_t hi = data[i];
    const std::uint16_t lo = i + 1 < data.size() ? data[i + 1] : 0;
    sum += static_cast<std::uint16_t>(hi << 8 | lo);
  }
  while ((sum >> 16) != 0) sum = (sum & 0xffff) + (sum >> 16);
  const auto folded = static_cast<std::uint16_t>(~sum);
  return folded == 0 ? 0xffff : folded;
}

TEST(Checksum, AddBytesMatchesPerWordReference) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  std::vector<std::uint8_t> random(1280);
  for (auto& b : random) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<std::uint8_t>(state >> 56);
  }
  const std::vector<std::uint8_t> zeros(1280, 0x00);
  const std::vector<std::uint8_t> ones(1280, 0xff);
  for (const std::vector<std::uint8_t>* data :
       {&std::as_const(random), &zeros, &ones}) {
    for (std::size_t n = 0; n <= data->size(); ++n) {
      const std::span<const std::uint8_t> bytes{data->data(), n};
      ChecksumAccumulator acc;
      acc.add_bytes(bytes);
      ASSERT_EQ(acc.finalize(), reference_checksum(bytes))
          << "length " << n << ", first byte " << int{(*data)[0]};
    }
  }
}


// ---- Decoder mutation --------------------------------------------------
//
// parse_packet_into must never accept a packet it would misread: every
// mutant of a golden packet either fails to parse, or parses to fields
// that serialize back to exactly the mutant's bytes. Under ASan/UBSan this
// also exercises every fixed-offset load against truncated input.

/// Serializes a parsed packet back to bytes, carrying every field the
/// parser keeps (traffic class, flow label and hop limit included). Like
/// any serializer it derives payload_length from the message it writes.
Packet reserialize(const ParsedPacket& parsed) {
  const Icmpv6Message& icmp = parsed.icmp;
  const std::size_t icmp_size =
      8 + (icmp.is_error() ? icmp.invoking_packet.size() : 0);
  Packet out(kIpv6HeaderSize + icmp_size);
  Ipv6Header ip = parsed.ip;
  ip.payload_length = static_cast<std::uint16_t>(icmp_size);
  ip.write(
      std::span<std::uint8_t, kIpv6HeaderSize>{out.data(), kIpv6HeaderSize});
  std::uint8_t* body = out.data() + kIpv6HeaderSize;
  body[0] = static_cast<std::uint8_t>(icmp.type);
  body[1] = icmp.code;
  if (icmp.is_error()) {
    std::copy(icmp.invoking_packet.begin(), icmp.invoking_packet.end(),
              body + 8);
  } else {
    store_u16(body + 4, icmp.identifier);
    store_u16(body + 6, icmp.sequence);
  }
  store_u16(body + 2, icmpv6_checksum(parsed.ip.source,
                                      parsed.ip.destination,
                                      {body, icmp_size}));
  return out;
}

struct MutationTally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Parses `mutant` into the shared (deliberately reused) `parsed` and
/// checks the reject-or-reproduce property.
::testing::AssertionResult rejects_or_reproduces(const Packet& mutant,
                                                 ParsedPacket& parsed,
                                                 MutationTally& tally) {
  if (!parse_packet_into(mutant, parsed)) {
    ++tally.rejected;
    return ::testing::AssertionSuccess();
  }
  ++tally.accepted;
  if (reserialize(parsed) == mutant) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "accepted a mutant that re-serializes to different bytes";
}

TEST(WireMutation, ParsePacketIntoRejectsOrReproducesEveryMutant) {
  const Packet quote = oversized_quote();
  const std::vector<Packet> goldens{
      from_hex(kGoldenRequestHex), from_hex(kGoldenReplyHex),
      from_hex(kGoldenErrorHex),
      build_error(addr("2a02:580:7::1"), kGoldenVantage,
                  Icmpv6Type::kTimeExceeded, 0, quote)};

  std::uint64_t state = 0x5eed0f5ce11ULL;
  auto next = [&state] {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };

  ParsedPacket parsed;
  MutationTally tally;
  for (const Packet& golden : goldens) {
    ASSERT_TRUE(parse_packet_into(golden, parsed));
    ASSERT_EQ(reserialize(parsed), golden);

    // Every single-bit flip.
    for (std::size_t bit = 0; bit < golden.size() * 8; ++bit) {
      Packet m = golden;
      m[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
      ASSERT_TRUE(rejects_or_reproduces(m, parsed, tally)) << "bit " << bit;
    }
    // Seeded overwrites of one byte with a different value.
    for (int i = 0; i < 512; ++i) {
      Packet m = golden;
      const std::size_t at = next() % m.size();
      m[at] = static_cast<std::uint8_t>(m[at] ^ (1 + next() % 255));
      ASSERT_TRUE(rejects_or_reproduces(m, parsed, tally))
          << "overwrite at " << at;
    }
    // Every truncation, raw and with payload_length fixed up to match.
    for (std::size_t n = 0; n < golden.size(); ++n) {
      Packet m{golden.begin(),
               golden.begin() + static_cast<std::ptrdiff_t>(n)};
      ASSERT_TRUE(rejects_or_reproduces(m, parsed, tally))
          << "truncation to " << n;
      if (n >= kIpv6HeaderSize) {
        store_u16(m.data() + 4,
                  static_cast<std::uint16_t>(n - kIpv6HeaderSize));
        ASSERT_TRUE(rejects_or_reproduces(m, parsed, tally))
            << "fixed-up truncation to " << n;
      }
    }
    // payload_length overrides: near the true length, and seeded values.
    const std::uint16_t truth = load_u16(golden.data() + 4);
    std::vector<std::uint16_t> lengths;
    for (int d = -64; d <= 64; ++d) {
      lengths.push_back(static_cast<std::uint16_t>(truth + d));
    }
    for (int i = 0; i < 256; ++i) {
      lengths.push_back(static_cast<std::uint16_t>(next()));
    }
    for (const std::uint16_t len : lengths) {
      if (len == truth) continue;
      Packet m = golden;
      store_u16(m.data() + 4, len);
      ASSERT_TRUE(rejects_or_reproduces(m, parsed, tally))
          << "payload_length " << len;
    }
  }
  // Both outcomes occur: flips in the traffic class, flow label and hop
  // limit are outside the checksum and parse; nearly everything else fails.
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, tally.accepted);
}

}  // namespace
}  // namespace scent::wire
