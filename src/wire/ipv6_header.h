// ipv6_header.h - fixed IPv6 header (RFC 8200 s3) serialization: every
// field at its fixed offset, written and read after one length check.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "netbase/ipv6_address.h"
#include "wire/buffer.h"

namespace scent::wire {

inline constexpr std::uint8_t kNextHeaderIcmpv6 = 58;
inline constexpr std::size_t kIpv6HeaderSize = 40;

/// The 40-byte fixed IPv6 header.
struct Ipv6Header {
  std::uint8_t traffic_class = 0;
  std::uint32_t flow_label = 0;  // 20 bits used
  std::uint16_t payload_length = 0;
  std::uint8_t next_header = kNextHeaderIcmpv6;
  std::uint8_t hop_limit = 64;
  net::Ipv6Address source;
  net::Ipv6Address destination;

  /// Writes the header into the first kIpv6HeaderSize bytes of `out`,
  /// every field at its fixed RFC 8200 offset.
  void write(std::span<std::uint8_t, kIpv6HeaderSize> out) const noexcept {
    std::uint8_t* p = out.data();
    store_u32(p, (6U << 28) | (static_cast<std::uint32_t>(traffic_class) << 20) |
                     (flow_label & 0xfffffU));
    store_u16(p + 4, payload_length);
    p[6] = next_header;
    p[7] = hop_limit;
    store_u64(p + 8, source.bits().hi());
    store_u64(p + 16, source.bits().lo());
    store_u64(p + 24, destination.bits().hi());
    store_u64(p + 32, destination.bits().lo());
  }

  /// Parses the header at the start of `bytes` (anything after the first
  /// kIpv6HeaderSize bytes is ignored); nullopt on truncation or a version
  /// other than 6.
  [[nodiscard]] static std::optional<Ipv6Header> parse(
      std::span<const std::uint8_t> bytes) noexcept {
    if (bytes.size() < kIpv6HeaderSize) return std::nullopt;
    const std::uint8_t* p = bytes.data();
    const std::uint32_t vtf = load_u32(p);
    if ((vtf >> 28) != 6) return std::nullopt;
    Ipv6Header h;
    h.traffic_class = static_cast<std::uint8_t>((vtf >> 20) & 0xff);
    h.flow_label = vtf & 0xfffffU;
    h.payload_length = load_u16(p + 4);
    h.next_header = p[6];
    h.hop_limit = p[7];
    h.source = net::Ipv6Address{net::Uint128{load_u64(p + 8), load_u64(p + 16)}};
    h.destination =
        net::Ipv6Address{net::Uint128{load_u64(p + 24), load_u64(p + 32)}};
    return h;
  }
};

}  // namespace scent::wire
