// checksum.h - Internet checksum (RFC 1071) with the IPv6 pseudo-header
// required by ICMPv6 (RFC 4443 s2.3 / RFC 8200 s8.1).
#pragma once

#include <cstdint>
#include <span>

#include "netbase/ipv6_address.h"
#include "wire/buffer.h"

namespace scent::wire {

/// Incremental one's-complement sum accumulator. Feed 16-bit words (or byte
/// ranges) and finalize to the complemented checksum.
///
/// Wider values go into the 64-bit sum whole: a big-endian 32-bit word
/// hi:lo is hi * 2^16 + lo, which is congruent to hi + lo modulo 0xffff,
/// and the RFC 1071 end-around-carry fold in finalize() reduces modulo
/// 0xffff. Both sums are zero only for all-zero input, so the folded result
/// is exactly the per-16-bit-word one.
class ChecksumAccumulator {
 public:
  void add_u16(std::uint16_t v) noexcept { sum_ += v; }

  void add_u32(std::uint32_t v) noexcept { sum_ += v; }

  void add_u64(std::uint64_t v) noexcept {
    sum_ += (v >> 32) + (v & 0xffffffffU);
  }

  /// Adds bytes as big-endian words, four bytes at a time; a trailing odd
  /// byte is padded with zero per RFC 1071.
  void add_bytes(std::span<const std::uint8_t> data) noexcept {
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    std::uint64_t sum = sum_;
    for (; n >= 4; p += 4, n -= 4) sum += load_u32(p);
    if (n >= 2) {
      sum += load_u16(p);
      p += 2;
      n -= 2;
    }
    if (n != 0) sum += static_cast<std::uint64_t>(*p) << 8;
    sum_ = sum;
  }

  /// Folds carries and returns the one's-complement checksum. Per RFC 1071
  /// an all-zero result is transmitted as 0xffff (zero means "no checksum"
  /// in some protocols); ICMPv6 never transmits zero.
  [[nodiscard]] std::uint16_t finalize() const noexcept {
    std::uint64_t s = sum_;
    while ((s >> 16) != 0) s = (s & 0xffff) + (s >> 16);
    const auto folded = static_cast<std::uint16_t>(~s);
    return folded == 0 ? 0xffff : folded;
  }

 private:
  std::uint64_t sum_ = 0;
};

/// The one's-complement sum of the ICMPv6 pseudo-header (src, dst, payload
/// length, next-header = 58) and the message bytes as given.
[[nodiscard]] inline ChecksumAccumulator icmpv6_sum(
    net::Ipv6Address src, net::Ipv6Address dst,
    std::span<const std::uint8_t> icmp_message) noexcept {
  ChecksumAccumulator acc;
  acc.add_u64(src.bits().hi());
  acc.add_u64(src.bits().lo());
  acc.add_u64(dst.bits().hi());
  acc.add_u64(dst.bits().lo());
  acc.add_u32(static_cast<std::uint32_t>(icmp_message.size()));
  acc.add_u32(58);  // next header: ICMPv6
  acc.add_bytes(icmp_message);
  return acc;
}

/// ICMPv6 checksum over the IPv6 pseudo-header plus the ICMPv6 message with
/// its checksum field zeroed.
[[nodiscard]] inline std::uint16_t icmpv6_checksum(
    net::Ipv6Address src, net::Ipv6Address dst,
    std::span<const std::uint8_t> icmp_message) noexcept {
  return icmpv6_sum(src, dst, icmp_message).finalize();
}

/// Verifies a received ICMPv6 message: summing the message *including* its
/// transmitted checksum must fold to 0xffff, so finalize()'s complement is
/// zero — which it reports as 0xffff.
[[nodiscard]] inline bool icmpv6_checksum_ok(
    net::Ipv6Address src, net::Ipv6Address dst,
    std::span<const std::uint8_t> icmp_message) noexcept {
  return icmpv6_sum(src, dst, icmp_message).finalize() == 0xffff;
}

}  // namespace scent::wire
