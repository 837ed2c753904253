// target_generator.h - probe target selection.
//
// The paper's methodology is defined by how targets are chosen:
//   * one random-IID address inside each /64 of a prefix (allocation-size
//     inference, §3.2.1, and rotation detection, §4.3),
//   * one random address inside each /56 (density inference, §4.2),
//   * one random /64 per /48 of a /32 (seed expansion, §4.1),
//   * one probe per inferred-allocation-size block across a rotation pool
//     (the tracking attack, §6).
// All of these are "one pseudorandom address per subnet of size L within
// prefix P", which this generator provides lazily.
#pragma once

#include <cstdint>

#include "netbase/ipv6_address.h"
#include "netbase/prefix.h"
#include "probe/permutation.h"
#include "sim/rng.h"

namespace scent::probe {

/// A deterministic pseudorandom address inside `subnet`: host bits are
/// drawn from a hash of (seed, subnet base). The same (seed, subnet) always
/// produces the same target, giving campaigns the paper's "same addresses,
/// same order, every day" property (§5).
[[nodiscard]] inline net::Ipv6Address target_in(const net::Prefix& subnet,
                                                std::uint64_t seed) noexcept {
  const net::Uint128 base = subnet.base().bits();
  const std::uint64_t host_hi =
      sim::mix64(seed, base.hi(), base.lo() ^ 0x9e3779b97f4a7c15ULL);
  const std::uint64_t host_lo = sim::mix64(seed ^ 0xabcdef, base.hi(), base.lo());
  const net::Uint128 host =
      net::Uint128{host_hi, host_lo} & ~net::Prefix::mask(subnet.length());
  return net::Ipv6Address{base | host};
}

/// Lazily enumerates one target per /`sub_length` subnet of `parent`, in
/// zmap-permuted pseudorandom order. Bounded to 2^32 subnets (far above
/// anything probed here).
class SubnetTargets {
 public:
  SubnetTargets(net::Prefix parent, unsigned sub_length, std::uint64_t seed)
      : parent_(parent),
        sub_length_(sub_length < parent.length() ? parent.length()
                                                 : sub_length),
        seed_(seed),
        permutation_(clamped_count(parent, sub_length_),
                     sim::mix64(seed, parent.base().network())) {}

  [[nodiscard]] std::uint64_t size() const noexcept {
    return permutation_.size();
  }

  /// Next target in permuted order; false when the sweep is complete.
  bool next(net::Ipv6Address& out) noexcept {
    std::uint64_t index = 0;
    if (!permutation_.next(index)) return false;
    out = target_in(parent_.subnet(sub_length_, net::Uint128{index}), seed_);
    return true;
  }

  void reset() noexcept { permutation_.reset(); }

 private:
  static std::uint64_t clamped_count(const net::Prefix& parent,
                                     unsigned sub_length) noexcept {
    const unsigned bits = sub_length - parent.length();
    return bits >= 32 ? (std::uint64_t{1} << 32) : (std::uint64_t{1} << bits);
  }

  net::Prefix parent_;
  unsigned sub_length_;
  std::uint64_t seed_;
  CyclicPermutation permutation_;
};

}  // namespace scent::probe
