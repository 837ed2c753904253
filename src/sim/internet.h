// internet.h - the simulated IPv6 Internet: routing glue over providers.
//
// Substitute for the real network behind the paper's vantage point. Accepts
// wire-format ICMPv6 Echo Request packets, routes them by longest-prefix
// match to the owning provider, and returns the wire-format response the
// real Internet would deliver (or nothing). Also exposes the BGP view
// (Routeviews substitute) that the analysis side uses for attribution —
// deliberately the same object, because in reality both derive from the same
// advertisements.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "netbase/ipv6_address.h"
#include "routing/bgp_table.h"
#include "routing/prefix_trie.h"
#include "sim/provider.h"
#include "wire/icmpv6.h"

namespace scent::sim {

struct NetContext;

/// One-entry memo of Internet::route: the last routed address, how many of
/// its leading bits the forwarding-trie walk read, and the answer. Any
/// address that agrees on those bits takes the same walk, so a hit is
/// exact even with more-specific routes nested inside the match
/// (PrefixTrie::longest_match). add_provider bumps the Internet's route
/// version, which invalidates every cache filled before it. A sweep unit
/// probes one /48 in permuted order, so nearly every probe hits.
class RouteCache {
 private:
  friend class Internet;
  std::uint64_t version_ = 0;  ///< Route version it was filled at; 0 = empty.
  net::Uint128 mask_;          ///< The leading bits the walk read.
  net::Uint128 key_;           ///< The last address, masked.
  std::optional<std::size_t> provider_;
};

class Internet {
 public:
  Internet() = default;

  /// Registers a provider; announces all its advertisements into the BGP
  /// table and the forwarding trie. Returns the provider index.
  std::size_t add_provider(ProviderConfig config);

  [[nodiscard]] Provider& provider(std::size_t index) {
    return *providers_[index];
  }
  [[nodiscard]] const Provider& provider(std::size_t index) const {
    return *providers_[index];
  }
  [[nodiscard]] std::size_t provider_count() const noexcept {
    return providers_.size();
  }

  /// Finds the provider owning an address, if advertised.
  [[nodiscard]] std::optional<std::size_t> route(net::Ipv6Address a) const {
    const auto match = forwarding_.longest_match(a);
    if (!match) return std::nullopt;
    return *match->value;
  }

  /// Same answer, memoized in the caller's one-entry cache.
  [[nodiscard]] std::optional<std::size_t> route(net::Ipv6Address a,
                                                 RouteCache& cache) const {
    if (cache.version_ == route_version_ &&
        (a.bits() & cache.mask_) == cache.key_) {
      return cache.provider_;
    }
    unsigned bits_read = 0;
    const auto match = forwarding_.longest_match(a, bits_read);
    cache.version_ = route_version_;
    cache.mask_ = ~net::Uint128{} << (128 - bits_read);
    cache.key_ = a.bits() & cache.mask_;
    cache.provider_ =
        match ? std::optional<std::size_t>{*match->value} : std::nullopt;
    return cache.provider_;
  }

  /// The global BGP view (used by analysis for response attribution).
  [[nodiscard]] const routing::BgpTable& bgp() const noexcept { return bgp_; }

  /// Logical fast path: probe a target with a hop limit at virtual time t.
  /// Uses the Internet's built-in stats and per-provider response contexts
  /// (single-threaded callers).
  [[nodiscard]] std::optional<ProbeReply> probe(net::Ipv6Address target,
                                                std::uint8_t hop_limit,
                                                TimePoint t);

  /// Same, against caller-owned mutable state. Const and thread safe:
  /// concurrent callers with disjoint contexts touch only the (read-only)
  /// topology. Stats accumulate in `ctx`; fold them back with
  /// absorb_stats() when the parallel region ends.
  [[nodiscard]] std::optional<ProbeReply> probe(net::Ipv6Address target,
                                                std::uint8_t hop_limit,
                                                TimePoint t,
                                                NetContext& ctx) const;

  /// Full wire path: parse, checksum-verify, route, respond. Serializes the
  /// response into `out` (cleared, capacity kept — callers reuse one
  /// scratch packet) and returns true, or returns false when nothing comes
  /// back. Malformed requests are dropped (and counted).
  [[nodiscard]] bool deliver_into(std::span<const std::uint8_t> request,
                                  TimePoint t, wire::Packet& out);

  /// Wire path against caller-owned state (see the probe overload).
  [[nodiscard]] bool deliver_into(std::span<const std::uint8_t> request,
                                  TimePoint t, NetContext& ctx,
                                  wire::Packet& out) const;

  struct Stats {
    std::uint64_t probes_received = 0;
    std::uint64_t malformed_dropped = 0;
    std::uint64_t unrouted = 0;
    std::uint64_t responses_sent = 0;

    void merge(const Stats& other) noexcept {
      probes_received += other.probes_received;
      malformed_dropped += other.malformed_dropped;
      unrouted += other.unrouted;
      responses_sent += other.responses_sent;
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Folds context-accumulated stats into the global ledger, keeping
  /// stats() a whole-Internet total across serial and sharded callers.
  void absorb_stats(const Stats& delta) noexcept { stats_.merge(delta); }

 private:
  // unique_ptr: Provider carries mutable rate-limit state and is
  // move-only; pointer stability lets DeviceRef-style indices stay valid.
  std::vector<std::unique_ptr<Provider>> providers_;
  routing::BgpTable bgp_;
  routing::PrefixTrie<std::size_t> forwarding_;
  std::uint64_t route_version_ = 1;  ///< Bumped by add_provider.
  RouteCache route_cache_;           ///< The single-threaded path's memo.
  Stats stats_;
};

/// One execution scope's worth of mutable network state: response-policy
/// buckets, the route memo and delivery stats. The engine owns one per
/// shard; everything the probe path reads through `const Internet&` is then
/// shared-safe.
struct NetContext {
  ResponseContext response;
  RouteCache routes;
  Internet::Stats stats;
};

}  // namespace scent::sim
