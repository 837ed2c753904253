// Tests for Provider probe handling and Internet routing/delivery.
#include <gtest/gtest.h>

#include <vector>

#include "sim/internet.h"
#include "sim/provider.h"
#include "sim/rng.h"

namespace scent::sim {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }
net::Ipv6Address addr(const char* text) {
  return *net::Ipv6Address::parse(text);
}

/// One provider, one /46 pool with /56 allocations, one EUI-64 device in
/// slot 0 with the requested error behavior.
struct Fixture {
  Internet internet;
  std::size_t provider_index;
  net::MacAddress mac{0x3810d5aabbccULL};

  explicit Fixture(ErrorBehavior behavior = ErrorBehavior::kAdminProhibited,
                   RotationPolicy::Kind kind = RotationPolicy::Kind::kStatic,
                   double loss = 0.0, RateLimit limit = {10000.0, 10000.0}) {
    ProviderConfig config;
    config.asn = 8881;
    config.name = "Versatel";
    config.country = "DE";
    config.advertisements = {pfx("2001:16b8::/32")};
    config.path_length = 3;
    config.loss_rate = loss;
    config.rate_limit = limit;
    config.seed = 42;
    provider_index = internet.add_provider(std::move(config));

    PoolConfig pool;
    pool.prefix = pfx("2001:16b8:100::/46");
    pool.allocation_length = 56;
    pool.rotation.kind = kind;
    pool.rotation.stride = 236;
    pool.seed = 7;
    internet.provider(provider_index).add_pool(pool);

    CpeDevice device;
    device.id = 1;
    device.mac = mac;
    device.mode = AddressingMode::kEui64;
    device.error_behavior = behavior;
    device.initial_slot = 0;
    internet.provider(provider_index).pools()[0].add_device(device);
  }

  Provider& provider() { return internet.provider(provider_index); }

  net::Ipv6Address wan(TimePoint t) {
    return provider().wan_address({0, 0}, t);
  }

  /// An address inside the device's allocation that is not the WAN address.
  net::Ipv6Address inside_allocation(TimePoint t) {
    const net::Prefix alloc = provider().allocation({0, 0}, t);
    return net::Ipv6Address{alloc.base().network() | 0x42,
                            0xdeadbeef12345678ULL};
  }
};

TEST(Provider, UnreachableErrorLeaksWanAddress) {
  Fixture f;
  const auto reply = f.provider().handle_probe(f.inside_allocation(0), 64, 0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->source, f.wan(0));
  EXPECT_EQ(reply->type, wire::Icmpv6Type::kDestinationUnreachable);
  EXPECT_EQ(reply->code, 1);  // admin prohibited
}

TEST(Provider, ErrorFlavorFollowsDeviceBehavior) {
  {
    Fixture f{ErrorBehavior::kNoRoute};
    const auto r = f.provider().handle_probe(f.inside_allocation(0), 64, 0);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->code, 0);
  }
  {
    Fixture f{ErrorBehavior::kAddressUnreachable};
    const auto r = f.provider().handle_probe(f.inside_allocation(0), 64, 0);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->code, 3);
  }
  {
    Fixture f{ErrorBehavior::kHopLimitExceeded};
    const auto r = f.provider().handle_probe(f.inside_allocation(0), 64, 0);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->type, wire::Icmpv6Type::kTimeExceeded);
  }
}

TEST(Provider, SilentDeviceDropsProbe) {
  Fixture f{ErrorBehavior::kSilent};
  EXPECT_FALSE(f.provider().handle_probe(f.inside_allocation(0), 64, 0));
}

TEST(Provider, ProbeToWanAddressGetsEchoReply) {
  Fixture f;
  const auto reply = f.provider().handle_probe(f.wan(0), 64, 0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, wire::Icmpv6Type::kEchoReply);
  EXPECT_EQ(reply->source, f.wan(0));
}

TEST(Provider, UnallocatedSpaceIsSilent) {
  Fixture f;
  // Slot 999 has no device.
  const net::Ipv6Address target{
      pfx("2001:16b8:100::/46").subnet(56, net::Uint128{999}).base().network(),
      0x1234};
  EXPECT_FALSE(f.provider().handle_probe(target, 64, 0).has_value());
}

TEST(Provider, SpaceOutsidePoolsIsSilent) {
  Fixture f;
  EXPECT_FALSE(
      f.provider().handle_probe(addr("2001:16b8:f000::1"), 64, 0).has_value());
}

TEST(Provider, LowHopLimitExpiresAtCoreRouters) {
  Fixture f;
  for (unsigned hl = 1; hl <= 3; ++hl) {
    const auto reply = f.provider().handle_probe(
        f.inside_allocation(0), static_cast<std::uint8_t>(hl), 0);
    ASSERT_TRUE(reply.has_value()) << hl;
    EXPECT_EQ(reply->type, wire::Icmpv6Type::kTimeExceeded);
    EXPECT_EQ(reply->source, f.provider().core_hop_address(hl));
    // Core infrastructure is statically numbered, not EUI-64.
    EXPECT_FALSE(net::is_eui64(reply->source));
  }
}

TEST(Provider, HopLimitExactlyAtCpeYieldsTimeExceededFromCpe) {
  Fixture f;
  const auto reply = f.provider().handle_probe(
      f.inside_allocation(0),
      static_cast<std::uint8_t>(f.provider().cpe_distance()), 0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, wire::Icmpv6Type::kTimeExceeded);
  EXPECT_EQ(reply->source, f.wan(0));
  EXPECT_TRUE(net::is_eui64(reply->source));
}

TEST(Provider, RotationMovesTheLeakedAddress) {
  Fixture f{ErrorBehavior::kAdminProhibited, RotationPolicy::Kind::kStride};
  const TimePoint day0 = hours(12);
  const TimePoint day1 = kDay + hours(12);
  const auto r0 = f.provider().handle_probe(f.inside_allocation(day0), 64, day0);
  const auto r1 = f.provider().handle_probe(f.inside_allocation(day1), 64, day1);
  ASSERT_TRUE(r0);
  ASSERT_TRUE(r1);
  EXPECT_NE(r0->source.network(), r1->source.network());
  EXPECT_EQ(r0->source.iid(), r1->source.iid());  // the static scent
  // Yesterday's allocation is silent today (returned to the pool).
  EXPECT_FALSE(
      f.provider().handle_probe(f.inside_allocation(day0), 64, day1));
}

TEST(Provider, LossDropsSomeProbesDeterministically) {
  Fixture f{ErrorBehavior::kAdminProhibited, RotationPolicy::Kind::kStatic,
            0.5};
  int responded = 0;
  constexpr int kProbes = 200;
  for (int i = 0; i < kProbes; ++i) {
    // Vary target IID so the per-probe loss hash varies.
    const net::Prefix alloc = f.provider().allocation({0, 0}, 0);
    const net::Ipv6Address target{alloc.base().network(),
                                  0x1000 + static_cast<std::uint64_t>(i)};
    if (f.provider().handle_probe(target, 64, 0)) ++responded;
  }
  EXPECT_GT(responded, kProbes / 4);
  EXPECT_LT(responded, kProbes * 3 / 4);
  // Determinism: same probe, same fate.
  const net::Ipv6Address t{f.provider().allocation({0, 0}, 0).base().network(),
                           0x1000};
  const bool fate = f.provider().handle_probe(t, 64, 0).has_value();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(f.provider().handle_probe(t, 64, 0).has_value(), fate);
  }
}

TEST(Provider, RateLimitSuppressesErrorBurst) {
  Fixture f{ErrorBehavior::kAdminProhibited, RotationPolicy::Kind::kStatic,
            0.0, RateLimit{10.0, 10.0}};
  int responded = 0;
  for (int i = 0; i < 50; ++i) {
    // All probes at the same instant: only the burst allowance responds.
    if (f.provider().handle_probe(f.inside_allocation(0), 64, 0)) ++responded;
  }
  EXPECT_EQ(responded, 10);
  // After a second, tokens refill.
  EXPECT_TRUE(f.provider().handle_probe(f.inside_allocation(0), 64, kSecond));
}

TEST(Provider, RateLimitDoesNotThrottleEchoReplies) {
  Fixture f{ErrorBehavior::kAdminProhibited, RotationPolicy::Kind::kStatic,
            0.0, RateLimit{1.0, 1.0}};
  // Exhaust the error bucket.
  ASSERT_TRUE(f.provider().handle_probe(f.inside_allocation(0), 64, 0));
  ASSERT_FALSE(f.provider().handle_probe(f.inside_allocation(0), 64, 0));
  // Informational echo exchange still works.
  EXPECT_TRUE(f.provider().handle_probe(f.wan(0), 64, 0));
}

TEST(Provider, FindDeviceByMac) {
  Fixture f;
  const auto ref = f.provider().find_device(f.mac);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->pool_index, 0u);
  EXPECT_EQ(ref->device_index, 0u);
  EXPECT_FALSE(
      f.provider().find_device(net::MacAddress{0x111111111111ULL}).has_value());
  EXPECT_EQ(f.provider().device_count(), 1u);
}

// ---- Internet --------------------------------------------------------------

TEST(Internet, RoutesByLongestPrefixToProvider) {
  Fixture f;
  EXPECT_EQ(f.internet.route(addr("2001:16b8:100::1")), 0u);
  EXPECT_FALSE(f.internet.route(addr("2003:e2::1")).has_value());
}

TEST(Internet, BgpViewMatchesAdvertisements) {
  Fixture f;
  const auto attribution = f.internet.bgp().lookup(addr("2001:16b8:100::1"));
  ASSERT_TRUE(attribution.has_value());
  EXPECT_EQ(attribution->origin_asn, 8881u);
  EXPECT_EQ(attribution->bgp_prefix, pfx("2001:16b8::/32"));
}

TEST(Internet, LogicalProbeCountsStats) {
  Fixture f;
  ASSERT_TRUE(f.internet.probe(f.inside_allocation(0), 64, 0).has_value());
  ASSERT_FALSE(f.internet.probe(addr("2003:e2::1"), 64, 0).has_value());
  EXPECT_EQ(f.internet.stats().probes_received, 2u);
  EXPECT_EQ(f.internet.stats().responses_sent, 1u);
  EXPECT_EQ(f.internet.stats().unrouted, 1u);
}

TEST(Internet, WireDeliveryRoundTrip) {
  Fixture f;
  const auto request = wire::build_echo_request(
      addr("2001:db8::1"), f.inside_allocation(0), 0x5C37, 1, 64);
  wire::Packet response;
  ASSERT_TRUE(f.internet.deliver_into(request, 0, response));
  const auto parsed = wire::parse_packet(response);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip.source, f.wan(0));
  EXPECT_EQ(parsed->ip.destination, addr("2001:db8::1"));
  EXPECT_TRUE(parsed->icmp.is_error());
  // The error quotes our probe: target recoverable.
  const auto invoking = wire::extract_invoking_probe(parsed->icmp);
  ASSERT_TRUE(invoking.has_value());
  EXPECT_EQ(invoking->target, f.inside_allocation(0));
  EXPECT_EQ(invoking->identifier, 0x5C37);
}

TEST(Internet, WireDeliveryEchoReply) {
  Fixture f;
  const auto request = wire::build_echo_request(addr("2001:db8::1"), f.wan(0),
                                                7, 9, 64);
  wire::Packet response;
  ASSERT_TRUE(f.internet.deliver_into(request, 0, response));
  const auto parsed = wire::parse_packet(response);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->icmp.type, wire::Icmpv6Type::kEchoReply);
  EXPECT_EQ(parsed->icmp.identifier, 7);
  EXPECT_EQ(parsed->icmp.sequence, 9);
}

TEST(Internet, MalformedPacketsDropped) {
  Fixture f;
  std::vector<std::uint8_t> garbage(60, 0xab);
  wire::Packet response;
  EXPECT_FALSE(f.internet.deliver_into(garbage, 0, response));
  // Echo replies (not requests) are also dropped at ingress.
  const auto reply = wire::build_echo_reply(addr("2001:db8::1"),
                                            f.inside_allocation(0), 1, 1);
  EXPECT_FALSE(f.internet.deliver_into(reply, 0, response));
  EXPECT_EQ(f.internet.stats().malformed_dropped, 2u);
}

// ---- Route cache ------------------------------------------------------------

/// An Internet whose forwarding trie nests routes three deep, with a
/// sibling route and unrouted gaps around them. Provider i announces
/// exactly routes[i].
struct NestedRoutes {
  Internet internet;
  std::vector<net::Prefix> routes{
      pfx("2001:db8::/32"),            // 0
      pfx("2001:db8:100::/48"),        // 1: inside 0
      pfx("2001:db8:100:7::/64"),      // 2: inside 1
      pfx("2001:db9:8000::/33"),       // 3: sibling of the 2001:db9::/33 gap
  };

  NestedRoutes() {
    for (const auto& route : routes) add(route);
  }

  std::size_t add(net::Prefix route) {
    ProviderConfig config;
    config.asn = 64500 + static_cast<routing::Asn>(internet.provider_count());
    config.advertisements = {route};
    return internet.add_provider(std::move(config));
  }
};

/// A uniformly random address inside `region`.
net::Ipv6Address random_in(net::Prefix region, Rng& rng) {
  const net::Uint128 noise{rng.next(), rng.next()};
  const net::Uint128 host_mask =
      region.length() == 0 ? ~net::Uint128{}
                           : ~(~net::Uint128{} << (128 - region.length()));
  return net::Ipv6Address{region.base().bits() | (noise & host_mask)};
}

TEST(InternetRouteCache, CachedRouteEqualsUncachedWalkAcrossNestedRoutes) {
  NestedRoutes world;
  // Regions that straddle every boundary: inside each route but outside
  // the next more specific one, the /63 holding the /64 and its unrouted-
  // by-the-/64 neighbour, the sibling /33 and the gap beside it, the rest
  // of the /31 around the /32, and space nowhere near any route.
  const std::vector<net::Prefix> regions{
      pfx("2001:db8::/32"),          pfx("2001:db8:100::/48"),
      pfx("2001:db8:100:7::/64"),    pfx("2001:db8:100:6::/63"),
      pfx("2001:db9:8000::/33"),     pfx("2001:db9::/33"),
      pfx("2001:db8::/31"),          pfx("2001:dba::/31"),
      pfx("2a00::/12"),
  };
  Rng rng{0xCAC4E};
  RouteCache cache;
  NetContext ctx;
  std::size_t region = 0;
  std::size_t routed = 0;
  for (int i = 0; i < 20000; ++i) {
    // Stay in the last region about half the time (cache hits), jump to
    // any region otherwise (crossings, including into and out of gaps).
    if (rng.next() % 2 == 0) region = rng.next() % regions.size();
    const net::Ipv6Address a = random_in(regions[region], rng);
    const auto uncached = world.internet.route(a);
    ASSERT_EQ(world.internet.route(a, cache), uncached)
        << a.to_string() << " in " << regions[region].to_string();
    ASSERT_EQ(world.internet.route(a, ctx.routes), uncached);
    if (uncached) ++routed;
  }
  // Both answers occurred, often.
  EXPECT_GT(routed, 5000u);
  EXPECT_LT(routed, 15000u);
}

TEST(InternetRouteCache, AddProviderInvalidatesEveryCache) {
  NestedRoutes world;
  const auto inside = addr("2001:db8:5::1");  // under the /32 only
  const auto gap = addr("2001:db9::1");       // in the unrouted /33

  // A caller-owned cache, last filled by the walk for `inside`.
  RouteCache cache;
  ASSERT_FALSE(world.internet.route(gap, cache).has_value());
  ASSERT_EQ(world.internet.route(inside, cache), 0u);
  const std::size_t nested = world.add(pfx("2001:db8:5::/48"));
  EXPECT_EQ(world.internet.route(inside, cache), nested);

  // The Internet's own cache behind the single-threaded probe path: the
  // gap is unrouted, then announced, and the next probe must route.
  ASSERT_FALSE(world.internet.probe(gap, 64, 0).has_value());
  ASSERT_EQ(world.internet.stats().unrouted, 1u);
  const std::size_t filler = world.add(pfx("2001:db9::/33"));
  EXPECT_EQ(world.internet.route(gap), filler);
  (void)world.internet.probe(gap, 64, 0);
  EXPECT_EQ(world.internet.stats().unrouted, 1u);
}

}  // namespace
}  // namespace scent::sim
