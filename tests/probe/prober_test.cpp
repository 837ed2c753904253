// Tests for target generation, the prober engine (wire and fast paths),
// and the yarrp-style traceroute.
#include <gtest/gtest.h>

#include <set>

#include "probe/prober.h"
#include "probe/target_generator.h"
#include "probe/traceroute.h"
#include "sim/scenario.h"
#include "telemetry/metrics.h"

namespace scent::probe {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

// ---- target_in / SubnetTargets --------------------------------------------

TEST(TargetGenerator, TargetStaysInsideSubnet) {
  const net::Prefix p = pfx("2001:db8:12:3400::/56");
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    EXPECT_TRUE(p.contains(target_in(p, seed)));
  }
}

TEST(TargetGenerator, TargetIsDeterministicPerSeed) {
  const net::Prefix p = pfx("2001:db8::/64");
  EXPECT_EQ(target_in(p, 1), target_in(p, 1));
  EXPECT_NE(target_in(p, 1), target_in(p, 2));
}

TEST(TargetGenerator, TargetsDifferAcrossSubnets) {
  const net::Prefix parent = pfx("2001:db8::/48");
  std::set<net::Ipv6Address> targets;
  for (std::uint64_t i = 0; i < 256; ++i) {
    targets.insert(target_in(parent.subnet(56, net::Uint128{i}), 7));
  }
  EXPECT_EQ(targets.size(), 256u);
}

TEST(TargetGenerator, SubnetTargetsCoverEverySubnetOnce) {
  SubnetTargets gen{pfx("2001:db8::/48"), 56, 5};
  EXPECT_EQ(gen.size(), 256u);
  std::set<std::uint64_t> subnets;
  net::Ipv6Address a;
  while (gen.next(a)) {
    EXPECT_TRUE(pfx("2001:db8::/48").contains(a));
    subnets.insert(a.network() >> 8 & 0xff);
  }
  EXPECT_EQ(subnets.size(), 256u);
}

TEST(TargetGenerator, SubLengthClampedToParent) {
  SubnetTargets gen{pfx("2001:db8::/48"), 32, 5};
  EXPECT_EQ(gen.size(), 1u);
}

// ---- Prober ----------------------------------------------------------------

class ProberTest : public ::testing::Test {
 protected:
  ProberTest() : world_(sim::make_tiny_world(3, 16)), clock_(sim::hours(12)) {}

  sim::PaperWorld world_;
  sim::VirtualClock clock_;

  net::Ipv6Address device_target(std::size_t provider, std::size_t device) {
    const auto& p = world_.internet.provider(provider);
    const net::Prefix alloc =
        p.allocation({0, device}, clock_.now());
    return target_in(alloc, 1234);
  }
};

TEST_F(ProberTest, WireAndFastPathsAgree) {
  ProberOptions wire_opts;
  wire_opts.wire_mode = true;
  ProberOptions fast_opts;
  fast_opts.wire_mode = false;

  // Separate clocks so pacing does not interleave times.
  sim::VirtualClock c1{sim::hours(12)};
  sim::VirtualClock c2{sim::hours(12)};
  Prober wire_prober{world_.internet, c1, wire_opts};
  Prober fast_prober{world_.internet, c2, fast_opts};

  for (std::size_t d = 0; d < 16; ++d) {
    const auto target = device_target(world_.versatel, d);
    const auto rw = wire_prober.probe_one(target);
    const auto rf = fast_prober.probe_one(target);
    EXPECT_EQ(rw.responded, rf.responded) << d;
    if (rw.responded && rf.responded) {
      EXPECT_EQ(rw.response_source, rf.response_source);
      EXPECT_EQ(rw.type, rf.type);
      EXPECT_EQ(rw.code, rf.code);
    }
  }
}

TEST_F(ProberTest, PacingAdvancesClockAtConfiguredRate) {
  ProberOptions opts;
  opts.packets_per_second = 10000;
  Prober prober{world_.internet, clock_, opts};
  const sim::TimePoint start = clock_.now();
  for (int i = 0; i < 100; ++i) {
    (void)prober.probe_one(device_target(world_.versatel, 0));
  }
  EXPECT_EQ(clock_.now() - start, 100 * (sim::kSecond / 10000));
}

TEST_F(ProberTest, CountersTrackSentAndReceived) {
  Prober prober{world_.internet, clock_};
  (void)prober.probe_one(device_target(world_.versatel, 0));
  (void)prober.probe_one(
      *net::Ipv6Address::parse("2a0f:ffff::1"));  // unrouted
  EXPECT_EQ(prober.counters().sent, 2u);
  EXPECT_EQ(prober.counters().received, 1u);
  prober.reset_counters();
  EXPECT_EQ(prober.counters().sent, 0u);
}

TEST_F(ProberTest, CountersAccumulateAcrossSweepsAndResetCleanly) {
  Prober prober{world_.internet, clock_};
  telemetry::Registry registry;
  prober.attach_telemetry(registry);

  const auto& pool = world_.internet.provider(world_.versatel).pools()[0];
  const std::uint64_t per_sweep =
      SubnetTargets{pool.config().prefix, 56, 0xABC}.size();

  // 16 probes into unrouted space, then two sweeps of the pool.
  (void)prober.sweep_subnets(pfx("2a0f:ffff::/60"), 64, 0x5EED);
  (void)prober.sweep_subnets(pool.config().prefix, 56, 0xABC);
  (void)prober.sweep_subnets(pool.config().prefix, 56, 0xDEF);

  // Every probe path funnels through probe_one: the prober's own counters
  // and the registry mirror agree, across silent and responsive sweeps.
  const std::uint64_t expected_sent = 16 + 2 * per_sweep;
  const std::uint64_t expected_received = 2 * 16;  // 16 tiny-world CPEs
  EXPECT_EQ(prober.counters().sent, expected_sent);
  EXPECT_EQ(prober.counters().received, expected_received);
  EXPECT_EQ(registry.counter("probe.sent").value(), expected_sent);
  EXPECT_EQ(registry.counter("probe.received").value(), expected_received);

  // reset_counters() clears the prober's counters but leaves the registry
  // accumulating (campaign code reads per-day deltas from it).
  prober.reset_counters();
  EXPECT_EQ(prober.counters().sent, 0u);
  EXPECT_EQ(prober.counters().received, 0u);
  EXPECT_EQ(registry.counter("probe.sent").value(), expected_sent);

  (void)prober.probe_one(device_target(world_.versatel, 1));
  EXPECT_EQ(prober.counters().sent, 1u);
  EXPECT_EQ(registry.counter("probe.sent").value(), expected_sent + 1);
}

TEST_F(ProberTest, SweepReturnsOnlyResponsive) {
  Prober prober{world_.internet, clock_};
  const auto& pool = world_.internet.provider(world_.versatel).pools()[0];
  // The pool has more /56s than CPEs, so some probes go unanswered.
  const auto results =
      prober.sweep_subnets(pool.config().prefix, 56, 0xABC);
  EXPECT_LT(results.size(), prober.counters().sent);
  EXPECT_EQ(results.size(), prober.counters().received);
  for (const auto& r : results) EXPECT_TRUE(r.responded);
}

TEST_F(ProberTest, SweepSubnetsFindsAllDevicesInPool) {
  Prober prober{world_.internet, clock_};
  const auto& pool = world_.internet.provider(world_.versatel).pools()[0];
  const auto results =
      prober.sweep_subnets(pool.config().prefix, 56, 0xABC);
  // 16 devices, every /56 probed once: every device responds exactly once.
  std::set<net::Ipv6Address> sources;
  for (const auto& r : results) sources.insert(r.response_source);
  EXPECT_EQ(sources.size(), 16u);
  EXPECT_EQ(results.size(), 16u);
}

TEST_F(ProberTest, ResponsesCarryEui64SourceOfCpe) {
  Prober prober{world_.internet, clock_};
  const auto r = prober.probe_one(device_target(world_.versatel, 3));
  ASSERT_TRUE(r.responded);
  ASSERT_TRUE(net::is_eui64(r.response_source));
  const auto mac = net::embedded_mac(r.response_source);
  const auto& devices =
      world_.internet.provider(world_.versatel).pools()[0].devices();
  EXPECT_EQ(*mac, devices[3].mac);
}

// ---- Traceroute ------------------------------------------------------------

TEST_F(ProberTest, TracerouteReachesCpeAsLastHop) {
  Prober prober{world_.internet, clock_};
  const auto result = traceroute(prober, device_target(world_.versatel, 2), 16);
  ASSERT_FALSE(result.hops.empty());
  const auto& provider = world_.internet.provider(world_.versatel);
  // Core hops first, Time Exceeded, statically addressed.
  ASSERT_GE(result.hops.size(), provider.config().path_length);
  for (unsigned h = 0; h < provider.config().path_length; ++h) {
    EXPECT_EQ(result.hops[h].type, wire::Icmpv6Type::kTimeExceeded);
    EXPECT_FALSE(net::is_eui64(result.hops[h].address));
  }
  // Last hop: the CPE, terminal error, EUI-64 source.
  const auto last = result.last_hop();
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(net::is_eui64(last->address));
  EXPECT_NE(last->type, wire::Icmpv6Type::kTimeExceeded);
}

TEST_F(ProberTest, TracerouteToUnroutedSpaceFindsNothing) {
  Prober prober{world_.internet, clock_};
  const auto result =
      traceroute(prober, *net::Ipv6Address::parse("2a0f:dead::1"), 8);
  EXPECT_TRUE(result.hops.empty());
  EXPECT_FALSE(result.last_hop().has_value());
}

TEST_F(ProberTest, TracerouteToUnallocatedSlotStopsAtCore) {
  Prober prober{world_.internet, clock_};
  // Slot 900 of the /46 pool is unoccupied in the tiny world (16 devices).
  const auto& pool = world_.internet.provider(world_.versatel).pools()[0];
  const net::Ipv6Address target =
      target_in(pool.config().prefix.subnet(56, net::Uint128{900}), 5);
  const auto result = traceroute(prober, target, 8);
  const auto& provider = world_.internet.provider(world_.versatel);
  EXPECT_EQ(result.hops.size(), provider.config().path_length);
  for (const auto& hop : result.hops) {
    EXPECT_EQ(hop.type, wire::Icmpv6Type::kTimeExceeded);
  }
}

}  // namespace
}  // namespace scent::probe
