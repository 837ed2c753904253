// Integration tests: the full §4 discovery funnel and the §5 campaign run
// end-to-end against a small simulated Internet, and their outputs are
// validated against the simulator's ground truth.
#include <gtest/gtest.h>

#include <set>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "core/bootstrap.h"
#include "core/campaign.h"
#include "core/homogeneity.h"
#include "core/inference.h"
#include "probe/prober.h"
#include "sim/scenario.h"

namespace scent::core {
namespace {

/// A compact world for funnel testing: small /40 advertisements keep the
/// per-/48 expansion cheap (256 /48s per AS).
sim::PaperWorld funnel_world(std::uint64_t seed) {
  sim::WorldBuilder builder{seed};
  sim::PaperWorld world;

  {
    sim::ProviderSpec spec;
    spec.asn = 65001;
    spec.name = "Rotator";
    spec.country = "DE";
    spec.advertisement = *net::Prefix::parse("2001:db8::/40");
    spec.vendors = {{net::Oui{0x3810d5}, 1.0}};
    spec.eui64_fraction = 1.0;
    spec.low_byte_fraction = 0.0;
    spec.silent_fraction = 0.0;
    sim::PoolSpec pool;
    pool.pool_length = 46;
    pool.allocation_length = 56;
    pool.rotation.kind = sim::RotationPolicy::Kind::kStride;
    pool.rotation.stride = 236;
    pool.rotation.window_length = sim::hours(6);
    pool.device_count = 760;
    spec.pools.push_back(pool);
    world.versatel = builder.add_provider(spec);
  }
  {
    sim::ProviderSpec spec;
    spec.asn = 65002;
    spec.name = "Static";
    spec.country = "VN";
    spec.advertisement = *net::Prefix::parse("2406:da00::/40");
    spec.vendors = {{net::Oui{0x344b50}, 1.0}};
    spec.eui64_fraction = 1.0;
    spec.low_byte_fraction = 0.0;
    spec.silent_fraction = 0.0;
    sim::PoolSpec pool;
    pool.pool_length = 48;
    pool.allocation_length = 56;
    pool.device_count = 190;
    pool.placement = sim::Placement::kScattered;
    spec.pools.push_back(pool);
    world.viettel = builder.add_provider(spec);
  }

  world.internet = builder.take();
  return world;
}

class FunnelTest : public ::testing::Test {
 protected:
  FunnelTest() : world_(funnel_world(0xF00D)), clock_(sim::hours(10)) {}

  sim::PaperWorld world_;
  sim::VirtualClock clock_;
};

TEST_F(FunnelTest, FullFunnelFindsOnlyTheRotatingPool) {
  probe::ProberOptions opts;
  opts.wire_mode = false;
  opts.packets_per_second = 1000000;  // keep virtual probing inside one day
  probe::Prober prober{world_.internet, clock_, opts};

  BootstrapOptions options;
  options.min_advert_length = 32;
  options.probes_per_48 = 6;
  const BootstrapResult result =
      run_bootstrap(world_.internet, clock_, prober, options);

  // Stage 0/1: /48s of both providers were found.
  EXPECT_FALSE(result.seed_48s.empty());
  EXPECT_EQ(result.seed_32s.size(), 2u);
  EXPECT_FALSE(result.expanded_48s.empty());

  // The rotating /46 spans 4 /48s; all must be detected as rotating.
  const net::Prefix rot_pool = world_.internet.provider(world_.versatel)
                                   .pools()[0]
                                   .config()
                                   .prefix;
  std::size_t rotating_in_pool = 0;
  for (const auto& p48 : result.rotating_48s) {
    EXPECT_TRUE(rot_pool.contains(p48))
        << p48.to_string() << " flagged rotating outside the rotating pool";
    ++rotating_in_pool;
  }
  EXPECT_GE(rotating_in_pool, 3u);

  // The static provider's /48 must not be flagged.
  const net::Prefix static_pool = world_.internet.provider(world_.viettel)
                                      .pools()[0]
                                      .config()
                                      .prefix;
  for (const auto& p48 : result.rotating_48s) {
    EXPECT_FALSE(static_pool.contains(p48));
  }

  // Funnel accounting is internally consistent.
  EXPECT_GT(result.probes_sent, 0u);
  EXPECT_GE(result.total_addresses, result.eui64_addresses);
  EXPECT_GE(result.eui64_addresses, result.unique_iids);
  EXPECT_GT(result.unique_iids, 0u);

  // Rotation makes EUI-64 addresses outnumber distinct IIDs.
  EXPECT_GT(result.eui64_addresses, result.unique_iids);
}

TEST_F(FunnelTest, Table1GroupingAttributesRotatorsToAs) {
  probe::ProberOptions opts;
  opts.wire_mode = false;
  opts.packets_per_second = 1000000;
  probe::Prober prober{world_.internet, clock_, opts};
  BootstrapOptions boot;
  boot.probes_per_48 = 6;
  const BootstrapResult result =
      run_bootstrap(world_.internet, clock_, prober, boot);

  const auto by_asn = rotators_by_asn(result.rotating_48s,
                                      world_.internet.bgp());
  ASSERT_FALSE(by_asn.empty());
  EXPECT_EQ(by_asn[0].key, "65001");
  const auto by_country =
      rotators_by_country(result.rotating_48s, world_.internet.bgp());
  ASSERT_FALSE(by_country.empty());
  EXPECT_EQ(by_country[0].key, "DE");
}

TEST_F(FunnelTest, DensityStageSeparatesClasses) {
  probe::ProberOptions opts;
  opts.wire_mode = false;
  opts.packets_per_second = 1000000;
  probe::Prober prober{world_.internet, clock_, opts};
  BootstrapOptions boot;
  boot.probes_per_48 = 6;
  const BootstrapResult result =
      run_bootstrap(world_.internet, clock_, prober, boot);

  // Both pools are dense (>2 devices per /48): all expanded /48s inside
  // pools are high density.
  EXPECT_FALSE(result.high_density_48s.empty());
  for (const auto& d : result.densities) {
    if (d.klass == DensityClass::kHigh) {
      EXPECT_GT(d.unique_eui64, 2u);
    }
  }
}

TEST_F(FunnelTest, CampaignObservesRotationDynamics) {
  probe::ProberOptions opts;
  opts.wire_mode = false;
  opts.packets_per_second = 1000000;
  probe::Prober prober{world_.internet, clock_, opts};
  BootstrapOptions boot;
  boot.probes_per_48 = 6;
  const BootstrapResult funnel =
      run_bootstrap(world_.internet, clock_, prober, boot);
  ASSERT_FALSE(funnel.rotating_48s.empty());

  CampaignOptions options;
  options.days = 6;
  const CampaignResult campaign = run_campaign(
      world_.internet, clock_, prober, funnel.rotating_48s, options);

  EXPECT_EQ(campaign.daily.size(), 6u);
  EXPECT_GT(campaign.responses, 0u);

  // Day 0 inferred the rotator's /56 allocation size.
  ASSERT_TRUE(campaign.allocation_length_by_as.contains(65001));
  EXPECT_EQ(campaign.allocation_length_by_as.at(65001), 56u);

  // Algorithm 2 on the corpus: the rotating devices' pool is /46.
  RotationPoolInference pools;
  pools.observe_all(campaign.observations);
  const auto median = pools.median_length();
  ASSERT_TRUE(median.has_value());
  EXPECT_LE(*median, 48u);   // clearly rotating over a wide range
  EXPECT_GE(*median, 46u);   // ... bounded by the /46 pool

  // Devices appear in multiple /64s across days (Figure 8's signal).
  analysis::AnalysisOptions analysis_options;
  analysis_options.attribute = false;
  const analysis::AggregateTable table =
      analysis::analyze(campaign.observations, nullptr, analysis_options);
  std::size_t multi_prefix_devices = 0;
  for (const auto& [mac, device] : table.devices) {
    if (analysis::networks_of(table, mac).size() > 1) {
      ++multi_prefix_devices;
    }
  }
  EXPECT_GT(multi_prefix_devices,
            campaign.observations.unique_eui64_iids() / 2);
}

TEST_F(FunnelTest, WireModeProducesSameFunnelAsFastMode) {
  // The wire path must not change any inference — only cost.
  sim::PaperWorld world2 = funnel_world(0xF00D);
  sim::VirtualClock clock2{sim::hours(10)};

  probe::ProberOptions fast;
  fast.wire_mode = false;
  fast.packets_per_second = 1000000;
  BootstrapOptions boot;
  boot.probes_per_48 = 2;
  probe::Prober fast_prober{world_.internet, clock_, fast};
  const BootstrapResult a =
      run_bootstrap(world_.internet, clock_, fast_prober, boot);

  probe::ProberOptions wire;
  wire.wire_mode = true;
  wire.packets_per_second = 1000000;
  probe::Prober wire_prober{world2.internet, clock2, wire};
  const BootstrapResult b =
      run_bootstrap(world2.internet, clock2, wire_prober, boot);

  EXPECT_EQ(a.seed_48s, b.seed_48s);
  EXPECT_EQ(a.expanded_48s, b.expanded_48s);
  EXPECT_EQ(a.high_density_48s, b.high_density_48s);
  EXPECT_EQ(a.rotating_48s, b.rotating_48s);
  EXPECT_EQ(a.unique_iids, b.unique_iids);
}

}  // namespace
}  // namespace scent::core
