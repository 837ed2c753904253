// Tests for the §5 campaign driver: scheduling, granularity switching,
// determinism, and corpus properties.
#include "core/campaign.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <system_error>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "core/inference.h"
#include "probe/prober.h"
#include "sim/scenario.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::core {
namespace {

using namespace scent;

struct CampaignFixture {
  sim::PaperWorld world;
  sim::VirtualClock clock{sim::hours(10)};
  probe::Prober prober;
  std::vector<net::Prefix> targets;

  CampaignFixture()
      : world(sim::make_tiny_world(0xCA0, 48)),
        prober(world.internet, clock,
               {.packets_per_second = 1000000, .wire_mode = false}) {
    // Target the rotating provider's 4 /48s directly (funnel tested
    // elsewhere).
    const auto& pool = world.internet.provider(world.versatel).pools()[0];
    for (std::uint64_t i = 0; i < 4; ++i) {
      targets.push_back(net::Prefix{
          pool.config().prefix.subnet(48, net::Uint128{i}).base(), 48});
    }
  }
};

TEST(Campaign, RunsRequestedDaysAtNoon) {
  CampaignFixture f;
  CampaignOptions options;
  options.days = 5;
  const auto result =
      run_campaign(f.world.internet, f.clock, f.prober, f.targets, options);
  ASSERT_EQ(result.daily.size(), 5u);
  for (std::size_t d = 0; d < 5; ++d) {
    EXPECT_EQ(result.daily[d].day, static_cast<std::int64_t>(d));
  }
  EXPECT_GT(result.responses, 0u);
  EXPECT_EQ(result.probes_sent,
            result.daily[0].probes + result.daily[1].probes +
                result.daily[2].probes + result.daily[3].probes +
                result.daily[4].probes);
}

TEST(Campaign, Day0InfersAllocationAndLaterDaysGoCheaper) {
  CampaignFixture f;
  CampaignOptions options;
  options.days = 3;
  const auto result =
      run_campaign(f.world.internet, f.clock, f.prober, f.targets, options);
  // Day 0: per-/64 sweep of 4 /48s = 4 * 65536 probes.
  EXPECT_EQ(result.daily[0].probes, 4u * 65536u);
  // Allocation inferred as /56 for the rotator's AS.
  ASSERT_TRUE(result.allocation_length_by_as.contains(65001));
  EXPECT_EQ(result.allocation_length_by_as.at(65001), 56u);
  // Days 1+: one probe per inferred /56 = 4 * 256.
  EXPECT_EQ(result.daily[1].probes, 4u * 256u);
  EXPECT_EQ(result.daily[2].probes, 4u * 256u);
}

TEST(Campaign, FullGranularityModeKeepsSweepingPer64) {
  CampaignFixture f;
  CampaignOptions options;
  options.days = 2;
  options.allocation_granularity_after_day0 = false;
  const auto result =
      run_campaign(f.world.internet, f.clock, f.prober, f.targets, options);
  EXPECT_EQ(result.daily[0].probes, result.daily[1].probes);
}

TEST(Campaign, ObservesEveryActiveDeviceDaily) {
  CampaignFixture f;
  CampaignOptions options;
  options.days = 4;
  const auto result =
      run_campaign(f.world.internet, f.clock, f.prober, f.targets, options);
  // 48 devices, all EUI-64 and responsive in the tiny world.
  for (const auto& day : result.daily) {
    EXPECT_EQ(day.unique_eui64_iids, 48u);
  }
  EXPECT_EQ(result.observations.unique_eui64_iids(), 48u);
}

TEST(Campaign, CorpusShowsDailyPrefixMovement) {
  CampaignFixture f;
  CampaignOptions options;
  options.days = 5;
  const auto result =
      run_campaign(f.world.internet, f.clock, f.prober, f.targets, options);
  // Every device should have been seen in ~5 distinct /64s (daily stride).
  analysis::AnalysisOptions analysis_options;
  analysis_options.attribute = false;
  const analysis::AggregateTable table =
      analysis::analyze(result.observations, nullptr, analysis_options);
  ASSERT_EQ(table.devices.size(), 48u);
  std::size_t total_networks = 0;
  for (const auto& [mac, device] : table.devices) {
    const auto networks = analysis::networks_of(table, mac);
    EXPECT_GE(networks.size(), 4u) << mac.to_string();
    total_networks += networks.size();
  }
  EXPECT_GE(total_networks, 48u * 4u);
}

TEST(Campaign, RotationPoolInferenceConvergesWithDays) {
  CampaignFixture f;
  CampaignOptions options;
  options.days = 7;
  const auto result =
      run_campaign(f.world.internet, f.clock, f.prober, f.targets, options);
  RotationPoolInference pools;
  pools.observe_all(result.observations);
  // Stride 236 over 1024 slots: 6 rotations span >= the whole /46.
  EXPECT_LE(pools.median_length().value_or(64), 47u);
}

TEST(Campaign, EmptyTargetsYieldEmptyResult) {
  CampaignFixture f;
  CampaignOptions options;
  options.days = 2;
  const auto result =
      run_campaign(f.world.internet, f.clock, f.prober, {}, options);
  EXPECT_EQ(result.probes_sent, 0u);
  EXPECT_TRUE(result.observations.empty());
  EXPECT_TRUE(result.allocation_length_by_as.empty());
}

TEST(Campaign, SameSeedSameTargetsEveryDay) {
  // The paper's temporal-consistency requirement: identical targets and
  // order daily. Two campaigns with the same options over fresh worlds
  // must send identical probe streams.
  CampaignFixture f1;
  CampaignFixture f2;
  CampaignOptions options;
  options.days = 2;
  const auto r1 =
      run_campaign(f1.world.internet, f1.clock, f1.prober, f1.targets,
                   options);
  const auto r2 =
      run_campaign(f2.world.internet, f2.clock, f2.prober, f2.targets,
                   options);
  ASSERT_EQ(r1.observations.size(), r2.observations.size());
  for (std::size_t i = 0; i < r1.observations.size(); ++i) {
    EXPECT_EQ(r1.observations.all()[i].target,
              r2.observations.all()[i].target);
    EXPECT_EQ(r1.observations.all()[i].response,
              r2.observations.all()[i].response);
  }
}

TEST(Campaign, OneSpanPerStageFeedsRegistryAndTraceRing) {
  // Each campaign stage is a single telemetry::Span with both sinks
  // attached: the registry's path tree and the "campaign" trace lane must
  // see the same three sweeps.
  CampaignFixture f;
  telemetry::Registry registry;
  registry.set_clock(&f.clock);
  f.prober.attach_telemetry(registry);
  telemetry::TraceCollector trace;
  registry.attach_trace(&trace);
  const std::string dir = std::string{::testing::TempDir()} +
                          "/scent_campaign_spans_" +
                          std::to_string(reinterpret_cast<std::uintptr_t>(&f));
  std::filesystem::create_directories(dir);
  CampaignOptions options;
  options.days = 3;
  options.registry = &registry;
  options.checkpoint_dir = dir;
  const auto result =
      run_campaign(f.world.internet, f.clock, f.prober, f.targets, options);
  ASSERT_EQ(result.daily.size(), 3u);

  const telemetry::SpanStats& sweep =
      registry.spans().at("campaign/day/sweep");
  EXPECT_EQ(sweep.count(), 3u);
  EXPECT_EQ(sweep.wall_ns.count(), 3u);
  EXPECT_GT(sweep.virtual_us, 0);
  EXPECT_EQ(registry.spans().at("campaign/day").count(), 3u);
  // Day 0 alone runs the allocation inference.
  EXPECT_EQ(registry.spans().at("campaign/day/alloc_infer").count(), 1u);
  // Shard-local batch slots fold in under the sweep that produced them.
  EXPECT_GT(registry.spans().at("campaign/day/sweep/ingest.batch").count(),
            0u);
  // The day's snapshot write splits into encoding (one span per write)
  // and the file write of each of its five sections.
  EXPECT_EQ(registry.spans().at("campaign/day/checkpoint").count(), 3u);
  EXPECT_EQ(
      registry.spans().at("campaign/day/checkpoint/snapshot.encode").count(),
      3u);
  EXPECT_EQ(registry.spans()
                .at("campaign/day/checkpoint/snapshot.section_write")
                .count(),
            3u * 5u);
  // The manifest rewrite that follows each snapshot is its own span.
  EXPECT_EQ(registry.spans().at("campaign/day/checkpoint/manifest").count(),
            3u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  std::size_t sweep_begins = 0;
  for (const auto& lane : trace.lanes()) {
    if (lane.name != "campaign") continue;
    for (const auto& event : lane.events) {
      if (event.type == telemetry::EventType::kBegin &&
          std::string{event.name} == "campaign.sweep") {
        ++sweep_begins;
      }
    }
  }
  EXPECT_EQ(sweep_begins, 3u);
}

}  // namespace
}  // namespace scent::core
