// Property suite for the engine's determinism contract: the full
// bootstrap-funnel + campaign pipeline run through the sharded executor
// must produce a bit-identical corpus — every observation field, every
// derived prefix set, every funnel number — at ANY thread count. Each
// (scenario, seed, threads) cell builds a fresh world and is compared
// field-by-field against a cached threads=1 reference from an identical
// world.
//
// Under ThreadSanitizer the matrix shrinks (TSan runs ~15x slower) but
// still crosses both scenarios with real multi-threaded runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/bootstrap.h"
#include "core/campaign.h"
#include "core/observation.h"
#include "netbase/mac_address.h"
#include "netbase/prefix.h"
#include "probe/prober.h"
#include "sim/scenario.h"
#include "sim/sim_time.h"

namespace scent {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

enum class Scenario { kPaperWorld, kChurn };

const char* scenario_name(Scenario s) {
  return s == Scenario::kPaperWorld ? "paper_world" : "churn";
}

/// A fresh simulated Internet per run: equivalence must hold between two
/// *independently constructed* identical worlds, not merely two sweeps of
/// one world instance.
sim::Internet make_world(Scenario scenario, std::uint64_t seed) {
  if (scenario == Scenario::kPaperWorld) {
    sim::PaperWorldOptions options;
    options.seed = seed;
    options.tail_as_count = 2;
    options.scale = kTsan ? 0.04 : 0.08;
    options.devices_per_tail_pool = kTsan ? 12 : 24;
    options.versatel_pool_count = 2;
    options.tail_churn = 0.25;
    options.inject_pathologies = true;
    return std::move(sim::make_paper_world(options).internet);
  }

  // Churn scenario: a rotator and a static allocator whose customers join
  // and leave mid-campaign — the §4.3 false-positive source. Bounded
  // service intervals must not disturb determinism because activity is a
  // pure function of (device, t).
  sim::WorldBuilder builder{seed};
  {
    sim::ProviderSpec spec;
    spec.asn = 65101;
    spec.name = "ChurnRotator";
    spec.country = "DE";
    spec.advertisement = *net::Prefix::parse("2001:1111::/32");
    spec.vendors = {{net::Oui{0x3810d5}, 1.0}};
    sim::PoolSpec pool;
    pool.pool_length = 48;
    pool.allocation_length = 56;
    pool.rotation.kind = sim::RotationPolicy::Kind::kStride;
    pool.rotation.stride = 97;
    pool.device_count = 200;
    spec.pools = {pool};
    spec.eui64_fraction = 0.9;
    spec.churn_fraction = 0.35;
    builder.add_provider(spec);
  }
  {
    sim::ProviderSpec spec;
    spec.asn = 65102;
    spec.name = "ChurnStatic";
    spec.country = "VN";
    spec.advertisement = *net::Prefix::parse("2001:2222::/32");
    spec.vendors = {{net::Oui{0x98f428}, 1.0}};
    sim::PoolSpec pool;
    pool.pool_length = 48;
    pool.allocation_length = 60;
    pool.device_count = 1000;
    spec.pools = {pool};
    spec.eui64_fraction = 0.8;
    spec.churn_fraction = 0.5;
    builder.add_provider(spec);
  }
  return builder.take();
}

struct PipelineRun {
  core::BootstrapResult boot;
  core::CampaignResult campaign;
};

PipelineRun run_pipeline(Scenario scenario, std::uint64_t seed,
                         unsigned threads) {
  sim::Internet internet = make_world(scenario, seed);
  // 10:00 — outside the 00:00-06:00 rotation window, like a real campaign
  // (a bootstrap whose snapshots straddle mid-rotation churn is a
  // different experiment).
  sim::VirtualClock clock{sim::hours(10)};

  probe::ProberOptions prober_options;
  prober_options.wire_mode = false;
  prober_options.packets_per_second = 2000000;
  probe::Prober prober{internet, clock, prober_options};

  PipelineRun run;
  core::BootstrapOptions boot;
  boot.seed = seed ^ 0xF00D;
  boot.probes_per_48 = 4;
  boot.threads = threads;
  run.boot = core::run_bootstrap(internet, clock, prober, boot);

  core::CampaignOptions campaign;
  campaign.days = kTsan ? 2 : 3;
  campaign.seed = seed ^ 0xCA3B;
  campaign.threads = threads;
  run.campaign = core::run_campaign(internet, clock, prober,
                                    run.boot.rotating_48s, campaign);
  return run;
}

/// Observation has no operator== (and padding forbids memcmp); compare
/// every field of every element, in order.
void expect_same_corpus(const core::ObservationStore& want,
                        const core::ObservationStore& got) {
  ASSERT_EQ(want.size(), got.size());
  const auto& a = want.all();
  const auto& b = got.all();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].target, b[i].target) << "observation " << i;
    ASSERT_EQ(a[i].response, b[i].response) << "observation " << i;
    ASSERT_EQ(a[i].type, b[i].type) << "observation " << i;
    ASSERT_EQ(a[i].code, b[i].code) << "observation " << i;
    ASSERT_EQ(a[i].time, b[i].time) << "observation " << i;
  }
  EXPECT_EQ(want.unique_responses(), got.unique_responses());
  EXPECT_EQ(want.unique_eui64_responses(), got.unique_eui64_responses());
  EXPECT_EQ(want.unique_eui64_iids(), got.unique_eui64_iids());
}

void expect_same_run(const PipelineRun& want, const PipelineRun& got) {
  // Bootstrap: every derived prefix set...
  EXPECT_EQ(want.boot.seed_48s, got.boot.seed_48s);
  EXPECT_EQ(want.boot.seed_32s, got.boot.seed_32s);
  EXPECT_EQ(want.boot.expanded_48s, got.boot.expanded_48s);
  EXPECT_EQ(want.boot.high_density_48s, got.boot.high_density_48s);
  EXPECT_EQ(want.boot.low_density_48s, got.boot.low_density_48s);
  EXPECT_EQ(want.boot.unresponsive_48s, got.boot.unresponsive_48s);
  EXPECT_EQ(want.boot.rotating_48s, got.boot.rotating_48s);
  // ...every rotation verdict...
  ASSERT_EQ(want.boot.verdicts.size(), got.boot.verdicts.size());
  for (std::size_t i = 0; i < want.boot.verdicts.size(); ++i) {
    EXPECT_EQ(want.boot.verdicts[i].prefix, got.boot.verdicts[i].prefix);
    EXPECT_EQ(want.boot.verdicts[i].rotating, got.boot.verdicts[i].rotating);
    EXPECT_EQ(want.boot.verdicts[i].eui_targets,
              got.boot.verdicts[i].eui_targets);
    EXPECT_EQ(want.boot.verdicts[i].changed, got.boot.verdicts[i].changed);
  }
  // ...the funnel accounting...
  EXPECT_EQ(want.boot.probes_sent, got.boot.probes_sent);
  EXPECT_EQ(want.boot.total_addresses, got.boot.total_addresses);
  EXPECT_EQ(want.boot.eui64_addresses, got.boot.eui64_addresses);
  EXPECT_EQ(want.boot.unique_iids, got.boot.unique_iids);
  // ...and the observation corpus itself, byte for byte.
  expect_same_corpus(want.boot.observations, got.boot.observations);

  // Campaign: daily funnel, inferred allocations, corpus.
  EXPECT_EQ(want.campaign.probes_sent, got.campaign.probes_sent);
  EXPECT_EQ(want.campaign.responses, got.campaign.responses);
  EXPECT_EQ(want.campaign.allocation_length_by_as,
            got.campaign.allocation_length_by_as);
  ASSERT_EQ(want.campaign.daily.size(), got.campaign.daily.size());
  for (std::size_t d = 0; d < want.campaign.daily.size(); ++d) {
    EXPECT_EQ(want.campaign.daily[d].day, got.campaign.daily[d].day);
    EXPECT_EQ(want.campaign.daily[d].probes, got.campaign.daily[d].probes);
    EXPECT_EQ(want.campaign.daily[d].responses,
              got.campaign.daily[d].responses);
    EXPECT_EQ(want.campaign.daily[d].unique_eui64_iids,
              got.campaign.daily[d].unique_eui64_iids);
  }
  expect_same_corpus(want.campaign.observations, got.campaign.observations);
}

TEST(EngineEquivalence, ParallelPipelineIsBitIdenticalToSerial) {
  const std::vector<std::uint64_t> seeds =
      kTsan ? std::vector<std::uint64_t>{0x11}
            : std::vector<std::uint64_t>{0x11, 0x22, 0x33};
  const std::vector<unsigned> thread_counts =
      kTsan ? std::vector<unsigned>{2, 8}
            : std::vector<unsigned>{1, 2, 4, 8};

  for (const Scenario scenario : {Scenario::kPaperWorld, Scenario::kChurn}) {
    for (const std::uint64_t seed : seeds) {
      SCOPED_TRACE(testing::Message()
                   << scenario_name(scenario) << " seed=0x" << std::hex
                   << seed);
      const PipelineRun reference = run_pipeline(scenario, seed, 1);
      // The reference must itself be nontrivial, or equivalence is vacuous.
      ASSERT_FALSE(reference.boot.rotating_48s.empty());
      ASSERT_GT(reference.campaign.observations.size(), 0u);

      for (const unsigned threads : thread_counts) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        const PipelineRun parallel = run_pipeline(scenario, seed, threads);
        expect_same_run(reference, parallel);
      }
    }
  }
}

TEST(EngineEquivalence, HardwareThreadCountAlsoMatches) {
  // threads=0 resolves to hardware concurrency — whatever this host has
  // must land on the same corpus too.
  const PipelineRun reference =
      run_pipeline(Scenario::kChurn, 0x44, 1);
  const PipelineRun hardware =
      run_pipeline(Scenario::kChurn, 0x44, 0);
  expect_same_run(reference, hardware);
}

}  // namespace
}  // namespace scent
