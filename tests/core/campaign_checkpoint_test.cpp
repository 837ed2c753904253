// Tests for checkpoint/resume campaigns (§5f): a run killed after day K
// and resumed from its checkpoint directory must produce a corpus, result
// and on-disk snapshot chain bit-identical to an uninterrupted run — at
// any thread count — and a corrupt chain must be discarded, not trusted.
// A run killed mid-day, before the day commits, must resume the same way.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bootstrap.h"
#include "core/campaign.h"
#include "corpus/checkpoint.h"
#include "probe/prober.h"
#include "sim/scenario.h"

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
    const auto& pool = world.internet.provider(world.versatel).pools()[0];
    for (std::uint64_t i = 0; i < 4; ++i) {
      targets.push_back(net::Prefix{
          pool.config().prefix.subnet(48, net::Uint128{i}).base(), 48});
    }
  }
};

struct TempDir {
  std::string path;
  explicit TempDir(const char* tag) {
    path = std::string{::testing::TempDir()} + "/scent_resume_" + tag + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<unsigned char> bytes;
  if (f == nullptr) return bytes;
  unsigned char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

/// Full-result equality: every observation column, the daily funnel, the
/// totals, the frozen allocation inference, and the rebuilt indexes.
void expect_same_result(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    ASSERT_EQ(a.observations.target(i), b.observations.target(i)) << i;
    ASSERT_EQ(a.observations.response(i), b.observations.response(i)) << i;
    ASSERT_EQ(a.observations.type_code(i), b.observations.type_code(i)) << i;
    ASSERT_EQ(a.observations.time(i), b.observations.time(i)) << i;
  }
  EXPECT_EQ(a.observations.unique_responses(),
            b.observations.unique_responses());
  EXPECT_EQ(a.observations.unique_eui64_iids(),
            b.observations.unique_eui64_iids());
  EXPECT_EQ(a.observations.by_mac().size(), b.observations.by_mac().size());
  ASSERT_EQ(a.daily.size(), b.daily.size());
  for (std::size_t d = 0; d < a.daily.size(); ++d) {
    EXPECT_EQ(a.daily[d].day, b.daily[d].day);
    EXPECT_EQ(a.daily[d].probes, b.daily[d].probes);
    EXPECT_EQ(a.daily[d].responses, b.daily[d].responses);
    EXPECT_EQ(a.daily[d].unique_eui64_iids, b.daily[d].unique_eui64_iids);
  }
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.allocation_length_by_as, b.allocation_length_by_as);
}

/// The on-disk chains must match byte for byte, snapshots and manifest.
void expect_same_chain(const std::string& dir_a, const std::string& dir_b,
                       unsigned days) {
  for (unsigned d = 0; d < days; ++d) {
    const std::string name = corpus::snapshot_file_name(d);
    EXPECT_EQ(slurp(dir_a + "/" + name), slurp(dir_b + "/" + name)) << name;
  }
  EXPECT_EQ(slurp(corpus::manifest_path(dir_a)),
            slurp(corpus::manifest_path(dir_b)));
}

CampaignResult run(CampaignFixture& f, unsigned days, const std::string& dir,
                   unsigned threads = 1) {
  CampaignOptions options;
  options.days = days;
  options.threads = threads;
  options.checkpoint_dir = dir;
  return run_campaign(f.world.internet, f.clock, f.prober, f.targets,
                      options);
}

TEST(CampaignCheckpoint, ResumeMatchesUninterrupted) {
  TempDir whole{"whole"};
  TempDir split{"split"};

  CampaignFixture uninterrupted;
  const auto expected = run(uninterrupted, 5, whole.path);
  ASSERT_TRUE(expected.checkpoint_ok);
  EXPECT_EQ(expected.resumed_days, 0u);

  // "Kill" after day 2 by running a shorter horizon, then resume with a
  // fresh process-equivalent: new world, new clock, new prober.
  CampaignFixture before_kill;
  const auto partial = run(before_kill, 2, split.path);
  ASSERT_TRUE(partial.checkpoint_ok);

  CampaignFixture resumed;
  const auto result = run(resumed, 5, split.path);
  ASSERT_TRUE(result.checkpoint_ok);
  EXPECT_EQ(result.resumed_days, 2u);
  expect_same_result(expected, result);
  expect_same_chain(whole.path, split.path, 5);
}

TEST(CampaignCheckpoint, ResumeIsThreadCountInvariant) {
  // §5d determinism across process boundaries AND shard counts: a 4-thread
  // resume of a 4-thread partial run must equal a 1-thread uninterrupted
  // campaign, chain included.
  TempDir serial{"serial"};
  TempDir threaded{"threaded"};

  CampaignFixture uninterrupted;
  const auto expected = run(uninterrupted, 4, serial.path, /*threads=*/1);

  CampaignFixture before_kill;
  (void)run(before_kill, 2, threaded.path, /*threads=*/4);
  CampaignFixture resumed;
  const auto result = run(resumed, 4, threaded.path, /*threads=*/4);
  EXPECT_EQ(result.resumed_days, 2u);
  expect_same_result(expected, result);
  expect_same_chain(serial.path, threaded.path, 4);
}

TEST(CampaignCheckpoint, CheckpointingDoesNotPerturbTheResult) {
  TempDir dir{"inert"};
  CampaignFixture plain;
  CampaignOptions options;
  options.days = 3;
  const auto expected = run_campaign(plain.world.internet, plain.clock,
                                     plain.prober, plain.targets, options);
  CampaignFixture checkpointed;
  const auto result = run(checkpointed, 3, dir.path);
  expect_same_result(expected, result);
}

TEST(CampaignCheckpoint, ShorterHorizonReplaysPrefixWithoutProbing) {
  TempDir dir{"prefix"};
  CampaignFixture longer;
  (void)run(longer, 4, dir.path);

  CampaignFixture plain;
  CampaignOptions options;
  options.days = 2;
  const auto expected = run_campaign(plain.world.internet, plain.clock,
                                     plain.prober, plain.targets, options);

  CampaignFixture resumed;
  const auto result = run(resumed, 2, dir.path);
  EXPECT_EQ(result.resumed_days, 2u);
  // Everything came from the chain: the prober never went on the wire.
  EXPECT_EQ(resumed.prober.counters().sent, 0u);
  expect_same_result(expected, result);
}

TEST(CampaignCheckpoint, CorruptManifestStartsFresh) {
  TempDir dir{"badmanifest"};
  {
    std::FILE* f =
        std::fopen(corpus::manifest_path(dir.path).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a manifest\n", f);
    std::fclose(f);
  }
  CampaignFixture plain;
  CampaignOptions options;
  options.days = 2;
  const auto expected = run_campaign(plain.world.internet, plain.clock,
                                     plain.prober, plain.targets, options);

  CampaignFixture fresh;
  const auto result = run(fresh, 2, dir.path);
  EXPECT_EQ(result.resumed_days, 0u);
  ASSERT_TRUE(result.checkpoint_ok);
  expect_same_result(expected, result);
  // The rewritten chain is valid again.
  const auto reloaded = corpus::load_checkpoint(dir.path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->days.size(), 2u);
}

TEST(CampaignCheckpoint, CorruptSnapshotChainStartsFresh) {
  TempDir dir{"badsnap"};
  CampaignFixture first;
  (void)run(first, 2, dir.path);

  // Flip one byte inside day 0's snapshot; the manifest still parses, but
  // replay must reject the chain and start over.
  const std::string day0 = dir.path + "/" + corpus::snapshot_file_name(0);
  {
    std::FILE* f = std::fopen(day0.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
    int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
    std::fputc(byte ^ 0x10, f);
    std::fclose(f);
  }

  CampaignFixture plain;
  CampaignOptions options;
  options.days = 3;
  const auto expected = run_campaign(plain.world.internet, plain.clock,
                                     plain.prober, plain.targets, options);

  CampaignFixture fresh;
  const auto result = run(fresh, 3, dir.path);
  EXPECT_EQ(result.resumed_days, 0u);
  expect_same_result(expected, result);
}

TEST(CampaignCheckpoint, DifferentSeedDiscardsTheCheckpoint) {
  TempDir dir{"seed"};
  CampaignFixture first;
  (void)run(first, 2, dir.path);

  CampaignFixture second;
  CampaignOptions options;
  options.days = 2;
  options.seed = 0xD1FF;
  options.checkpoint_dir = dir.path;
  const auto result = run_campaign(second.world.internet, second.clock,
                                   second.prober, second.targets, options);
  EXPECT_EQ(result.resumed_days, 0u);
  EXPECT_EQ(result.daily.size(), 2u);
}

TEST(CampaignCheckpoint, ExtendingACompletedCampaign) {
  // A finished 2-day campaign re-run with days=5 continues from day 2.
  TempDir dir{"extend"};
  TempDir whole{"extend_whole"};
  CampaignFixture uninterrupted;
  const auto expected = run(uninterrupted, 5, whole.path);

  CampaignFixture first;
  (void)run(first, 2, dir.path);
  CampaignFixture extended;
  const auto result = run(extended, 5, dir.path);
  EXPECT_EQ(result.resumed_days, 2u);
  expect_same_result(expected, result);
  expect_same_chain(whole.path, dir.path, 5);
}

/// A stride rotator and a static allocator, both with service churn: the
/// bootstrap finds rotating /48s and every campaign day differs.
sim::Internet make_churn_world(std::uint64_t seed) {
  sim::WorldBuilder builder{seed};
  {
    sim::ProviderSpec spec;
    spec.asn = 65201;
    spec.name = "ChurnRotator";
    spec.country = "DE";
    spec.advertisement = *net::Prefix::parse("2001:3333::/32");
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
    spec.asn = 65202;
    spec.name = "ChurnStatic";
    spec.country = "VN";
    spec.advertisement = *net::Prefix::parse("2001:4444::/32");
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

TEST(CampaignCheckpoint, MidDayAbortResumesBitIdentically) {
  // Kill a bootstrapped 4-thread campaign after day 1 has
  // swept but before it commits, resume from the surviving chain, and
  // demand the final result and chain match an uninterrupted run's: a
  // swept but uncommitted day leaves no trace.
  const std::uint64_t seed = 0x77;
  const unsigned threads = 4;
  probe::ProberOptions prober_options;
  prober_options.wire_mode = false;
  prober_options.packets_per_second = 2000000;

  BootstrapOptions boot;
  boot.seed = seed ^ 0xF00D;
  boot.probes_per_48 = 4;
  boot.threads = threads;

  TempDir dir{"abort"};
  CampaignOptions campaign;
  campaign.days = 3;
  campaign.seed = seed ^ 0xCA3B;
  campaign.threads = threads;
  campaign.checkpoint_dir = dir.path;

  struct MidDayAbort : std::runtime_error {
    MidDayAbort() : std::runtime_error{"mid-day abort"} {}
  };

  std::vector<net::Prefix> targets;
  {
    sim::Internet world = make_churn_world(seed);
    sim::VirtualClock clock{sim::hours(10)};
    probe::Prober prober{world, clock, prober_options};
    targets = run_bootstrap(world, clock, prober, boot).rotating_48s;
    ASSERT_FALSE(targets.empty());

    // The campaign's absolute day index depends on how far bootstrap
    // advanced the clock; abort relative to the first day seen.
    CampaignOptions abort_options = campaign;
    std::int64_t first_seen = -1;
    abort_options.on_day_progress = [&first_seen](std::int64_t day,
                                                  std::size_t rows) {
      if (first_seen < 0) first_seen = day;
      if (day > first_seen && rows > 0) throw MidDayAbort{};
    };
    EXPECT_THROW(
        (void)run_campaign(world, clock, prober, targets, abort_options),
        MidDayAbort);
  }
  // Day 0 committed before the abort; day 1 must not have.
  ASSERT_TRUE(std::filesystem::exists(dir.path + "/day_0000.snap"));
  ASSERT_FALSE(std::filesystem::exists(dir.path + "/day_0001.snap"));

  // Resume in a fresh process-equivalent: new world, new clock, same dir.
  const auto campaign_in_fresh_world = [&](const CampaignOptions& options) {
    sim::Internet world = make_churn_world(seed);
    sim::VirtualClock clock{sim::hours(10)};
    probe::Prober prober{world, clock, prober_options};
    EXPECT_EQ(run_bootstrap(world, clock, prober, boot).rotating_48s,
              targets);
    return run_campaign(world, clock, prober, targets, options);
  };
  const CampaignResult resumed = campaign_in_fresh_world(campaign);
  EXPECT_EQ(resumed.resumed_days, 1u);

  // Uninterrupted reference, own directory.
  TempDir whole_dir{"abort_whole"};
  CampaignOptions whole_options = campaign;
  whole_options.checkpoint_dir = whole_dir.path;
  const CampaignResult whole = campaign_in_fresh_world(whole_options);
  EXPECT_EQ(whole.resumed_days, 0u);

  // The resumed run restored day 0's totals from the manifest, so the
  // whole result — corpus, daily funnel, totals, inference — matches.
  expect_same_result(whole, resumed);
  expect_same_chain(whole_dir.path, dir.path, campaign.days);
}

}  // namespace
}  // namespace scent::core
