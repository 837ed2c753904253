// Campaign integration for the serve sink: the ServeTable a campaign
// maintains must answer identically at any thread count, match a fresh
// fused rebuild of the whole campaign corpus, never run ahead of the
// durable chain when a day aborts, and survive kill+resume — a campaign
// resumed from its checkpoint chain re-applies the restored days as
// deltas and then serves exactly what an uninterrupted run serves.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "core/campaign.h"
#include "probe/prober.h"
#include "serve/serve_table.h"
#include "sim/scenario.h"

#include "serve_test_util.h"

namespace scent::serve {
namespace {

using test::expect_same_table;
using test::kTsan;

struct CampaignFixture {
  sim::PaperWorld world;
  sim::VirtualClock clock{sim::hours(10)};
  probe::Prober prober;
  std::vector<net::Prefix> targets;

  CampaignFixture()
      : world(sim::make_tiny_world(0x5EE, 48)),
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
    path = std::string{::testing::TempDir()} + "/scent_serve_" + tag + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Versions from distinct campaign runs attributed against distinct
/// BgpTable instances, so ad pointers are compared by null-ness only.
void expect_same_version(const TableVersion& a, const TableVersion& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.delta_rows, b.delta_rows);
  expect_same_table(a.table, b.table, /*same_bgp=*/false);
  EXPECT_EQ(a.day_window.map(), b.day_window.map());
  EXPECT_EQ(a.prev_window.map(), b.prev_window.map());
}

TEST(ServeCampaign, OneAndFourThreadsServeIdentically) {
  const unsigned days = 4;
  const unsigned thread_counts[2] = {1, 4};
  std::shared_ptr<const TableVersion> versions[2];
  core::ObservationStore corpora[2];
  for (const int i : {0, 1}) {
    CampaignFixture f;
    ServeOptions serve_options;
    serve_options.bgp = &f.world.internet.bgp();
    serve_options.threads = thread_counts[i];
    ServeTable table{serve_options};

    core::CampaignOptions options;
    options.days = days;
    options.threads = thread_counts[i];
    options.serve = &table;
    auto result = run_campaign(f.world.internet, f.clock, f.prober,
                               f.targets, options);
    ASSERT_EQ(table.versions_published(), days);
    versions[i] = table.current();
    corpora[i] = std::move(result.observations);
  }
  ASSERT_NE(versions[0], nullptr);
  ASSERT_NE(versions[1], nullptr);
  ASSERT_EQ(corpora[0].size(), corpora[1].size());
  expect_same_version(*versions[0], *versions[1]);
}

TEST(ServeCampaign, MaintainedTableMatchesFreshRebuildOfCorpus) {
  CampaignFixture f;
  ServeOptions serve_options;
  serve_options.bgp = &f.world.internet.bgp();
  serve_options.threads = 2;
  ServeTable table{serve_options};

  core::CampaignOptions options;
  options.days = 4;
  options.threads = 2;
  options.serve = &table;
  const auto result = run_campaign(f.world.internet, f.clock, f.prober,
                                   f.targets, options);

  const auto version = table.current();
  ASSERT_NE(version, nullptr);
  const analysis::AggregateTable fresh =
      analysis::analyze(result.observations, &f.world.internet.bgp());
  expect_same_table(fresh, version->table);
  EXPECT_EQ(version->table.rows_scanned, result.observations.size());
}

TEST(ServeCampaign, ThrowingProgressHookLeavesPreviousVersionPublished) {
  // A day that aborts before it commits must not be served: the table
  // stays on the last committed day's version, in step with the chain.
  struct DayAbort {};
  CampaignFixture f;
  ServeOptions serve_options;
  serve_options.bgp = &f.world.internet.bgp();
  serve_options.threads = 2;
  ServeTable table{serve_options};

  core::CampaignOptions options;
  options.days = 3;
  options.threads = 2;
  options.serve = &table;
  std::int64_t first_day = -1;
  options.on_day_progress = [&first_day](std::int64_t day, std::size_t) {
    if (first_day < 0) first_day = day;
    if (day > first_day) throw DayAbort{};
  };
  EXPECT_THROW((void)run_campaign(f.world.internet, f.clock, f.prober,
                                  f.targets, options),
               DayAbort);

  EXPECT_EQ(table.versions_published(), 1u);
  const auto version = table.current();
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->version, 1u);
  EXPECT_EQ(version->day, first_day);
}

TEST(ServeCampaign, KilledAndResumedCampaignServesIdentically) {
  const unsigned days = kTsan ? 4 : 6;
  const unsigned kill_after = days / 2;

  // Uninterrupted reference run.
  std::shared_ptr<const TableVersion> uninterrupted;
  {
    CampaignFixture f;
    TempDir dir{"uninterrupted"};
    ServeOptions serve_options;
    serve_options.bgp = &f.world.internet.bgp();
    serve_options.threads = 2;
    ServeTable table{serve_options};
    core::CampaignOptions options;
    options.days = days;
    options.threads = 2;
    options.checkpoint_dir = dir.path;
    options.serve = &table;
    (void)run_campaign(f.world.internet, f.clock, f.prober, f.targets,
                       options);
    uninterrupted = table.current();
  }
  ASSERT_NE(uninterrupted, nullptr);

  // Killed run: only kill_after days complete (modeling the ServeTable
  // dying with the process), then a resumed run with a FRESH ServeTable
  // replays the chain and finishes the remaining days — at a different
  // thread count, to stack the determinism contracts.
  TempDir dir{"resumed"};
  {
    CampaignFixture f;
    ServeOptions serve_options;
    serve_options.bgp = &f.world.internet.bgp();
    ServeTable table{serve_options};
    core::CampaignOptions options;
    options.days = kill_after;
    options.threads = 2;
    options.checkpoint_dir = dir.path;
    options.serve = &table;
    (void)run_campaign(f.world.internet, f.clock, f.prober, f.targets,
                       options);
    ASSERT_EQ(table.versions_published(), kill_after);
  }
  CampaignFixture f;
  ServeOptions serve_options;
  serve_options.bgp = &f.world.internet.bgp();
  serve_options.threads = kTsan ? 8 : 4;
  ServeTable table{serve_options};
  core::CampaignOptions options;
  options.days = days;
  options.threads = kTsan ? 8 : 4;
  options.checkpoint_dir = dir.path;
  options.serve = &table;
  const auto result = run_campaign(f.world.internet, f.clock, f.prober,
                                   f.targets, options);
  EXPECT_EQ(result.resumed_days, kill_after);
  // Replayed days publish versions too: the resumed table went through
  // the same number of applies as the uninterrupted one.
  ASSERT_EQ(table.versions_published(), days);

  const auto resumed = table.current();
  ASSERT_NE(resumed, nullptr);
  expect_same_version(*uninterrupted, *resumed);
}

}  // namespace
}  // namespace scent::serve
