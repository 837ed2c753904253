// Pins what one registry, one journal and one trace collector record
// across the whole pipeline: the §4 discovery funnel, a checkpointing §5
// campaign that feeds a ServeTable, and §6 tracker attempts. The journal's
// event counts, the trace lane names and the registry's span paths must
// not move when the way the sinks are wired into each layer changes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "core/bootstrap.h"
#include "core/campaign.h"
#include "core/tracker.h"
#include "probe/prober.h"
#include "serve/serve_table.h"
#include "sim/scenario.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "test_util.h"

namespace scent::core {
namespace {

using namespace scent;

using test::TempDir;

TEST(TelemetrySinks, FunnelCampaignServeTrackerShareOneSetOfSinks) {
  constexpr unsigned kThreads = 2;
  constexpr unsigned kDays = 3;
  constexpr unsigned kAttempts = 4;

  sim::PaperWorld world = sim::make_tiny_world(0x51C, 48);
  sim::VirtualClock clock{sim::hours(10)};
  probe::Prober prober{world.internet, clock,
                       {.packets_per_second = 2000000, .wire_mode = false}};
  TempDir dir{"pipeline"};
  const std::string journal_path = dir.path + "/journal.jsonl";
  const std::string checkpoint_dir = dir.path + "/chain";
  std::filesystem::create_directories(checkpoint_dir);

  telemetry::Registry registry;
  registry.set_clock(&clock);
  prober.attach_telemetry(registry);
  telemetry::Journal journal;
  ASSERT_TRUE(journal.open(journal_path));
  journal.set_clock(&clock);
  registry.attach_journal(&journal);
  telemetry::TraceCollector trace;
  registry.attach_trace(&trace);

  BootstrapOptions boot;
  boot.probes_per_48 = 2;
  boot.threads = kThreads;
  boot.registry = &registry;
  const BootstrapResult funnel =
      run_bootstrap(world.internet, clock, prober, boot);
  ASSERT_FALSE(funnel.rotating_48s.empty());

  serve::ServeOptions serve_options;
  serve_options.threads = kThreads;
  serve_options.bgp = &world.internet.bgp();
  serve_options.registry = &registry;
  serve::ServeTable table{serve_options};

  CampaignOptions options;
  options.days = kDays;
  options.threads = kThreads;
  options.checkpoint_dir = checkpoint_dir;
  options.serve = &table;
  options.registry = &registry;
  const CampaignResult campaign = run_campaign(
      world.internet, clock, prober, funnel.rotating_48s, options);
  ASSERT_EQ(campaign.daily.size(), kDays);
  ASSERT_TRUE(campaign.checkpoint_ok);

  const sim::RotationPool& pool =
      world.internet.provider(world.versatel).pools()[0];
  TrackerConfig config;
  config.target_mac = pool.devices()[3].mac;
  config.pool = pool.config().prefix;
  config.allocation_length = pool.config().allocation_length;
  config.seed = 0x7AC;
  config.registry = &registry;
  Tracker tracker{prober, config};
  const std::int64_t first_day = sim::day_of(clock.now()) + 1;
  for (std::int64_t day = first_day; day < first_day + kAttempts; ++day) {
    clock.advance_to(day * sim::kDay + sim::hours(12));
    (void)tracker.locate(day);
  }
  ASSERT_TRUE(journal.close());

  // Journal: event types and counts.
  const auto events = telemetry::load_journal(journal_path);
  ASSERT_TRUE(events.has_value());
  std::map<std::string, std::size_t> counts;
  for (const auto& event : *events) ++counts[event.type];
  const std::size_t attempts = counts["tracker_hit"] + counts["tracker_miss"];
  counts.erase("tracker_hit");
  counts.erase("tracker_miss");
  EXPECT_EQ(attempts, kAttempts);
  const std::map<std::string, std::size_t> expected_counts{
      {"funnel", 1},
      {"rotation_window_detected", funnel.rotating_48s.size()},
      {"day_funnel", kDays},
      {"checkpoint_saved", kDays},
  };
  EXPECT_EQ(counts, expected_counts);
  EXPECT_EQ(registry.counter("tracker.attempts").value(), kAttempts);

  // Trace: one lane set across the funnel, the campaign and serving.
  std::set<std::string> lanes;
  for (const auto& lane : trace.lanes()) lanes.insert(lane.name);
  std::set<std::string> expected_lanes{"campaign", "serve"};
  for (unsigned s = 0; s < kThreads; ++s) {
    for (const char* layer : {"sweep", "ingest", "analysis"}) {
      expected_lanes.insert(std::string{layer} + " shard " +
                            std::to_string(s));
    }
  }
  EXPECT_EQ(lanes, expected_lanes);

  // Registry: the span paths every layer nests under.
  const auto& spans = registry.spans();
  for (const char* path :
       {"bootstrap", "bootstrap/seed", "bootstrap/seed/sweep.unit",
        "bootstrap/expand", "bootstrap/density", "bootstrap/rotation",
        "bootstrap/rotation/analysis.scan",
        "bootstrap/rotation/analysis.scan/analysis.scan_shard", "campaign",
        "campaign/day", "campaign/day/sweep", "campaign/day/sweep/sweep.unit",
        "campaign/day/sweep/ingest.batch", "campaign/day/ingest",
        "campaign/day/alloc_infer", "campaign/day/alloc_infer/analysis.scan",
        "campaign/day/checkpoint", "campaign/day/checkpoint/snapshot.encode",
        "campaign/day/checkpoint/snapshot.section_write",
        "campaign/day/serve.delta_apply", "tracker.locate"}) {
    EXPECT_TRUE(spans.contains(path)) << path;
  }
  EXPECT_EQ(spans.at("campaign/day").count(), kDays);
  EXPECT_EQ(spans.at("campaign/day/sweep").count(), kDays);
  EXPECT_GT(spans.at("campaign/day/sweep/sweep.unit").count(), 0u);
  EXPECT_EQ(spans.at("tracker.locate").count(), kAttempts);
}

}  // namespace
}  // namespace scent::core
