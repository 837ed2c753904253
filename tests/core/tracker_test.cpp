// Tests for the §6 tracking attack against simulated ground truth.
#include "core/tracker.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "probe/prober.h"
#include "sim/scenario.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"

namespace scent::core {
namespace {

class TrackerTest : public ::testing::Test {
 protected:
  TrackerTest()
      : world_(sim::make_tiny_world(11, 32)), clock_(sim::hours(12)),
        prober_(world_.internet, clock_) {}

  const sim::Provider& rotator() {
    return world_.internet.provider(world_.versatel);
  }

  TrackerConfig config_for_device(std::size_t device_index) {
    TrackerConfig c;
    c.target_mac = rotator().pools()[0].devices()[device_index].mac;
    c.pool = rotator().pools()[0].config().prefix;
    c.allocation_length = rotator().pools()[0].config().allocation_length;
    c.seed = 0x7AC;
    return c;
  }

  sim::PaperWorld world_;
  sim::VirtualClock clock_;
  probe::Prober prober_;
};

TEST_F(TrackerTest, FindsDeviceInItsCurrentAllocation) {
  Tracker tracker{prober_, config_for_device(5)};
  const TrackAttempt attempt = tracker.locate(0);
  ASSERT_TRUE(attempt.found);
  EXPECT_EQ(attempt.address,
            rotator().wan_address({0, 5}, clock_.now()));
  EXPECT_LE(attempt.probes_sent, 1024u);
  EXPECT_FALSE(attempt.found_by_prediction);
}

TEST_F(TrackerTest, ReFindsDeviceAfterEveryRotation) {
  Tracker tracker{prober_, config_for_device(7)};
  std::set<std::uint64_t> networks;
  for (std::int64_t day = 0; day < 5; ++day) {
    clock_.advance_to(sim::days(day) + sim::hours(12));
    const TrackAttempt attempt = tracker.locate(day);
    ASSERT_TRUE(attempt.found) << "day " << day;
    // Verify against ground truth.
    EXPECT_EQ(attempt.address, rotator().wan_address({0, 7}, clock_.now()));
    networks.insert(attempt.address.network());
  }
  // The device rotated daily: five distinct prefixes, one immutable IID.
  EXPECT_EQ(networks.size(), 5u);
  EXPECT_EQ(tracker.sightings().size(), 5u);
}

TEST_F(TrackerTest, ProbeCostBoundedByPoolSlots) {
  // One probe per /56 of the /46 pool: never more than 1024.
  Tracker tracker{prober_, config_for_device(0)};
  for (std::int64_t day = 0; day < 3; ++day) {
    clock_.advance_to(sim::days(day) + sim::hours(12));
    const TrackAttempt attempt = tracker.locate(day);
    ASSERT_TRUE(attempt.found);
    EXPECT_LE(attempt.probes_sent, 1024u);
  }
}

TEST_F(TrackerTest, WrongAllocationSizeCanMissDevice) {
  // Probing one address per /52 (too coarse, 64 probes) lands in the
  // device's actual /56 only by luck; probing per /64 within the pool
  // would always find it but costs 256x more than per-/56.
  TrackerConfig coarse = config_for_device(3);
  coarse.allocation_length = 52;
  Tracker tracker{prober_, coarse};
  const TrackAttempt attempt = tracker.locate(0);
  // The /52 sweep probes 64 random /52-blocks; the probe within the
  // device's /52 lands in one of its 16 /56s. Either way, the cost is 64.
  EXPECT_LE(attempt.probes_sent, 64u);
}

TEST_F(TrackerTest, UpdatePredictionLearnsStride) {
  Tracker tracker{prober_, config_for_device(9)};
  for (std::int64_t day = 0; day < 3; ++day) {
    clock_.advance_to(sim::days(day) + sim::hours(12));
    ASSERT_TRUE(tracker.locate(day).found);
  }
  ASSERT_TRUE(tracker.update_prediction());
  ASSERT_TRUE(tracker.config().prediction.has_value());
  EXPECT_EQ(tracker.config().prediction->stride, 236u);
}

TEST_F(TrackerTest, PredictionCollapsesProbeCost) {
  Tracker tracker{prober_, config_for_device(9)};
  for (std::int64_t day = 0; day < 3; ++day) {
    clock_.advance_to(sim::days(day) + sim::hours(12));
    ASSERT_TRUE(tracker.locate(day).found);
  }
  ASSERT_TRUE(tracker.update_prediction());

  clock_.advance_to(sim::days(3) + sim::hours(12));
  const TrackAttempt attempt = tracker.locate(3);
  ASSERT_TRUE(attempt.found);
  EXPECT_TRUE(attempt.found_by_prediction);
  // Predicted slot first: found within the tiny neighborhood.
  EXPECT_LE(attempt.probes_sent, 5u);
  EXPECT_EQ(attempt.address, rotator().wan_address({0, 9}, clock_.now()));
}

TEST_F(TrackerTest, DeviceOutsidePoolIsNotFound) {
  TrackerConfig config = config_for_device(0);
  // Search the wrong /46.
  config.pool = *net::Prefix::parse("2001:db8:200::/46");
  Tracker tracker{prober_, config};
  const TrackAttempt attempt = tracker.locate(0);
  EXPECT_FALSE(attempt.found);
  EXPECT_EQ(attempt.probes_sent, 1024u);  // exhausted the pool
}

TEST_F(TrackerTest, StaticProviderDeviceIsTriviallyTracked) {
  const sim::Provider& stat = world_.internet.provider(world_.viettel);
  TrackerConfig config;
  config.target_mac = stat.pools()[0].devices()[2].mac;
  config.pool = stat.pools()[0].config().prefix;
  config.allocation_length = stat.pools()[0].config().allocation_length;
  config.seed = 3;
  Tracker tracker{prober_, config};
  std::set<std::uint64_t> networks;
  for (std::int64_t day = 0; day < 3; ++day) {
    clock_.advance_to(sim::days(day) + sim::hours(12));
    const TrackAttempt attempt = tracker.locate(day);
    ASSERT_TRUE(attempt.found);
    networks.insert(attempt.address.network());
  }
  EXPECT_EQ(networks.size(), 1u);  // never moved
}

TEST_F(TrackerTest, JournalDropsLandInTheRegistry) {
  // A tracker-only run whose journal fills the disk must still show the
  // lost events as journal.dropped. /dev/full accepts buffered writes and
  // fails them once the stdio buffer flushes.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full not available";
  std::fclose(probe);

  telemetry::Registry registry;
  telemetry::Journal journal;
  ASSERT_TRUE(journal.open("/dev/full"));
  registry.attach_journal(&journal);
  TrackerConfig config = config_for_device(5);
  config.registry = &registry;
  Tracker tracker{prober_, config};
  // ~60-byte events: a few hundred overflow any stdio buffer.
  for (std::int64_t day = 0; day < 300; ++day) (void)tracker.locate(day);

  EXPECT_GT(journal.events_dropped(), 0u);
  EXPECT_EQ(registry.counter("journal.dropped").value(),
            journal.events_dropped());
}

}  // namespace
}  // namespace scent::core
