// Tests for the flight-recorder ring and the shard-merge collector:
// wrap/overflow accounting, oldest-first drains, lane append semantics,
// and clock stamping.
#include "telemetry/recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/sim_time.h"

namespace scent::telemetry {
namespace {

std::vector<std::int64_t> drained_values(TraceRecorder& recorder) {
  std::vector<TraceEvent> events;
  recorder.drain_into(events);
  std::vector<std::int64_t> values;
  values.reserve(events.size());
  for (const auto& e : events) values.push_back(e.value);
  return values;
}

TEST(TraceRecorder, RecordsUpToCapacityWithoutDrops) {
  TraceRecorder recorder{8};
  EXPECT_EQ(recorder.capacity(), 8u);
  for (std::int64_t i = 0; i < 8; ++i) recorder.counter("c", i);
  EXPECT_EQ(recorder.size(), 8u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(drained_values(recorder),
            (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TraceRecorder, OverflowKeepsNewestAndCountsEveryLoss) {
  // Flight-recorder semantics: 20 events into an 8-slot ring keeps the
  // newest 8 and reports exactly 12 overwritten.
  TraceRecorder recorder{8};
  for (std::int64_t i = 0; i < 20; ++i) recorder.counter("c", i);
  EXPECT_EQ(recorder.size(), 8u);
  EXPECT_EQ(recorder.dropped(), 12u);
  EXPECT_EQ(drained_values(recorder),
            (std::vector<std::int64_t>{12, 13, 14, 15, 16, 17, 18, 19}));
  // The drop counter survives the drain until harvested...
  EXPECT_EQ(recorder.dropped(), 12u);
  EXPECT_EQ(recorder.take_dropped(), 12u);
  // ...and harvesting clears it.
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.take_dropped(), 0u);
}

TEST(TraceRecorder, DrainResetsRingForReuse) {
  TraceRecorder recorder{4};
  for (std::int64_t i = 0; i < 6; ++i) recorder.counter("c", i);
  std::vector<TraceEvent> events;
  recorder.drain_into(events);
  EXPECT_EQ(recorder.size(), 0u);
  // Post-drain the ring records from scratch; prior wrap state is gone.
  for (std::int64_t i = 100; i < 103; ++i) recorder.counter("c", i);
  EXPECT_EQ(drained_values(recorder),
            (std::vector<std::int64_t>{100, 101, 102}));
}

TEST(TraceRecorder, ZeroCapacityIsClampedToOne) {
  TraceRecorder recorder{0};
  EXPECT_EQ(recorder.capacity(), 1u);
  recorder.instant("a");
  recorder.instant("b");
  EXPECT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.dropped(), 1u);
}

TEST(TraceRecorder, StampsBoundVirtualClock) {
  sim::VirtualClock clock{sim::hours(2)};
  TraceRecorder recorder{16};
  recorder.set_clock(&clock);
  recorder.begin("phase");
  clock.advance(sim::kSecond);
  recorder.end("phase");

  std::vector<TraceEvent> events;
  recorder.drain_into(events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, EventType::kBegin);
  EXPECT_EQ(events[0].virtual_us, sim::hours(2));
  EXPECT_EQ(events[1].type, EventType::kEnd);
  EXPECT_EQ(events[1].virtual_us, sim::hours(2) + sim::kSecond);
  EXPECT_LE(events[0].wall_ns, events[1].wall_ns);
}

TEST(TraceCollector, DrainAppendsToNamedLanesInOrder) {
  TraceCollector collector;
  TraceRecorder shard0{8};
  TraceRecorder shard1{8};
  shard0.counter("c", 1);
  shard1.counter("c", 2);
  collector.drain("shard 0", shard0);
  collector.drain("shard 1", shard1);

  // A second drain into an existing name appends (a campaign drains each
  // shard once per day); a new name opens a lane at the end.
  shard0.counter("c", 3);
  collector.drain("shard 0", shard0);

  ASSERT_EQ(collector.lanes().size(), 2u);
  EXPECT_EQ(collector.lanes()[0].name, "shard 0");
  ASSERT_EQ(collector.lanes()[0].events.size(), 2u);
  EXPECT_EQ(collector.lanes()[0].events[0].value, 1);
  EXPECT_EQ(collector.lanes()[0].events[1].value, 3);
  EXPECT_EQ(collector.lanes()[1].name, "shard 1");
  EXPECT_EQ(collector.total_events(), 3u);
  EXPECT_EQ(collector.total_dropped(), 0u);
}

TEST(TraceCollector, AccumulatesDropCountsAcrossDrains) {
  TraceCollector collector{4};
  EXPECT_EQ(collector.recorder_capacity(), 4u);
  TraceRecorder recorder{collector.recorder_capacity()};
  for (std::int64_t i = 0; i < 10; ++i) recorder.counter("c", i);
  collector.drain("lane", recorder);
  for (std::int64_t i = 0; i < 7; ++i) recorder.counter("c", i);
  collector.drain("lane", recorder);
  EXPECT_EQ(collector.lanes()[0].dropped, 6u + 3u);
  EXPECT_EQ(collector.total_dropped(), 9u);
  EXPECT_EQ(collector.total_events(), 8u);
}

TEST(TraceCollector, AppendAddsDriverSideEvents) {
  TraceCollector collector;
  collector.append("driver", TraceEvent{"marker", EventType::kInstant,
                                        123, 456, 0});
  ASSERT_EQ(collector.lanes().size(), 1u);
  EXPECT_EQ(collector.lanes()[0].events[0].wall_ns, 123u);
  EXPECT_EQ(collector.lanes()[0].events[0].virtual_us, 456);
}

}  // namespace
}  // namespace scent::telemetry
