// The one timing scope: path-tree nesting, dual wall/virtual duration
// accounting, pre-resolved slots, and the begin/end ring pair.
#include "telemetry/span.h"

#include <gtest/gtest.h>

#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::telemetry {
namespace {

TEST(Span, NullRegistryIsANoOp) {
  Registry* none = nullptr;
  Span span{none, "anything"};
  span.stop();  // must not crash
}

TEST(Span, RecordsVirtualDurationFromRegistryClock) {
  sim::VirtualClock clock{sim::hours(1)};
  Registry reg;
  reg.set_clock(&clock);
  {
    Span span{&reg, "stage"};
    clock.advance(sim::minutes(30));
  }
  const auto& spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  const SpanStats& stats = spans.at("stage");
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_EQ(stats.virtual_us, sim::minutes(30));
  EXPECT_EQ(stats.depth, 0u);
}

TEST(Span, NestedSpansAggregateUnderSlashJoinedPaths) {
  sim::VirtualClock clock{0};
  Registry reg;
  reg.set_clock(&clock);
  {
    Span outer{&reg, "campaign"};
    for (int day = 0; day < 3; ++day) {
      Span inner{&reg, "day"};
      clock.advance(sim::kDay);
      {
        Span leaf{&reg, "sweep"};
        clock.advance(sim::kHour);
      }
    }
  }
  ASSERT_EQ(reg.spans().size(), 3u);
  const SpanStats& outer = reg.spans().at("campaign");
  const SpanStats& inner = reg.spans().at("campaign/day");
  const SpanStats& leaf = reg.spans().at("campaign/day/sweep");
  EXPECT_EQ(outer.count(), 1u);
  EXPECT_EQ(inner.count(), 3u);
  EXPECT_EQ(leaf.count(), 3u);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(leaf.depth, 2u);
  EXPECT_EQ(outer.virtual_us, 3 * (sim::kDay + sim::kHour));
  EXPECT_EQ(inner.virtual_us, 3 * (sim::kDay + sim::kHour));
  EXPECT_EQ(leaf.virtual_us, 3 * sim::kHour);
  // Creation order is preserved for pre-order report printing.
  EXPECT_LT(outer.first_seq, inner.first_seq);
  EXPECT_LT(inner.first_seq, leaf.first_seq);
}

TEST(Span, SameNameUnderDifferentParentsIsADistinctPath) {
  Registry reg;
  {
    Span a{&reg, "bootstrap"};
    Span s{&reg, "sweep"};
  }
  {
    Span b{&reg, "campaign"};
    Span s{&reg, "sweep"};
  }
  EXPECT_NE(reg.spans().find("bootstrap/sweep"), reg.spans().end());
  EXPECT_NE(reg.spans().find("campaign/sweep"), reg.spans().end());
  EXPECT_EQ(reg.spans().find("sweep"), reg.spans().end());
}

TEST(Span, LayerPrefixOfAnOpenSpanIsDroppedFromThePath) {
  Registry reg;
  {
    Span root{&reg, "campaign"};
    Span day{&reg, "campaign.day"};
    Span sweep{&reg, "campaign.sweep"};
    Span unit{&reg, "sweep.unit"};  // "sweep" was opened as campaign.sweep
  }
  EXPECT_EQ(reg.spans().count("campaign/day/sweep/sweep.unit"), 1u);
  // Top level: no open span names the layer, so the name stays whole.
  { Span lone{&reg, "campaign.day"}; }
  EXPECT_EQ(reg.spans().count("campaign.day"), 1u);
}

TEST(Span, StopIsIdempotentAndEarly) {
  sim::VirtualClock clock{0};
  Registry reg;
  reg.set_clock(&clock);
  Span span{&reg, "stage"};
  clock.advance(sim::kMinute);
  span.stop();
  clock.advance(sim::kHour);  // after stop: not attributed
  span.stop();                // second stop: no double count
  const SpanStats& stats = reg.spans().at("stage");
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_EQ(stats.virtual_us, sim::kMinute);
}

TEST(Span, NoClockMeansZeroVirtualDuration) {
  Registry reg;
  { Span span{&reg, "stage"}; }
  EXPECT_EQ(reg.spans().at("stage").virtual_us, 0);
  EXPECT_EQ(reg.spans().at("stage").count(), 1u);
}

TEST(Span, WallClockDurationIsRecorded) {
  Registry reg;
  {
    Span span{&reg, "stage"};
    // Burn a little real time so the wall sketch is observably nonzero.
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 100000; ++i) sink = sink + i;
  }
  const QuantileSketch& wall = reg.spans().at("stage").wall_ns;
  EXPECT_EQ(wall.count(), 1u);
  EXPECT_GT(wall.sum(), 0u);
  EXPECT_EQ(wall.min(), wall.sum());
}

TEST(Span, BothSinksNullRecordsNothing) {
  SpanStats* no_slot = nullptr;
  { const Span span{no_slot, "noop", nullptr}; }
  // Nothing to assert beyond "does not crash": the no-sink configuration
  // is the shipping default and must be inert.
  SUCCEED();
}

TEST(Span, RecordsBeginEndPairAndSlotObservation) {
  TraceRecorder recorder{8};
  SpanStats slot;
  { const Span span{&slot, "work", &recorder}; }

  std::vector<TraceEvent> events;
  recorder.drain_into(events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, EventType::kBegin);
  EXPECT_EQ(events[1].type, EventType::kEnd);
  EXPECT_STREQ(events[0].name, "work");
  EXPECT_EQ(slot.count(), 1u);
  // Slot and ring share the two clock readings.
  EXPECT_EQ(slot.wall_ns.sum(), events[1].wall_ns - events[0].wall_ns);
}

TEST(Span, SlotOnlyModeSkipsTheRing) {
  SpanStats slot;
  { const Span span{&slot, "work"}; }
  EXPECT_EQ(slot.count(), 1u);
  EXPECT_EQ(slot.virtual_us, 0);  // slot spans time wall only
}

TEST(Span, ShardSlotsFoldInUnderTheOpenSpan) {
  Registry reg;
  std::vector<SpanStats> shard_slots(3);
  for (SpanStats& slot : shard_slots) {
    for (int batch = 0; batch < 4; ++batch) Span span{&slot, "ingest.batch"};
  }
  {
    Span sweep{&reg, "sweep"};
    for (const SpanStats& slot : shard_slots) {
      reg.span_child("ingest.batch").merge_from(slot);
    }
  }
  const SpanStats& merged = reg.spans().at("sweep/ingest.batch");
  EXPECT_EQ(merged.count(), 12u);
  EXPECT_EQ(merged.depth, 1u);
  EXPECT_EQ(reg.spans().at("sweep").count(), 1u);
}

}  // namespace
}  // namespace scent::telemetry
