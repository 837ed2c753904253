// Engine trace instrumentation suite (TSan leg: every TEST name here
// starts with "Engine" so scripts/check.sh's `ctest -R '^Engine'` runs it
// under -fsanitize=thread).
//
// Two properties of §5c:
//   * Multi-shard recording is race-free: each shard writes only its own
//     ring, the collector drains on the driver thread after the join.
//   * The virtual-timestamp event stream — (name, type, virtual_us,
//     value) concatenated in shard drain order — is bit-identical at any
//     thread count, provided no ring overflowed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/observation.h"
#include "core/sweep_ingest.h"
#include "engine/sweep.h"
#include "probe/prober.h"
#include "sim/scenario.h"
#include "telemetry/recorder.h"

namespace scent::engine {
namespace {

probe::ProberOptions fast_options() {
  probe::ProberOptions options;
  options.wire_mode = false;
  options.packets_per_second = 1000000;
  return options;
}

std::vector<SweepUnit> pool_units(const sim::PaperWorld& world,
                                  std::size_t count, unsigned sub_length) {
  const auto& pool = world.internet.provider(world.versatel).pools()[0];
  std::vector<SweepUnit> units;
  for (std::uint64_t i = 0; i < count; ++i) {
    const net::Prefix p48{
        pool.config().prefix.subnet(48, net::Uint128{i % 4}).base(), 48};
    units.push_back({p48, sub_length, 0x7ACE + i});
  }
  return units;
}

/// The determinism contract's comparison key: everything except wall_ns.
using VirtualEvent =
    std::tuple<std::string, telemetry::EventType, std::int64_t, std::int64_t>;

/// Concatenates the virtual streams of every lane whose name starts with
/// `prefix`, in collector (== shard drain) order.
std::vector<VirtualEvent> virtual_stream(const telemetry::TraceCollector& collector,
                                         std::string_view prefix) {
  std::vector<VirtualEvent> out;
  for (const auto& lane : collector.lanes()) {
    if (lane.name.rfind(prefix, 0) != 0) continue;
    for (const auto& e : lane.events) {
      out.emplace_back(std::string{e.name}, e.type, e.virtual_us, e.value);
    }
  }
  return out;
}

/// One traced sweep at the given shard count — honoured exactly, so
/// low-core CI still runs genuinely concurrent shards.
telemetry::TraceCollector traced_sweep(unsigned threads) {
  sim::PaperWorld world = sim::make_tiny_world(0x7E57, 32);
  const auto units = pool_units(world, 12, 56);  // 12 units x 256 probes

  SweepOptions options;
  options.threads = threads;
  // 12 units x 2 events (+1 counter each) fits any shard's ring with room
  // to spare: the contract only holds for drop-free captures.
  telemetry::TraceCollector collector{1 << 10};

  options.trace = &collector;
  sim::VirtualClock clock{sim::hours(12)};
  core::ObservationStore store;
  core::sweep_into_store(world.internet, clock, units, fast_options(),
                         options, store);
  EXPECT_GT(store.size(), 0u);
  EXPECT_EQ(collector.total_dropped(), 0u);
  return collector;
}

TEST(EngineTraceDeterminism, VirtualStreamIsBitIdenticalAtAnyThreadCount) {
  const telemetry::TraceCollector serial = traced_sweep(1);
  const auto serial_sweep = virtual_stream(serial, "sweep shard");
  const auto serial_ingest = virtual_stream(serial, "ingest shard");
  ASSERT_FALSE(serial_sweep.empty());
  ASSERT_FALSE(serial_ingest.empty());

  for (const unsigned threads : {2u, 4u, 8u}) {
    const telemetry::TraceCollector sharded = traced_sweep(threads);
    EXPECT_EQ(virtual_stream(sharded, "sweep shard"), serial_sweep)
        << threads << " threads";
    EXPECT_EQ(virtual_stream(sharded, "ingest shard"), serial_ingest)
        << threads << " threads";
  }
}

TEST(EngineTraceDeterminism, SweepLanesCarryPerUnitBeginEndAndCounters) {
  const telemetry::TraceCollector collector = traced_sweep(4);
  std::size_t begins = 0, ends = 0, counters = 0;
  for (const auto& [name, type, virtual_us, value] :
       virtual_stream(collector, "sweep shard")) {
    if (type == telemetry::EventType::kBegin) ++begins;
    if (type == telemetry::EventType::kEnd) ++ends;
    if (type == telemetry::EventType::kCounter) {
      ++counters;
      EXPECT_EQ(name, "sweep.responses");
      EXPECT_GE(value, 0);
    }
  }
  EXPECT_EQ(begins, 12u);  // one pair per unit
  EXPECT_EQ(ends, 12u);
  EXPECT_EQ(counters, 12u);
}

TEST(EngineTraceStress, ConcurrentShardRecordingIsRaceFree) {
  // TSan target: repeated 8-shard traced sweeps (more shards than most CI
  // hosts have cores). Shard workers record concurrently into their own
  // rings while the driver stays off them until the post-join drain; any
  // cross-thread touch is a data race this test exists to surface.
  for (int round = 0; round < 3; ++round) {
    const telemetry::TraceCollector collector = traced_sweep(8);
    EXPECT_GT(collector.total_events(), 0u);
  }
}

TEST(EngineTraceStress, TinyRingsOverflowWithoutCorruption) {
  // Force constant wraparound in every shard ring: events drop (and are
  // counted) but the drained streams stay well-formed.
  sim::PaperWorld world = sim::make_tiny_world(0x0F10, 32);
  const auto units = pool_units(world, 12, 56);
  SweepOptions options;
  options.threads = 8;
  telemetry::TraceCollector collector{2};  // 2-slot rings: guaranteed overflow
  options.trace = &collector;
  sim::VirtualClock clock{sim::hours(12)};
  core::ObservationStore store;
  core::sweep_into_store(world.internet, clock, units, fast_options(),
                         options, store);
  EXPECT_GT(collector.total_dropped(), 0u);
  for (const auto& lane : collector.lanes()) {
    // Each lane is one 2-slot ring drained once.
    EXPECT_LE(lane.events.size(), 2u) << lane.name;
    for (const auto& e : lane.events) {
      EXPECT_NE(e.name, nullptr);
    }
  }
}

}  // namespace
}  // namespace scent::engine
