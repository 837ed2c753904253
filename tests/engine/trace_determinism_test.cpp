// Engine trace instrumentation suite (TSan leg: every TEST name here
// starts with "Engine" so scripts/check.sh's `ctest -R '^Engine'` runs it
// under -fsanitize=thread). The lattice case — the virtual-timestamp event
// stream is bit-identical at any thread count — is in tests/lattice/; these
// cases pin the stream's shape and that multi-shard recording is race-free:
// each shard writes only its own ring, and the collector drains on the
// driver thread after the join.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/observation.h"
#include "core/sweep_ingest.h"
#include "engine/sweep.h"
#include "lattice.h"
#include "probe/prober.h"
#include "sim/scenario.h"
#include "telemetry/recorder.h"

namespace scent::engine {
namespace {

using lattice::Kind;
using lattice::Lattice;
using lattice::Via;
using lattice::World;

const World kTraceWorld{.kind = Kind::kTiny, .seed = 0x7E57, .devices = 32};

TEST(EngineTraceDeterminism, SweepLanesCarryPerUnitBeginEndAndCounters) {
  const lattice::Form form =
      Lattice{kTraceWorld}.run({.via = Via::kTrace, .threads = 4});
  const lattice::Layer* sweep = form.find("trace.sweep shard");
  ASSERT_NE(sweep, nullptr);
  std::size_t begins = 0, ends = 0, counters = 0;
  for (std::size_t i = 0; i < sweep->rows.size(); ++i) {
    // Rows are "name type virtual_us value".
    const std::string row{sweep->rows[i]};
    std::istringstream fields{row};
    std::string name;
    int type = -1;
    std::int64_t virtual_us = 0, value = 0;
    ASSERT_TRUE(fields >> name >> type >> virtual_us >> value) << row;
    switch (static_cast<telemetry::EventType>(type)) {
      case telemetry::EventType::kBegin:
        ++begins;
        break;
      case telemetry::EventType::kEnd:
        ++ends;
        break;
      case telemetry::EventType::kCounter:
        ++counters;
        EXPECT_EQ(name, "sweep.responses");
        EXPECT_GE(value, 0);
        break;
      default:
        break;
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
  const Lattice lattice{kTraceWorld};
  for (int round = 0; round < 3; ++round) {
    const lattice::Form form = lattice.run({.via = Via::kTrace, .threads = 8});
    EXPECT_FALSE(form.layers.at(0).rows.empty());
  }
}

TEST(EngineTraceStress, TinyRingsOverflowWithoutCorruption) {
  // Force constant wraparound in every shard ring: events drop (and are
  // counted) but the drained streams stay well-formed.
  sim::PaperWorld world = lattice::make_sim(
      World{.kind = Kind::kTiny, .seed = 0x0F10, .devices = 32});
  const std::vector<net::Prefix> p48s = lattice::pool_48s(world, 4);
  std::vector<SweepUnit> units;
  for (std::uint64_t i = 0; i < 12; ++i) {
    units.push_back({p48s[i % 4], 56, 0x7ACE + i});
  }
  SweepOptions options;
  options.threads = 8;
  telemetry::TraceCollector collector{2};  // 2-slot rings: guaranteed overflow
  telemetry::Registry registry;
  registry.attach_trace(&collector);
  options.registry = &registry;
  sim::VirtualClock clock{sim::hours(12)};
  core::ObservationStore store;
  core::sweep_into_store(world.internet, clock, units,
                         {.packets_per_second = 1000000, .wire_mode = false},
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
