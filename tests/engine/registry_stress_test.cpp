// Stress the telemetry Registry's thread-safety contract from inside the
// engine: instruments are created up front (creation is NOT thread-safe),
// then every shard hammers the same Counter/Gauge objects through a shared
// UnitSink while the executor also drives real probe traffic. Totals must
// come out exact — relaxed atomic increments lose nothing — and the TSan
// leg of scripts/check.sh runs this under -fsanitize=thread to catch any
// unsynchronized access the assertions can't see.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/executor.h"
#include "engine/sweep.h"
#include "sim/scenario.h"
#include "telemetry/metrics.h"

namespace scent::engine {
namespace {

class SharedRegistrySink final : public UnitSink {
 public:
  SharedRegistrySink(telemetry::Counter& results, telemetry::Counter& units,
                     telemetry::Gauge& last_unit)
      : results_(results), units_(units), last_unit_(last_unit) {}

  void on_results(std::size_t unit,
                  std::span<const probe::ProbeResult> batch) override {
    // Many small adds per batch, maximizing interleaving pressure.
    for (std::size_t i = 0; i < batch.size(); ++i) results_.add(1);
    last_unit_.set_u64(unit);
  }
  void on_unit_end(std::size_t) override { units_.add(1); }

 private:
  telemetry::Counter& results_;
  telemetry::Counter& units_;
  telemetry::Gauge& last_unit_;
};

TEST(EngineRegistryStress, SharedCountersStayExactUnderAllShards) {
  sim::PaperWorld world = sim::make_tiny_world(0x57E5, 64);
  sim::VirtualClock clock;

  const auto& pool = world.internet.provider(world.versatel).pools()[0];
  std::vector<SweepUnit> units;
  constexpr std::size_t kUnits = 64;
  for (std::uint64_t i = 0; i < kUnits; ++i) {
    const net::Prefix p48{
        pool.config().prefix.subnet(48, net::Uint128{i % 4}).base(), 48};
    units.push_back({p48, 56, 0xAB + i});
  }

  probe::ProberOptions prober_options;
  prober_options.wire_mode = false;
  prober_options.packets_per_second = 1000000;

  // One registry shared by every shard. All instruments exist before any
  // worker starts; after that, concurrent add/set is the supported mode.
  telemetry::Registry registry;
  telemetry::Counter& results = registry.counter("stress.results");
  telemetry::Counter& unit_count = registry.counter("stress.units");
  telemetry::Gauge& last_unit = registry.gauge("stress.last_unit");
  // The executor itself also merges shard-local prober registries into
  // this one after the join; pre-create those too so the merge path and
  // the live-shared path coexist.
  registry.counter("probe.sent");
  registry.counter("probe.received");

  SweepOptions options;
  options.threads = 8;
  options.merge_registry = &registry;

  SharedRegistrySink shared_sink{results, unit_count, last_unit};
  const SweepReport report = run_sharded_sweep(
      world.internet, clock, units, prober_options, options,
      [&shared_sink](unsigned) { return &shared_sink; });

  EXPECT_EQ(report.threads_used, 8u);
  EXPECT_EQ(unit_count.value(), kUnits);
  EXPECT_EQ(results.value(), report.counters.received);
  EXPECT_GT(results.value(), 0u);
  EXPECT_LT(last_unit.value(), static_cast<std::int64_t>(kUnits));
  EXPECT_EQ(registry.counter("probe.sent").value(), report.counters.sent);
  EXPECT_EQ(registry.counter("probe.received").value(),
            report.counters.received);
}

TEST(EngineRegistryStress, MergeCountersFromAccumulatesAcrossRegistries) {
  telemetry::Registry a;
  telemetry::Registry b;
  a.counter("x").add(3);
  b.counter("x").add(4);
  b.counter("y").add(9);
  a.merge_counters_from(b);
  EXPECT_EQ(a.counter("x").value(), 7u);
  EXPECT_EQ(a.counter("y").value(), 9u);
}

}  // namespace
}  // namespace scent::engine
