// Tests for the engine's sweep plan and sharded executor mechanics:
// partitioning, scheduling, batching, counter/stat/registry aggregation,
// and failure propagation. Serial/parallel corpus equivalence has its own
// property suite (equivalence_property_test.cpp).
#include "engine/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/sweep_ingest.h"
#include "engine/parallel.h"
#include "engine/sweep.h"
#include "probe/target_generator.h"
#include "sim/scenario.h"

namespace scent::engine {
namespace {

using namespace scent;

probe::ProberOptions fast_options() {
  probe::ProberOptions options;
  options.wire_mode = false;
  options.packets_per_second = 1000000;
  return options;
}

/// Sweep units over the tiny world's rotating /46 pool: `count` /48s at the
/// given granularity.
std::vector<SweepUnit> pool_units(const sim::PaperWorld& world,
                                  std::size_t count, unsigned sub_length) {
  const auto& pool = world.internet.provider(world.versatel).pools()[0];
  std::vector<SweepUnit> units;
  for (std::uint64_t i = 0; i < count; ++i) {
    const net::Prefix p48{
        pool.config().prefix.subnet(48, net::Uint128{i % 4}).base(), 48};
    units.push_back({p48, sub_length, 0xBEEF + i});
  }
  return units;
}

TEST(EngineSweepPlan, SchedulesUnitsAtSerialStartTimes) {
  sim::PaperWorld world = sim::make_tiny_world(0xE1, 16);
  const auto units = pool_units(world, 3, 56);  // 3 units x 256 probes

  const probe::ProberOptions options = fast_options();
  const sim::TimePoint t0 = sim::hours(2);
  const SweepPlan plan{units, options, t0, 2};

  const sim::Duration gap =
      sim::kSecond / static_cast<sim::Duration>(options.packets_per_second);
  ASSERT_EQ(plan.unit_count(), 3u);
  EXPECT_EQ(plan.total_probes(), 3u * 256u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(plan.unit_probes(k), 256u);
    EXPECT_EQ(plan.unit_start(k),
              t0 + static_cast<sim::Duration>(k * 256) * gap);
  }
  EXPECT_EQ(plan.end_time(),
            t0 + static_cast<sim::Duration>(3 * 256) * gap);
}

TEST(EngineSweepPlan, PartitionIsContiguousCompleteAndBalanced) {
  sim::PaperWorld world = sim::make_tiny_world(0xE2, 16);
  const auto units = pool_units(world, 13, 52);  // 13 units x 16 probes

  for (unsigned shards : {1u, 2u, 4u, 8u, 32u}) {
    const SweepPlan plan{units, fast_options(), 0, shards};
    ASSERT_EQ(plan.shard_count(), shards);
    // Shards tile [0, unit_count) in order, without gaps or overlap.
    std::size_t expected_first = 0;
    std::uint64_t max_probes = 0;
    for (unsigned s = 0; s < shards; ++s) {
      EXPECT_EQ(plan.shard_first(s), expected_first);
      EXPECT_LE(plan.shard_first(s), plan.shard_last(s));
      expected_first = plan.shard_last(s);
      max_probes = std::max(max_probes, plan.shard_probes(s));
    }
    EXPECT_EQ(expected_first, plan.unit_count());
    // Balanced to within one unit of the ideal share.
    EXPECT_LE(max_probes, plan.total_probes() / shards + plan.unit_probes(0));
  }
}

TEST(EngineSweepPlan, EmptyUnitListIsDegenerate) {
  const SweepPlan plan{{}, fast_options(), sim::hours(1), 4};
  EXPECT_EQ(plan.unit_count(), 0u);
  EXPECT_EQ(plan.total_probes(), 0u);
  EXPECT_EQ(plan.end_time(), sim::hours(1));
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_EQ(plan.shard_first(s), plan.shard_last(s));
  }
}

TEST(EngineExecutor, ResolveThreadsTreatsZeroAsHardware) {
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_GE(resolve_threads(0), 1u);
}

TEST(EngineExecutor, RequestAboveCoreCountIsHonouredExactly) {
  // More shards than cores: every requested shard runs (time-sliced), and
  // the corpus is the serial one.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto sweep = [](unsigned threads, core::ObservationStore& store) {
    sim::PaperWorld world = sim::make_tiny_world(0xE7, 48);
    sim::VirtualClock clock{sim::hours(10)};
    const auto units = pool_units(world, 8, 56);
    return core::sweep_into_store(world.internet, clock, units,
                                  fast_options(),
                                  SweepOptions{.threads = threads}, store);
  };

  core::ObservationStore serial;
  core::ObservationStore wide;
  EXPECT_EQ(sweep(1, serial).threads_used, 1u);
  EXPECT_EQ(sweep(hw + 3, wide).threads_used, hw + 3);

  ASSERT_GT(serial.size(), 0u);
  ASSERT_EQ(wide.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(wide.target(i), serial.target(i)) << "row " << i;
    ASSERT_EQ(wide.response(i), serial.response(i)) << "row " << i;
    ASSERT_EQ(wide.type_code(i), serial.type_code(i)) << "row " << i;
    ASSERT_EQ(wide.time(i), serial.time(i)) << "row " << i;
  }
}

/// Records every delivery for ordering/bracketing assertions.
class RecordingSink final : public UnitSink {
 public:
  void on_unit_begin(std::size_t unit) override { begins.push_back(unit); }
  void on_results(std::size_t unit,
                  std::span<const probe::ProbeResult> batch) override {
    EXPECT_FALSE(batch.empty());
    EXPECT_LE(batch.size(), 256u);
    for (const auto& r : batch) results.emplace_back(unit, r);
  }
  void on_unit_end(std::size_t unit) override { ends.push_back(unit); }

  std::vector<std::size_t> begins;
  std::vector<std::size_t> ends;
  std::vector<std::pair<std::size_t, probe::ProbeResult>> results;
};

TEST(EngineExecutor, StreamsOrderedBatchesAndAggregates) {
  sim::PaperWorld world = sim::make_tiny_world(0xE3, 48);
  sim::VirtualClock clock{sim::hours(10)};
  const auto units = pool_units(world, 4, 56);

  const sim::Internet::Stats stats_before = world.internet.stats();

  SweepOptions options;
  options.threads = 2;
  std::vector<RecordingSink> sinks(2);
  const SweepReport report = run_sharded_sweep(
      world.internet, clock, units, fast_options(), options,
      [&sinks](unsigned shard) { return &sinks[shard]; });

  EXPECT_EQ(report.threads_used, 2u);
  ASSERT_EQ(report.units.size(), 4u);

  std::uint64_t sent = 0;
  std::uint64_t responded = 0;
  for (const auto& unit : report.units) {
    EXPECT_EQ(unit.sent, 256u);
    sent += unit.sent;
    responded += unit.responded;
  }
  EXPECT_EQ(report.counters.sent, sent);
  EXPECT_EQ(report.counters.received, responded);
  EXPECT_GT(responded, 0u);

  // The caller's clock stands at the serial schedule end.
  EXPECT_EQ(clock.now(), report.end);
  const sim::Duration gap = sim::kSecond / 1000000;
  EXPECT_EQ(report.end,
            report.start + static_cast<sim::Duration>(sent) * gap);

  // Internet stats absorbed every shard's traffic.
  EXPECT_EQ(world.internet.stats().probes_received,
            stats_before.probes_received + sent);
  EXPECT_EQ(world.internet.stats().responses_sent,
            stats_before.responses_sent + responded);

  // Each shard saw its units bracketed, in ascending order, and result
  // timestamps within each unit ascend (probe order preserved).
  std::uint64_t total_results = 0;
  for (const auto& sink : sinks) {
    EXPECT_TRUE(std::is_sorted(sink.begins.begin(), sink.begins.end()));
    EXPECT_EQ(sink.begins, sink.ends);
    sim::TimePoint last = -1;
    std::size_t last_unit = 0;
    for (const auto& [unit, r] : sink.results) {
      if (unit != last_unit) last = -1;
      EXPECT_GE(r.sent_at, last);
      last = r.sent_at;
      last_unit = unit;
    }
    total_results += sink.results.size();
  }
  EXPECT_EQ(total_results, responded);
}

TEST(EngineExecutor, MergesShardRegistriesIntoOne) {
  sim::PaperWorld world = sim::make_tiny_world(0xE4, 48);
  sim::VirtualClock clock{sim::hours(10)};
  const auto units = pool_units(world, 4, 56);

  telemetry::Registry registry;
  SweepOptions options;
  options.threads = 4;
  options.merge_registry = &registry;

  core::ObservationStore store;
  const core::SweepIngest ingest = core::sweep_into_store(
      world.internet, clock, units, fast_options(), options, store);

  EXPECT_EQ(registry.counter("probe.sent").value(), ingest.counters.sent);
  EXPECT_EQ(registry.counter("probe.received").value(),
            ingest.counters.received);
  EXPECT_EQ(store.size(), ingest.counters.received);
}

TEST(EngineExecutor, SinkExceptionsPropagateAfterJoin) {
  sim::PaperWorld world = sim::make_tiny_world(0xE5, 48);
  sim::VirtualClock clock{sim::hours(10)};
  const auto units = pool_units(world, 4, 56);

  class ThrowingSink final : public UnitSink {
   public:
    void on_results(std::size_t,
                    std::span<const probe::ProbeResult>) override {
      throw std::runtime_error("sink failed");
    }
  };
  std::vector<ThrowingSink> sinks(2);

  SweepOptions options;
  options.threads = 2;
  EXPECT_THROW(run_sharded_sweep(world.internet, clock, units,
                                 fast_options(), options,
                                 [&sinks](unsigned s) { return &sinks[s]; }),
               std::runtime_error);
}

TEST(EngineExecutor, IngestRangesSliceTheMergedStore) {
  sim::PaperWorld world = sim::make_tiny_world(0xE6, 48);
  sim::VirtualClock clock{sim::hours(10)};
  const auto units = pool_units(world, 6, 56);

  core::ObservationStore store;
  const core::SweepIngest ingest = core::sweep_into_store(
      world.internet, clock, units, fast_options(), SweepOptions{.threads = 3},
      store);

  ASSERT_EQ(ingest.units.size(), 6u);
  std::size_t expected_begin = 0;
  for (std::size_t u = 0; u < 6; ++u) {
    const auto& unit = ingest.units[u];
    // Ranges tile the store in unit order.
    EXPECT_EQ(unit.obs_begin, expected_begin);
    expected_begin = unit.obs_end;
    EXPECT_EQ(unit.obs_end - unit.obs_begin, unit.responded);
    // Every observation in the slice targets the unit's prefix.
    for (std::size_t i = unit.obs_begin; i < unit.obs_end; ++i) {
      EXPECT_TRUE(units[u].prefix.contains(store.all()[i].target));
    }
  }
  EXPECT_EQ(expected_begin, store.size());
}

}  // namespace
}  // namespace scent::engine
