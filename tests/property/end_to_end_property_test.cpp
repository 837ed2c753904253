// Cross-module property sweeps: for every combination of allocation size,
// pool shape, and rotation policy, the measurement pipeline must recover
// the simulator's ground truth. These are the invariants the whole
// reproduction rests on.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/inference.h"
#include "core/tracker.h"
#include "lattice.h"
#include "probe/prober.h"
#include "probe/target_generator.h"
#include "sim/scenario.h"

namespace scent {
namespace {

using lattice::PoolShape;

/// One grid world (lattice::Kind::kPool): its single provider's pool.
class PipelineProperty : public ::testing::TestWithParam<PoolShape> {
 protected:
  const sim::RotationPool& pool() { return world_.provider(0).pools()[0]; }

  sim::Internet world_ = std::move(
      lattice::make_sim({.kind = lattice::Kind::kPool, .pool = GetParam()})
          .internet);
};

TEST_P(PipelineProperty, EveryDeviceDiscoverableByAllocationSweep) {
  sim::VirtualClock clock{sim::hours(12)};
  probe::Prober prober{world_, clock,
                       {.packets_per_second = 1000000, .wire_mode = false}};
  const auto results = prober.sweep_subnets(
      pool().config().prefix, pool().config().allocation_length, 0xD15C);
  std::set<net::MacAddress> seen;
  for (const auto& r : results) {
    ASSERT_TRUE(net::is_eui64(r.response_source));
    seen.insert(*net::embedded_mac(r.response_source));
  }
  EXPECT_EQ(seen.size(), pool().devices().size());
}

TEST_P(PipelineProperty, Algorithm1RecoversAllocationLength) {
  if (pool().config().allocation_length - pool().config().prefix.length() > 14) {
    GTEST_SKIP() << "per-/64 sweep too large for a unit test";
  }
  sim::VirtualClock clock{sim::hours(12)};
  probe::Prober prober{world_, clock,
                       {.packets_per_second = 1000000, .wire_mode = false}};
  core::AllocationSizeInference inference;
  const auto results =
      prober.sweep_subnets(pool().config().prefix, 64, 0xA1);
  for (const auto& r : results) {
    inference.observe(r.target, r.response_source);
  }
  ASSERT_TRUE(inference.median_length().has_value());
  EXPECT_EQ(*inference.median_length(), pool().config().allocation_length);
}

TEST_P(PipelineProperty, Algorithm2RecoversPoolOnceCoverageSuffices) {
  if (!pool().config().rotation.rotates()) {
    GTEST_SKIP() << "static pools have no rotation to infer";
  }
  sim::VirtualClock clock{sim::hours(12)};
  probe::Prober prober{world_, clock,
                       {.packets_per_second = 1000000, .wire_mode = false}};
  core::RotationPoolInference inference;
  // Enough days for both stride-7 and shuffle policies to cover the pool.
  const unsigned days = pool().config().rotation.kind ==
                                sim::RotationPolicy::Kind::kShuffle
                            ? 10
                            : 40;
  for (unsigned day = 0; day < days; ++day) {
    clock.advance_to(sim::days(day) + sim::hours(12));
    const auto results = prober.sweep_subnets(
        pool().config().prefix, pool().config().allocation_length,
        0xA2 + day);
    for (const auto& r : results) inference.observe(r.response_source);
  }
  ASSERT_TRUE(inference.median_length().has_value());
  // Stride 7 with <= 40 days may not wrap small pools fully; the inferred
  // pool must never be *wider* than the truth and must show rotation.
  EXPECT_GE(*inference.median_length(), pool().config().prefix.length());
  EXPECT_LT(*inference.median_length(), 64u);
}

TEST_P(PipelineProperty, TrackerFollowsAnyDeviceThroughAWeek) {
  sim::VirtualClock clock{sim::hours(12)};
  probe::Prober prober{world_, clock,
                       {.packets_per_second = 1000000, .wire_mode = false}};
  core::TrackerConfig config;
  config.target_mac = pool().devices()[pool().devices().size() / 2].mac;
  config.pool = pool().config().prefix;
  config.allocation_length = pool().config().allocation_length;
  config.seed = 0x77;
  core::Tracker tracker{prober, config};
  for (std::int64_t day = 0; day < 7; ++day) {
    clock.advance_to(sim::days(day) + sim::hours(12));
    const auto attempt = tracker.locate(day);
    ASSERT_TRUE(attempt.found) << "day " << day;
    EXPECT_EQ(net::embedded_mac(attempt.address), config.target_mac);
    EXPECT_TRUE(config.pool.contains(attempt.address));
  }
}

TEST_P(PipelineProperty, EuiIidIsInvariantAcrossRotations) {
  std::set<std::uint64_t> iids;
  std::set<std::uint64_t> networks;
  for (int day = 0; day < 10; ++day) {
    const auto wan =
        pool().wan_address_of(1, sim::days(day) + sim::hours(12));
    iids.insert(wan.iid());
    networks.insert(wan.network());
    EXPECT_TRUE(pool().config().prefix.contains(wan));
  }
  EXPECT_EQ(iids.size(), 1u);  // the scent never changes
  if (pool().config().rotation.rotates()) {
    EXPECT_GT(networks.size(), 1u);  // but the prefix does
  } else {
    EXPECT_EQ(networks.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineProperty,
    ::testing::Values(
        PoolShape{46, 56, sim::RotationPolicy::Kind::kStride,
                    sim::Placement::kContiguous},
        PoolShape{48, 56, sim::RotationPolicy::Kind::kShuffle,
                    sim::Placement::kScattered},
        PoolShape{48, 56, sim::RotationPolicy::Kind::kStatic,
                    sim::Placement::kScattered},
        PoolShape{50, 60, sim::RotationPolicy::Kind::kStride,
                    sim::Placement::kContiguous},
        PoolShape{52, 60, sim::RotationPolicy::Kind::kShuffle,
                    sim::Placement::kScattered},
        PoolShape{54, 64, sim::RotationPolicy::Kind::kStride,
                    sim::Placement::kContiguous},
        PoolShape{56, 64, sim::RotationPolicy::Kind::kShuffle,
                    sim::Placement::kScattered},
        PoolShape{44, 48, sim::RotationPolicy::Kind::kShuffle,
                    sim::Placement::kScattered},
        PoolShape{60, 64, sim::RotationPolicy::Kind::kStatic,
                    sim::Placement::kScattered},
        PoolShape{62, 64, sim::RotationPolicy::Kind::kStride,
                    sim::Placement::kContiguous}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace scent
