// Tests for Algorithms 1 and 2, the observation store, and density
// classification.
#include <gtest/gtest.h>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "core/density.h"
#include "core/inference.h"
#include "core/observation.h"

namespace scent::core {
namespace {

net::Ipv6Address addr(const char* text) {
  return *net::Ipv6Address::parse(text);
}
net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

constexpr std::uint64_t kMac1 = 0x3810d5000001ULL;
constexpr std::uint64_t kMac2 = 0x3810d5000002ULL;

net::Ipv6Address eui_response(std::uint64_t network, std::uint64_t mac) {
  return net::Ipv6Address{network, net::mac_to_eui64(net::MacAddress{mac})};
}

// ---- span_to_prefix_length -------------------------------------------------

TEST(SpanToPrefixLength, SingleSlotIsSlash64) {
  EXPECT_EQ(span_to_prefix_length(100, 100), 64u);
}

TEST(SpanToPrefixLength, PowersOfTwo) {
  EXPECT_EQ(span_to_prefix_length(0, 1), 63u);
  EXPECT_EQ(span_to_prefix_length(0, 255), 56u);
  EXPECT_EQ(span_to_prefix_length(0, 256), 55u);
  EXPECT_EQ(span_to_prefix_length(0, 15), 60u);
  EXPECT_EQ(span_to_prefix_length(0, (1ULL << 18) - 1), 46u);
}

TEST(SpanToPrefixLength, OffsetDoesNotMatter) {
  EXPECT_EQ(span_to_prefix_length(1000, 1000 + 255),
            span_to_prefix_length(0, 255));
}

TEST(MedianOf, Basics) {
  EXPECT_FALSE(median_of({}).has_value());
  EXPECT_EQ(median_of({5}).value(), 5u);
  EXPECT_EQ(median_of({1, 2, 3}).value(), 2u);
  EXPECT_EQ(median_of({64, 56, 56, 64, 56}).value(), 56u);
  // Even size: lower median.
  EXPECT_EQ(median_of({1, 2, 3, 4}).value(), 2u);
}

// ---- Algorithm 1: AllocationSizeInference ----------------------------------

TEST(AllocationInference, Slash56TargetSpan) {
  // Device answers for probed /64s across its whole /56.
  AllocationSizeInference inf;
  const std::uint64_t base = addr("2001:db8:0:5600::").network();
  const net::Ipv6Address response = eui_response(base, kMac1);
  for (std::uint64_t i = 0; i < 256; ++i) {
    inf.observe(net::Ipv6Address{base + i, 0x1234}, response);
  }
  EXPECT_EQ(inf.length_for(net::MacAddress{kMac1}).value(), 56u);
}

TEST(AllocationInference, SingleProbeLooksLikeSlash64) {
  AllocationSizeInference inf;
  inf.observe(addr("2001:db8::1"), eui_response(addr("2001:db8::").network(),
                                                kMac1));
  EXPECT_EQ(inf.length_for(net::MacAddress{kMac1}).value(), 64u);
}

TEST(AllocationInference, IgnoresNonEuiResponses) {
  AllocationSizeInference inf;
  inf.observe(addr("2001:db8::1"),
              addr("2001:db8::dead:beef:1234:5678"));
  EXPECT_EQ(inf.device_count(), 0u);
  EXPECT_FALSE(inf.median_length().has_value());
}

TEST(AllocationInference, MedianAcrossDevices) {
  AllocationSizeInference inf;
  // Three /56 devices, one /64 device.
  for (std::uint64_t d = 0; d < 3; ++d) {
    const std::uint64_t base =
        addr("2001:db8::").network() + (d << 8);
    const auto response = eui_response(base, kMac1 + d);
    inf.observe(net::Ipv6Address{base, 1}, response);
    inf.observe(net::Ipv6Address{base + 255, 1}, response);
  }
  const std::uint64_t solo = addr("2001:db8:99::").network();
  inf.observe(net::Ipv6Address{solo, 1}, eui_response(solo, kMac1 + 9));
  EXPECT_EQ(inf.median_length().value(), 56u);
  EXPECT_EQ(inf.device_count(), 4u);
  EXPECT_EQ(inf.per_device_lengths().size(), 4u);
}

TEST(AllocationInference, UnknownMacReturnsNullopt) {
  AllocationSizeInference inf;
  EXPECT_FALSE(inf.length_for(net::MacAddress{kMac1}).has_value());
}

// ---- Algorithm 2: RotationPoolInference ------------------------------------

TEST(RotationPoolInference, StaticDeviceIsSlash64) {
  RotationPoolInference inf;
  const std::uint64_t net = addr("2001:db8:0:100::").network();
  inf.observe(eui_response(net, kMac1));
  inf.observe(eui_response(net, kMac1));
  EXPECT_EQ(inf.length_for(net::MacAddress{kMac1}).value(), 64u);
}

TEST(RotationPoolInference, Slash46PoolSpan) {
  RotationPoolInference inf;
  const std::uint64_t base = addr("2001:16b8:100::").network();
  // Observed across nearly the whole /46 (2^18 /64s).
  inf.observe(eui_response(base, kMac1));
  inf.observe(eui_response(base + (1ULL << 18) - 1, kMac1));
  EXPECT_EQ(inf.length_for(net::MacAddress{kMac1}).value(), 46u);
}

TEST(RotationPoolInference, MedianAcrossDevices) {
  RotationPoolInference inf;
  const std::uint64_t base = addr("2001:16b8:100::").network();
  // Two rotators across a /48-wide range, one static.
  for (std::uint64_t d = 0; d < 2; ++d) {
    inf.observe(eui_response(base + d, kMac1 + d));
    inf.observe(eui_response(base + d + 65535, kMac1 + d));
  }
  inf.observe(eui_response(base, kMac2 + 50));
  EXPECT_EQ(inf.median_length().value(), 48u);
}

TEST(RotationPoolInference, PoolForAlignsToPoolLength) {
  RotationPoolInference inf;
  const std::uint64_t base = addr("2001:16b8:101:4200::").network();
  inf.observe(eui_response(base, kMac1));
  inf.observe(eui_response(base + 1000, kMac1));
  const auto pool = inf.pool_for(net::MacAddress{kMac1}, 46);
  ASSERT_TRUE(pool.has_value());
  EXPECT_EQ(pool->length(), 46u);
  EXPECT_EQ(*pool, pfx("2001:16b8:100::/46"));
  EXPECT_TRUE(pool->contains(net::Ipv6Address{base + 1000, 0}));
}

TEST(RotationPoolInference, PoolForWidensWhenStraddlingBoundary) {
  RotationPoolInference inf;
  // Observations straddle a /46 boundary: 2001:16b8:103:ff00 and
  // 2001:16b8:104:0100 are in different /46s.
  inf.observe(eui_response(addr("2001:16b8:103:ff00::").network(), kMac1));
  inf.observe(eui_response(addr("2001:16b8:104:100::").network(), kMac1));
  const auto pool = inf.pool_for(net::MacAddress{kMac1}, 46);
  ASSERT_TRUE(pool.has_value());
  EXPECT_LT(pool->length(), 46u);
  EXPECT_TRUE(pool->contains(addr("2001:16b8:103:ff00::")));
  EXPECT_TRUE(pool->contains(addr("2001:16b8:104:100::")));
}

TEST(RotationPoolInference, PoolForUnknownMac) {
  RotationPoolInference inf;
  EXPECT_FALSE(inf.pool_for(net::MacAddress{kMac1}, 46).has_value());
}

// ---- ObservationStore -------------------------------------------------------

TEST(ObservationStore, IndexesByMac) {
  ObservationStore store;
  store.add(Observation{addr("2001:db8::1"),
                        eui_response(addr("2001:db8::").network(), kMac1),
                        wire::Icmpv6Type::kDestinationUnreachable, 1, 0});
  store.add(Observation{addr("2001:db8:1::1"),
                        eui_response(addr("2001:db8:1::").network(), kMac1),
                        wire::Icmpv6Type::kDestinationUnreachable, 1, 100});
  store.add(Observation{addr("2001:db8:2::1"),
                        addr("2001:db8:2::abcd:9d71:c001:d00d"),
                        wire::Icmpv6Type::kDestinationUnreachable, 1, 200});

  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.unique_eui64_iids(), 1u);
  EXPECT_EQ(store.unique_eui64_responses(), 2u);
  EXPECT_EQ(store.unique_responses(), 3u);
  // Per-MAC /64s come from the fused pass, not from the store.
  analysis::AnalysisOptions options;
  options.attribute = false;
  const analysis::AggregateTable table =
      analysis::analyze(store, nullptr, options);
  EXPECT_EQ(analysis::networks_of(table, net::MacAddress{kMac1}).size(), 2u);
  EXPECT_TRUE(analysis::networks_of(table, net::MacAddress{kMac2}).empty());
}

TEST(ObservationStore, SkipsUnrespondedProbeResults) {
  ObservationStore store;
  probe::ProbeResult r;
  r.responded = false;
  store.add(r);
  EXPECT_TRUE(store.empty());
}

TEST(ObservationStore, IndexRebuildsAfterMutation) {
  ObservationStore store;
  store.add(Observation{addr("2001:db8::1"),
                        eui_response(addr("2001:db8::").network(), kMac1),
                        wire::Icmpv6Type::kDestinationUnreachable, 1, 0});
  EXPECT_EQ(store.unique_eui64_iids(), 1u);
  store.add(Observation{addr("2001:db8::2"),
                        eui_response(addr("2001:db8::").network(), kMac2),
                        wire::Icmpv6Type::kDestinationUnreachable, 1, 0});
  EXPECT_EQ(store.unique_eui64_iids(), 2u);
}

// ---- Density ----------------------------------------------------------------

probe::ProbeResult responsive(net::Ipv6Address target,
                              net::Ipv6Address source) {
  probe::ProbeResult r;
  r.target = target;
  r.response_source = source;
  r.responded = true;
  return r;
}

/// Classifies a /48 swept with 256 probes from `results`, ingested the way
/// a sweep ingests them.
DensityResult classify(const std::vector<probe::ProbeResult>& results,
                       std::uint64_t low_threshold = 2) {
  ObservationStore store;
  store.add_all(results);
  return classify_density(pfx("2001:db8::/48"), 256, store.all(),
                          low_threshold);
}

TEST(Density, UnresponsivePrefix) {
  const auto d = classify({});
  EXPECT_EQ(d.klass, DensityClass::kUnresponsive);
  EXPECT_EQ(d.density(), 0.0);
}

TEST(Density, LowDensityAtThreshold) {
  // Exactly 2 unique EUI responders: low (the paper's <=2 cut).
  std::vector<probe::ProbeResult> results;
  for (int i = 0; i < 10; ++i) {
    results.push_back(responsive(
        addr("2001:db8::1"),
        eui_response(addr("2001:db8::").network(), kMac1 + (i % 2))));
  }
  const auto d = classify(results);
  EXPECT_EQ(d.klass, DensityClass::kLow);
  EXPECT_EQ(d.unique_eui64, 2u);
  EXPECT_EQ(d.responses, 10u);
}

TEST(Density, HighDensityAboveThreshold) {
  std::vector<probe::ProbeResult> results;
  for (std::uint64_t i = 0; i < 3; ++i) {
    results.push_back(responsive(
        addr("2001:db8::1"),
        eui_response(addr("2001:db8::").network() + i, kMac1 + i)));
  }
  const auto d = classify(results);
  EXPECT_EQ(d.klass, DensityClass::kHigh);
  EXPECT_NEAR(d.density(), 3.0 / 256.0, 1e-9);
}

TEST(Density, NonEuiResponsesAreResponsiveButNotDense) {
  std::vector<probe::ProbeResult> results;
  for (std::uint64_t i = 0; i < 10; ++i) {
    results.push_back(
        responsive(addr("2001:db8::1"),
                   net::Ipv6Address{addr("2001:db8::").network() + i,
                                    0x9d71c001d00d0000ULL + i}));
  }
  const auto d = classify(results);
  EXPECT_EQ(d.klass, DensityClass::kLow);  // responsive, zero unique EUI
  EXPECT_EQ(d.unique_eui64, 0u);
}

TEST(Density, CustomThreshold) {
  std::vector<probe::ProbeResult> results;
  for (std::uint64_t i = 0; i < 5; ++i) {
    results.push_back(responsive(
        addr("2001:db8::1"),
        eui_response(addr("2001:db8::").network() + i, kMac1 + i)));
  }
  EXPECT_EQ(classify(results, 10).klass, DensityClass::kLow);
  EXPECT_EQ(classify(results, 2).klass, DensityClass::kHigh);
}

}  // namespace
}  // namespace scent::core
