// Tests for the rotation detector, homogeneity analysis, pathology
// classification, and the stride predictor.
#include <gtest/gtest.h>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "core/homogeneity.h"
#include "core/pathology.h"
#include "core/predictor.h"
#include "core/rotation_detector.h"

namespace scent::core {
namespace {

net::Ipv6Address addr(const char* text) {
  return *net::Ipv6Address::parse(text);
}
net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

net::Ipv6Address eui_response(std::uint64_t network, std::uint64_t mac) {
  return net::Ipv6Address{network, net::mac_to_eui64(net::MacAddress{mac})};
}

constexpr std::uint64_t kAvmMac = 0x3810d5000001ULL;
constexpr std::uint64_t kZteMac = 0x344b50000001ULL;

// ---- Rotation detector -------------------------------------------------------

TEST(RotationDetector, UnchangedPairsAreNotRotating) {
  Snapshot s1;
  Snapshot s2;
  const auto target = addr("2001:db8:1:200::1");
  const auto response = eui_response(addr("2001:db8:1:200::").network(),
                                     kAvmMac);
  s1.record(target, response);
  s2.record(target, response);
  const auto verdicts = detect_rotation(s1, s2);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].rotating);
  EXPECT_EQ(verdicts[0].prefix, pfx("2001:db8:1::/48"));
  EXPECT_EQ(verdicts[0].eui_targets, 1u);
  EXPECT_EQ(verdicts[0].changed, 0u);
}

TEST(RotationDetector, ChangedEuiFlagsRotation) {
  Snapshot s1;
  Snapshot s2;
  const auto target = addr("2001:db8:1:200::1");
  s1.record(target, eui_response(addr("2001:db8:1:200::").network(), kAvmMac));
  s2.record(target,
            eui_response(addr("2001:db8:1:200::").network(), kAvmMac + 5));
  const auto verdicts = detect_rotation(s1, s2);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].rotating);
}

TEST(RotationDetector, DisappearanceFlagsRotation) {
  Snapshot s1;
  Snapshot s2;
  s1.record(addr("2001:db8:1::1"),
            eui_response(addr("2001:db8:1::").network(), kAvmMac));
  const auto verdicts = detect_rotation(s1, s2);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].rotating);
}

TEST(RotationDetector, AppearanceFlagsRotation) {
  Snapshot s1;
  Snapshot s2;
  s2.record(addr("2001:db8:1::1"),
            eui_response(addr("2001:db8:1::").network(), kAvmMac));
  const auto verdicts = detect_rotation(s1, s2);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].rotating);
  EXPECT_EQ(verdicts[0].changed, 1u);
}

TEST(RotationDetector, NonEuiResponsesAreIgnored) {
  Snapshot s1;
  Snapshot s2;
  s1.record(addr("2001:db8:1::1"), addr("2001:db8:1::9d71:c001:d00d:1234"));
  EXPECT_TRUE(detect_rotation(s1, s2).empty());
}

TEST(RotationDetector, GroupsBySlash48) {
  Snapshot s1;
  Snapshot s2;
  // Churn in 2001:db8:1::/48; stability in 2001:db8:2::/48.
  s1.record(addr("2001:db8:1:100::1"),
            eui_response(addr("2001:db8:1:100::").network(), kAvmMac));
  s2.record(addr("2001:db8:1:100::1"),
            eui_response(addr("2001:db8:1:100::").network(), kAvmMac + 1));
  const auto stable = eui_response(addr("2001:db8:2:100::").network(),
                                   kZteMac);
  s1.record(addr("2001:db8:2:100::1"), stable);
  s2.record(addr("2001:db8:2:100::1"), stable);

  const auto verdicts = detect_rotation(s1, s2);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts[0].rotating);   // 2001:db8:1::/48 sorts first
  EXPECT_FALSE(verdicts[1].rotating);
}

TEST(RotationDetector, ChurnThresholdSuppressesSmallChanges) {
  Snapshot s1;
  Snapshot s2;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto target = net::Ipv6Address{
        addr("2001:db8:1::").network() + i, 1};
    const auto r1 = eui_response(addr("2001:db8:1::").network() + i,
                                 kAvmMac + i);
    s1.record(target, r1);
    // Only 2 of 10 change.
    s2.record(target, i < 2 ? eui_response(addr("2001:db8:1::").network() + i,
                                           kAvmMac + 100 + i)
                            : r1);
  }
  EXPECT_TRUE(detect_rotation(s1, s2, 0)[0].rotating);
  EXPECT_TRUE(detect_rotation(s1, s2, 1)[0].rotating);
  EXPECT_FALSE(detect_rotation(s1, s2, 2)[0].rotating);
}

// ---- Homogeneity --------------------------------------------------------------

routing::BgpTable two_as_bgp() {
  routing::BgpTable bgp;
  bgp.announce({pfx("2001:4dd0::/32"), 8422, "DE", "NetCologne"});
  bgp.announce({pfx("2405:4800::/32"), 7552, "VN", "Viettel"});
  return bgp;
}

TEST(Homogeneity, DominantVendorFractionPerAs) {
  ObservationStore store;
  // 30 AVM + 2 Zyxel devices in AS8422.
  for (std::uint64_t i = 0; i < 30; ++i) {
    store.add(Observation{addr("2001:4dd0::1"),
                          eui_response(addr("2001:4dd0:1::").network() + i,
                                       kAvmMac + i),
                          wire::Icmpv6Type::kDestinationUnreachable, 1, 0});
  }
  for (std::uint64_t i = 0; i < 2; ++i) {
    store.add(Observation{addr("2001:4dd0::1"),
                          eui_response(addr("2001:4dd0:2::").network() + i,
                                       0x001349000000ULL + i),
                          wire::Icmpv6Type::kDestinationUnreachable, 1, 0});
  }
  const auto bgp = two_as_bgp();
  const auto result =
      analyze_homogeneity(store, bgp, oui::builtin_registry(), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].asn, 8422u);
  EXPECT_EQ(result[0].unique_iids, 32u);
  EXPECT_EQ(result[0].dominant_vendor(), "AVM GmbH");
  EXPECT_NEAR(result[0].index(), 30.0 / 32.0, 1e-9);
  ASSERT_EQ(result[0].vendors.size(), 2u);
  EXPECT_EQ(result[0].vendors[1].vendor, "Zyxel Communications");
}

TEST(Homogeneity, MinIidThresholdExcludesSmallAses) {
  ObservationStore store;
  for (std::uint64_t i = 0; i < 5; ++i) {
    store.add(Observation{addr("2001:4dd0::1"),
                          eui_response(addr("2001:4dd0:1::").network() + i,
                                       kAvmMac + i),
                          wire::Icmpv6Type::kDestinationUnreachable, 1, 0});
  }
  const auto bgp = two_as_bgp();
  EXPECT_TRUE(
      analyze_homogeneity(store, bgp, oui::builtin_registry(), 100).empty());
  EXPECT_EQ(
      analyze_homogeneity(store, bgp, oui::builtin_registry(), 5).size(), 1u);
}

TEST(Homogeneity, UnknownOuisBucketedAsUnknown) {
  ObservationStore store;
  for (std::uint64_t i = 0; i < 4; ++i) {
    store.add(Observation{addr("2001:4dd0::1"),
                          eui_response(addr("2001:4dd0:1::").network() + i,
                                       0xdddddd000000ULL + i),
                          wire::Icmpv6Type::kDestinationUnreachable, 1, 0});
  }
  const auto bgp = two_as_bgp();
  const auto result =
      analyze_homogeneity(store, bgp, oui::builtin_registry(), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].dominant_vendor(), "(unknown)");
}

TEST(Homogeneity, SameMacCountsOncePerAs) {
  ObservationStore store;
  // Duplicate observations of one MAC: unique_iids stays 1.
  for (int i = 0; i < 5; ++i) {
    store.add(Observation{addr("2001:4dd0::1"),
                          eui_response(addr("2001:4dd0:1::").network(),
                                       kAvmMac),
                          wire::Icmpv6Type::kDestinationUnreachable, 1,
                          sim::days(i)});
  }
  const auto bgp = two_as_bgp();
  const auto result =
      analyze_homogeneity(store, bgp, oui::builtin_registry(), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].unique_iids, 1u);
}

// ---- Pathology -----------------------------------------------------------------

void observe_in_as(ObservationStore& store, std::uint64_t mac,
                   const char* network, sim::TimePoint t) {
  store.add(Observation{addr("::1"), eui_response(addr(network).network(), mac),
                        wire::Icmpv6Type::kDestinationUnreachable, 1, t});
}

TEST(Pathology, SingleAsIidIsNotReported) {
  ObservationStore store;
  observe_in_as(store, kAvmMac, "2001:4dd0:1::", 0);
  observe_in_as(store, kAvmMac, "2001:4dd0:2::", sim::days(1));
  const auto bgp = two_as_bgp();
  EXPECT_TRUE(find_multi_as_iids(store, bgp).empty());
}

TEST(Pathology, ConcurrentReuseDetected) {
  ObservationStore store;
  const auto bgp = two_as_bgp();
  // Same MAC in both ASes every day for 5 days.
  for (int day = 0; day < 5; ++day) {
    observe_in_as(store, kZteMac, "2001:4dd0:1::", sim::days(day));
    observe_in_as(store, kZteMac, "2405:4800:1::", sim::days(day));
  }
  const auto result = find_multi_as_iids(store, bgp);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].kind, PathologyKind::kConcurrentReuse);
  EXPECT_EQ(result[0].concurrent_days, 5u);
  EXPECT_EQ(result[0].asns, (std::vector<routing::Asn>{7552, 8422}));
}

TEST(Pathology, DefaultMacClassifiedEvenWhenConcurrent) {
  ObservationStore store;
  const auto bgp = two_as_bgp();
  for (int day = 0; day < 5; ++day) {
    observe_in_as(store, 0, "2001:4dd0:1::", sim::days(day));
    observe_in_as(store, 0, "2405:4800:1::", sim::days(day));
  }
  const auto result = find_multi_as_iids(store, bgp);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].kind, PathologyKind::kDefaultMac);
}

TEST(Pathology, ProviderSwitchDetected) {
  ObservationStore store;
  const auto bgp = two_as_bgp();
  for (int day = 0; day < 10; ++day) {
    observe_in_as(store, kAvmMac, "2001:4dd0:1::", sim::days(day));
  }
  for (int day = 12; day < 20; ++day) {
    observe_in_as(store, kAvmMac, "2405:4800:1::", sim::days(day));
  }
  const auto result = find_multi_as_iids(store, bgp);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].kind, PathologyKind::kProviderSwitch);
  EXPECT_EQ(result[0].switch_from, 8422u);
  EXPECT_EQ(result[0].switch_to, 7552u);
  EXPECT_EQ(result[0].switch_day, 12);
}

TEST(Pathology, OverlappingAsUseIsOtherNotSwitch) {
  ObservationStore store;
  const auto bgp = two_as_bgp();
  observe_in_as(store, kAvmMac, "2001:4dd0:1::", sim::days(0));
  observe_in_as(store, kAvmMac, "2405:4800:1::", sim::days(1));
  observe_in_as(store, kAvmMac, "2001:4dd0:1::", sim::days(2));
  const auto result = find_multi_as_iids(store, bgp);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].kind, PathologyKind::kMultiAsOther);
}

TEST(Pathology, PresenceOfBuildsDailyAsSets) {
  ObservationStore store;
  const auto bgp = two_as_bgp();
  observe_in_as(store, kZteMac, "2001:4dd0:1::", sim::days(3));
  observe_in_as(store, kZteMac, "2405:4800:1::", sim::days(3) + sim::hours(2));
  observe_in_as(store, kZteMac, "2405:4800:1::", sim::days(4));
  const auto presence = analysis::presence_of(analysis::analyze(store, &bgp),
                                              net::MacAddress{kZteMac});
  ASSERT_EQ(presence.days.size(), 2u);
  EXPECT_EQ(presence.days.at(3).size(), 2u);
  EXPECT_EQ(presence.days.at(4).size(), 1u);
}

// ---- Stride predictor -----------------------------------------------------------

TEST(Predictor, FitsCleanDailyStride) {
  const net::Prefix pool = pfx("2001:16b8:100::/46");
  std::vector<Sighting> sightings;
  const std::uint64_t base = pool.base().network();
  // Slots (in /56 units = 256 /64s): 10, 246, 482 -> stride 236.
  for (std::int64_t day = 0; day < 3; ++day) {
    sightings.push_back(Sighting{
        day, base + static_cast<std::uint64_t>((10 + day * 236)) * 256});
  }
  const auto model = fit_stride(sightings, pool, 56);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->stride, 236u);
  EXPECT_EQ(model->support, 1.0);
  EXPECT_EQ(model->predict_slot(3), (10 + 3 * 236) % 1024u);
  EXPECT_EQ(model->predict_allocation(3),
            pool.subnet(56, net::Uint128{(10 + 3 * 236) % 1024}));
}

TEST(Predictor, HandlesWrapAroundPool) {
  const net::Prefix pool = pfx("2001:16b8:100::/46");
  const std::uint64_t base = pool.base().network();
  std::vector<Sighting> sightings;
  for (std::int64_t day = 0; day < 6; ++day) {
    const std::uint64_t slot = (900 + static_cast<std::uint64_t>(day) * 236) %
                               1024;
    sightings.push_back(Sighting{day, base + slot * 256});
  }
  const auto model = fit_stride(sightings, pool, 56);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->stride, 236u);
  // Prediction into the future wraps modulo the pool.
  EXPECT_EQ(model->predict_slot(10), (900 + 10 * 236) % 1024u);
  // Prediction into the past works too.
  EXPECT_EQ(model->predict_slot(-2),
            (900 + 1024 - ((2 * 236) % 1024)) % 1024u);
}

TEST(Predictor, RejectsNonRotatingDevice) {
  const net::Prefix pool = pfx("2001:16b8:100::/46");
  const std::uint64_t base = pool.base().network();
  std::vector<Sighting> sightings;
  for (std::int64_t day = 0; day < 5; ++day) {
    sightings.push_back(Sighting{day, base + 10 * 256});
  }
  // Stride 0: no rotation signal.
  EXPECT_FALSE(fit_stride(sightings, pool, 56).has_value());
}

TEST(Predictor, RejectsInconsistentSightings) {
  const net::Prefix pool = pfx("2001:16b8:100::/46");
  const std::uint64_t base = pool.base().network();
  // Random jumps with no consistent stride.
  std::vector<Sighting> sightings = {
      Sighting{0, base + 10 * 256}, Sighting{1, base + 700 * 256},
      Sighting{2, base + 35 * 256}, Sighting{3, base + 501 * 256},
      Sighting{4, base + 77 * 256}};
  EXPECT_FALSE(fit_stride(sightings, pool, 56, 0.6).has_value());
}

TEST(Predictor, ToleratesOneMissedDay) {
  const net::Prefix pool = pfx("2001:16b8:100::/46");
  const std::uint64_t base = pool.base().network();
  // Days 0,1,3,4: the 1->3 gap is 2 days = 472 slots, cleanly divisible.
  std::vector<Sighting> sightings;
  for (const std::int64_t day : {0, 1, 3, 4}) {
    const std::uint64_t slot = (10 + static_cast<std::uint64_t>(day) * 236) %
                               1024;
    sightings.push_back(Sighting{day, base + slot * 256});
  }
  const auto model = fit_stride(sightings, pool, 56);
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(model->stride, 236u);
}

TEST(Predictor, IgnoresSightingsOutsidePool) {
  const net::Prefix pool = pfx("2001:16b8:100::/46");
  std::vector<Sighting> sightings = {
      Sighting{0, addr("2003:e2::").network()},
      Sighting{1, addr("2003:e2::").network() + 256}};
  EXPECT_FALSE(fit_stride(sightings, pool, 56).has_value());
}

TEST(Predictor, RequiresTwoSightings) {
  const net::Prefix pool = pfx("2001:16b8:100::/46");
  EXPECT_FALSE(fit_stride({}, pool, 56).has_value());
  EXPECT_FALSE(
      fit_stride({Sighting{0, pool.base().network()}}, pool, 56).has_value());
}

}  // namespace
}  // namespace scent::core
