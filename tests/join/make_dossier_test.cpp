// make_dossier against the plain definition of a dossier: each side's rows
// mapped to sightings / anchors, std::sort, std::unique. Groups of 0 to
// 4096 rows cross the radix sort's small-group cutoff, and the key fields
// take the values an ordering bug would show on: negative days and the
// INT64 extremes, networks over all 64 bits, mixed and extreme ASNs, exact
// duplicates, groups that vary in one field or in none. Suite names start
// with "Join" for the TSan leg.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dossier.h"
#include "corpus/keyed_run.h"
#include "sim/rng.h"

namespace scent::analysis {
namespace {

constexpr std::uint64_t kMac = 0x3810d5000042ULL;

DeviceDossier reference_dossier(const std::vector<corpus::KeyedRecord>& corpus,
                                const std::vector<corpus::KeyedRecord>& geo) {
  DeviceDossier d;
  d.mac = net::MacAddress{kMac};
  for (const corpus::KeyedRecord& row : corpus) {
    d.sightings.push_back({.day = static_cast<std::int64_t>(row.c2),
                           .network = row.c0,
                           .asn = static_cast<std::uint32_t>(row.c1)});
  }
  std::sort(d.sightings.begin(), d.sightings.end());
  d.sightings.erase(std::unique(d.sightings.begin(), d.sightings.end()),
                    d.sightings.end());
  for (const corpus::KeyedRecord& row : geo) {
    d.anchors.push_back({.day = static_cast<std::int64_t>(row.c2),
                         .lat_udeg = unpack_lat(row.c0),
                         .lon_udeg = unpack_lon(row.c0),
                         .asn = static_cast<std::uint32_t>(row.c1)});
  }
  std::sort(d.anchors.begin(), d.anchors.end());
  d.anchors.erase(std::unique(d.anchors.begin(), d.anchors.end()),
                  d.anchors.end());
  return d;
}

/// How a group's fields are drawn.
enum class Shape {
  kWide,       // every field over its whole range, extremes included
  kClustered,  // a device's history: few days, one /48, one or two ASes
  kDayOnly,    // only the day varies (negative days included)
  kConstant,   // every row the same sighting
};

std::int64_t draw_day(sim::Rng& rng, Shape shape) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  switch (shape) {
    case Shape::kWide:
      switch (rng.below(5)) {
        case 0:
          return kMin + static_cast<std::int64_t>(rng.below(3));
        case 1:
          return kMax - static_cast<std::int64_t>(rng.below(3));
        case 2:
          return static_cast<std::int64_t>(rng.below(9)) - 4;
        default:
          return static_cast<std::int64_t>(rng.next());
      }
    case Shape::kClustered:
      return 100 + static_cast<std::int64_t>(rng.below(44));
    case Shape::kDayOnly:
      return static_cast<std::int64_t>(rng.below(600)) - 300;
    case Shape::kConstant:
      return -7;
  }
  return 0;
}

corpus::KeyedRecord draw_corpus_row(sim::Rng& rng, Shape shape) {
  corpus::KeyedRecord row{.key = kMac};
  row.c2 = static_cast<std::uint64_t>(draw_day(rng, shape));
  switch (shape) {
    case Shape::kWide:
      row.c0 = rng.next();
      row.c1 = rng.below(3) == 0 ? std::numeric_limits<std::uint32_t>::max() -
                                       rng.below(2)
                                 : rng.below(4) == 0 ? 0 : rng.next() >> 32;
      break;
    case Shape::kClustered:
      row.c0 = 0x2003e20000000000ULL | rng.below(1 << 16);
      row.c1 = 65000 + rng.below(2);
      break;
    case Shape::kDayOnly:
    case Shape::kConstant:
      row.c0 = 0x2003e2000000ab00ULL;
      row.c1 = 65001;
      break;
  }
  return row;
}

corpus::KeyedRecord draw_geo_row(sim::Rng& rng) {
  const auto lat = static_cast<std::int32_t>(rng.below(180'000'001)) -
                   90'000'000;
  const auto lon = static_cast<std::int32_t>(rng.below(360'000'001)) -
                   180'000'000;
  return corpus::KeyedRecord{
      .key = kMac,
      .c0 = pack_latlon(lat, lon),
      .c1 = rng.below(2) == 0 ? 0 : 64500 + rng.below(4),
      .c2 = static_cast<std::uint64_t>(draw_day(rng, Shape::kWide))};
}

/// `n` corpus rows of `shape`, a tenth of them exact copies of earlier
/// rows, in random order.
std::vector<corpus::KeyedRecord> draw_group(sim::Rng& rng, std::size_t n,
                                            Shape shape) {
  std::vector<corpus::KeyedRecord> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!rows.empty() && rng.below(10) == 0) {
      rows.push_back(rows[rng.below(rows.size())]);
    } else {
      rows.push_back(draw_corpus_row(rng, shape));
    }
  }
  return rows;
}

TEST(JoinMakeDossier, MatchesSortAndUniqueAcrossSizesAndShapes) {
  std::vector<std::size_t> sizes = {0,  1,  2,   3,   31,  62,   63,  64,
                                    65, 66, 127, 128, 255, 1000, 1024, 4096};
  sim::Rng rng{0xD055};
  for (int i = 0; i < 24; ++i) sizes.push_back(rng.below(4097));
  for (const Shape shape : {Shape::kWide, Shape::kClustered, Shape::kDayOnly,
                            Shape::kConstant}) {
    for (const std::size_t n : sizes) {
      SCOPED_TRACE(testing::Message() << "shape " << static_cast<int>(shape)
                                      << ", " << n << " rows");
      const std::vector<corpus::KeyedRecord> corpus =
          draw_group(rng, n, shape);
      std::vector<corpus::KeyedRecord> geo;
      const std::size_t anchors = rng.below(n % 7 == 0 ? 200 : 4);
      for (std::size_t a = 0; a < anchors; ++a) {
        geo.push_back(a > 0 && rng.below(4) == 0 ? geo[rng.below(geo.size())]
                                                 : draw_geo_row(rng));
      }
      const DeviceDossier got =
          make_dossier(net::MacAddress{kMac}, corpus, geo);
      const DeviceDossier want = reference_dossier(corpus, geo);
      ASSERT_EQ(got.sightings.size(), want.sightings.size());
      EXPECT_TRUE(got == want);

      // Arrival order cannot reach the dossier.
      std::vector<corpus::KeyedRecord> reversed(corpus.rbegin(),
                                                corpus.rend());
      EXPECT_TRUE(make_dossier(net::MacAddress{kMac}, reversed, geo) == got);
    }
  }
}

TEST(JoinMakeDossier, SignedDayOrderSurvivesTheByteSort) {
  // Enough rows for the radix path, all sharing network and asn, so the
  // sign-flipped day is the only key: INT64_MIN first, INT64_MAX last, -1
  // just below 0.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::int64_t> days = {kMax, 0, -1, kMin, 1, kMin + 1,
                                          kMax - 1, -256, 255, 256};
  std::vector<corpus::KeyedRecord> corpus;
  for (int copy = 0; copy < 20; ++copy) {
    for (const std::int64_t day : days) {
      corpus.push_back({.key = kMac,
                        .c0 = 0xfedcba9876543210ULL,
                        .c1 = 4294967295ULL,
                        .c2 = static_cast<std::uint64_t>(day)});
    }
  }
  const DeviceDossier got = make_dossier(net::MacAddress{kMac}, corpus, {});
  std::vector<std::int64_t> want = days;
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.sightings.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.sightings[i].day, want[i]) << i;
    EXPECT_EQ(got.sightings[i].asn, 4294967295u);
  }
}

}  // namespace
}  // namespace scent::analysis
