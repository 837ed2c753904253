#include "analysis/dossier.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>

namespace scent::analysis {
namespace {

/// Groups below this many sightings keep std::sort: every radix pass pays
/// for a 256-bucket histogram whatever the group size.
constexpr std::size_t kRadixMinSightings = 64;

/// Flipping the sign bit makes unsigned order on the day signed order.
constexpr std::uint64_t kDaySign = std::uint64_t{1} << 63;

/// Word `w` of a sighting's sort key, least significant first: asn, then
/// network, then the sign-flipped day — so ascending (w2, w1, w0) is
/// DossierSighting's operator<=> order.
[[nodiscard]] std::uint64_t key_word(const DossierSighting& s,
                                     unsigned w) noexcept {
  if (w == 0) return s.asn;
  if (w == 1) return s.network;
  return static_cast<std::uint64_t>(s.day) ^ kDaySign;
}

/// Sorts sightings into operator<=> order with an LSD radix sort over only
/// the key bytes that vary in the group: an AND/OR reduction of each key
/// word finds them (a device's days, networks and ASes share most of their
/// bytes), one counting pass histograms just those bytes, and each gets
/// one stable scatter pass, asn bytes first and the day's top byte last.
void sort_sightings(std::vector<DossierSighting>& sightings) {
  const std::size_t n = sightings.size();
  if (n < kRadixMinSightings || n > UINT32_MAX) {
    std::sort(sightings.begin(), sightings.end());
    return;
  }
  std::array<std::uint64_t, 3> all_and{~std::uint64_t{0}, ~std::uint64_t{0},
                                       ~std::uint64_t{0}};
  std::array<std::uint64_t, 3> any_or{};
  for (const DossierSighting& s : sightings) {
    for (unsigned w = 0; w < 3; ++w) {
      all_and[w] &= key_word(s, w);
      any_or[w] |= key_word(s, w);
    }
  }
  struct Digit {
    unsigned word;
    unsigned shift;
  };
  std::array<Digit, 20> digits{};
  unsigned count = 0;
  for (unsigned w = 0; w < 3; ++w) {
    const std::uint64_t varying = all_and[w] ^ any_or[w];
    for (unsigned shift = 0; shift < 64; shift += 8) {
      if (((varying >> shift) & 0xff) != 0) digits[count++] = {w, shift};
    }
  }
  if (count == 0) return;  // every sighting is the same one

  std::array<std::array<std::uint32_t, 256>, 20> buckets;
  for (unsigned d = 0; d < count; ++d) buckets[d].fill(0);
  for (const DossierSighting& s : sightings) {
    for (unsigned d = 0; d < count; ++d) {
      ++buckets[d][(key_word(s, digits[d].word) >> digits[d].shift) & 0xff];
    }
  }
  std::vector<DossierSighting> scratch(n);
  for (unsigned d = 0; d < count; ++d) {
    std::uint32_t start = 0;
    for (std::uint32_t& c : buckets[d]) {
      const std::uint32_t size = c;
      c = start;
      start += size;
    }
    for (const DossierSighting& s : sightings) {
      scratch[buckets[d][(key_word(s, digits[d].word) >> digits[d].shift) &
                         0xff]++] = s;
    }
    sightings.swap(scratch);
  }
}

}  // namespace

DeviceDossier make_dossier(net::MacAddress mac,
                           std::span<const corpus::KeyedRecord> corpus_rows,
                           std::span<const corpus::KeyedRecord> geo_rows) {
  DeviceDossier dossier;
  dossier.mac = mac;
  dossier.sightings.reserve(corpus_rows.size());
  for (const corpus::KeyedRecord& row : corpus_rows) {
    dossier.sightings.push_back(
        DossierSighting{.day = static_cast<std::int64_t>(row.c2),
                        .network = row.c0,
                        .asn = static_cast<std::uint32_t>(row.c1)});
  }
  sort_sightings(dossier.sightings);
  dossier.sightings.erase(
      std::unique(dossier.sightings.begin(), dossier.sightings.end()),
      dossier.sightings.end());

  dossier.anchors.reserve(geo_rows.size());
  for (const corpus::KeyedRecord& row : geo_rows) {
    dossier.anchors.push_back(
        GeoAnchor{.day = static_cast<std::int64_t>(row.c2),
                  .lat_udeg = unpack_lat(row.c0),
                  .lon_udeg = unpack_lon(row.c0),
                  .asn = static_cast<std::uint32_t>(row.c1)});
  }
  std::sort(dossier.anchors.begin(), dossier.anchors.end());
  dossier.anchors.erase(
      std::unique(dossier.anchors.begin(), dossier.anchors.end()),
      dossier.anchors.end());
  return dossier;
}

std::vector<MacReuse> cross_as_mac_reuse(const DossierTable& table) {
  std::vector<MacReuse> out;
  for (const DeviceDossier& dossier : table.rows()) {
    if (dossier.sightings.empty()) continue;
    MacReuse reuse;
    reuse.mac = dossier.mac;
    reuse.first_day = dossier.sightings.front().day;
    reuse.last_day = dossier.sightings.front().day;
    for (const DossierSighting& s : dossier.sightings) {
      reuse.first_day = std::min(reuse.first_day, s.day);
      reuse.last_day = std::max(reuse.last_day, s.day);
      if (s.asn != 0) reuse.asns.push_back(s.asn);
    }
    std::sort(reuse.asns.begin(), reuse.asns.end());
    reuse.asns.erase(std::unique(reuse.asns.begin(), reuse.asns.end()),
                     reuse.asns.end());
    if (reuse.asns.size() >= 2) out.push_back(std::move(reuse));
  }
  return out;
}

std::vector<ProviderSwitch> provider_switch_timeline(
    const DossierTable& table) {
  std::vector<ProviderSwitch> out;
  for (const DeviceDossier& dossier : table.rows()) {
    // Sightings are (day, network, asn)-sorted; walk them chronologically
    // and record each day the attributed AS changes.
    std::uint32_t current = 0;
    for (const DossierSighting& s : dossier.sightings) {
      if (s.asn == 0) continue;
      if (current != 0 && s.asn != current) {
        out.push_back(ProviderSwitch{
            .mac = dossier.mac, .from_asn = current, .to_asn = s.asn,
            .day = s.day});
      }
      current = s.asn;
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> dossier_vendor_census(
    const DossierTable& table, const oui::Registry& registry) {
  std::map<std::string, std::uint64_t> counts;
  for (const DeviceDossier& dossier : table.rows()) {
    const auto vendor = registry.vendor(dossier.mac);
    counts[vendor ? std::string(*vendor) : std::string("(unknown)")] += 1;
  }
  return {counts.begin(), counts.end()};
}

double anchored_fraction(const DossierTable& table) {
  if (table.rows().empty()) return 0.0;
  std::uint64_t anchored = 0;
  for (const DeviceDossier& dossier : table.rows()) {
    if (!dossier.anchors.empty()) ++anchored;
  }
  return static_cast<double>(anchored) /
         static_cast<double>(table.rows().size());
}

}  // namespace scent::analysis
