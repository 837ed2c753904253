// dossier.h - cross-dataset device dossiers and their derived reports.
//
// A dossier is the join's output row (DESIGN.md §5l): everything both
// datasets know about one MAC. From the rotation corpus, the device's
// sighting history — which /64 it sat behind on which day, attributed to
// which AS. From the geolocation feed, zero or more anchors — street-level
// fixes keyed by the same MAC, the IPvSeeYou coupling that turns a prefix
// rotation trace into a map pin.
//
// make_dossier is the single definition of join semantics: both the
// partitioned out-of-core engine (join/join.h) and the naive oracle
// (join/naive.h) funnel their matched row groups through it, so the
// differential test compares join machinery, never two reimplementations
// of dossier construction. It canonicalizes (sorts and deduplicates) both
// sides, which is also what makes the engine's output independent of
// arrival order, thread count and partition fan-out.
//
// The derived reports are derive.h-style pure functions over a
// DossierTable: cross-AS MAC reuse (the same burned-in identifier
// surfacing behind multiple providers) and provider-switch timelines
// (when a device moved ASes — a rotation trace that outlives the
// subscriber's ISP contract).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "corpus/keyed_run.h"
#include "netbase/mac_address.h"
#include "oui/oui_registry.h"

namespace scent::analysis {

/// One corpus-side sighting: the device answered EUI-64 probes from
/// `network` (a /64 upper half) on `day`, attributed to `asn` (0 when no
/// BGP table was supplied).
struct DossierSighting {
  std::int64_t day = 0;
  std::uint64_t network = 0;
  std::uint32_t asn = 0;

  friend constexpr bool operator==(const DossierSighting&,
                                   const DossierSighting&) = default;
  friend constexpr auto operator<=>(const DossierSighting&,
                                    const DossierSighting&) = default;
};

/// One feed-side anchor: a geolocated fix for the same MAC.
struct GeoAnchor {
  std::int64_t day = 0;
  std::int32_t lat_udeg = 0;
  std::int32_t lon_udeg = 0;
  std::uint32_t asn = 0;

  friend constexpr bool operator==(const GeoAnchor&,
                                   const GeoAnchor&) = default;
  friend constexpr auto operator<=>(const GeoAnchor&,
                                    const GeoAnchor&) = default;
};

/// The join's output row: one per corpus MAC (left-outer — anchors empty
/// when the feed never heard the device).
struct DeviceDossier {
  net::MacAddress mac;
  std::vector<DossierSighting> sightings;  ///< Sorted, deduplicated.
  std::vector<GeoAnchor> anchors;          ///< Sorted, deduplicated.

  friend bool operator==(const DeviceDossier&,
                         const DeviceDossier&) = default;
};

/// Packs a geolocation fix into one KeyedRecord payload column (lat in the
/// high half, lon in the low half), so the feed side of the join rides the
/// same spill format as the corpus side.
[[nodiscard]] constexpr std::uint64_t pack_latlon(std::int32_t lat_udeg,
                                                  std::int32_t lon_udeg) {
  return (std::uint64_t{static_cast<std::uint32_t>(lat_udeg)} << 32) |
         static_cast<std::uint32_t>(lon_udeg);
}

[[nodiscard]] constexpr std::int32_t unpack_lat(std::uint64_t packed) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(packed >> 32));
}

[[nodiscard]] constexpr std::int32_t unpack_lon(std::uint64_t packed) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(packed));
}

/// Builds the canonical dossier for one MAC from its matched row groups.
/// Corpus rows carry {c0 = network, c1 = asn, c2 = day}; geo rows carry
/// {c0 = pack_latlon, c1 = asn, c2 = day}. Input order is irrelevant —
/// both sides are sorted into their operator<=> order and exact
/// duplicates collapsed. Sightings of a group of 64 or more sort with an
/// LSD radix sort that makes one pass per byte of (day, network, asn)
/// that varies in the group (the day compared signed); smaller groups and
/// the anchors use std::sort. Both orders are the same total order, so the
/// engine and the naive oracle share one canonicalisation.
[[nodiscard]] DeviceDossier make_dossier(
    net::MacAddress mac, std::span<const corpus::KeyedRecord> corpus_rows,
    std::span<const corpus::KeyedRecord> geo_rows);

/// Dossier consumer. The join engine emits dossiers in ascending MAC order
/// regardless of thread count or partition fan-out; sinks may rely on that.
class DossierSink {
 public:
  virtual ~DossierSink() = default;
  virtual void on_dossier(DeviceDossier dossier) = 0;
};

/// The in-memory sink: collects dossiers in emission (ascending-MAC) order.
class DossierTable final : public DossierSink {
 public:
  void on_dossier(DeviceDossier dossier) override {
    rows_.push_back(std::move(dossier));
  }

  [[nodiscard]] const std::vector<DeviceDossier>& rows() const noexcept {
    return rows_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }

 private:
  std::vector<DeviceDossier> rows_;
};

/// A MAC observed behind more than one AS across the corpus — either CPE
/// redeployed to a different provider or a MAC collision worth flagging.
struct MacReuse {
  net::MacAddress mac;
  std::vector<std::uint32_t> asns;  ///< Ascending, unique, size >= 2.
  std::int64_t first_day = 0;
  std::int64_t last_day = 0;

  friend bool operator==(const MacReuse&, const MacReuse&) = default;
};

/// One provider transition in a device's day-ordered sighting history.
struct ProviderSwitch {
  net::MacAddress mac;
  std::uint32_t from_asn = 0;
  std::uint32_t to_asn = 0;
  std::int64_t day = 0;  ///< First day seen behind to_asn.

  friend bool operator==(const ProviderSwitch&,
                         const ProviderSwitch&) = default;
};

/// Devices whose sightings span >= 2 ASNs, in table (ascending-MAC) order.
[[nodiscard]] std::vector<MacReuse> cross_as_mac_reuse(
    const DossierTable& table);

/// Every AS-to-AS transition in every device's day-ordered history, in
/// table order then chronological order. Sightings with asn == 0
/// (unattributed) are ignored.
[[nodiscard]] std::vector<ProviderSwitch> provider_switch_timeline(
    const DossierTable& table);

/// Vendor → device count over the table's MACs, ascending by vendor name;
/// OUIs the registry cannot resolve land under "(unknown)".
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
dossier_vendor_census(const DossierTable& table, const oui::Registry& registry);

/// Fraction of dossiers the feed anchored (0 for an empty table).
[[nodiscard]] double anchored_fraction(const DossierTable& table);

}  // namespace scent::analysis
