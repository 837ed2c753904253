// pathology.h - anomalous EUI-64 behaviors (§5.5).
//
// Not every EUI-64 IID is a clean per-customer identifier. The paper's
// campaign surfaced three pathologies, all of which this module detects
// from the observation corpus alone:
//   * default MACs (00:00:00:00:00:00 and friends) appearing in many ASes;
//   * vendor MAC reuse — the same IID observed in geographically distant
//     ASes *concurrently*, day after day;
//   * provider switches — an IID that stops appearing in one AS and starts
//     in another (Figure 12), i.e. a customer changing ISPs.
// Distinguishing these matters: reused MACs are useless as tracking
// identifiers, while switches are a tracking signal in themselves.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/observation.h"
#include "netbase/mac_address.h"
#include "routing/bgp_table.h"

namespace scent::core {

enum class PathologyKind : std::uint8_t {
  kDefaultMac,      ///< A well-known filler MAC (e.g. all-zero).
  kConcurrentReuse, ///< Seen in >= 2 ASes on the same day, repeatedly.
  kProviderSwitch,  ///< Clean hand-off from one AS to another.
  kMultiAsOther,    ///< In multiple ASes without a clearer signature.
};

[[nodiscard]] constexpr std::string_view to_string(PathologyKind k) noexcept {
  switch (k) {
    case PathologyKind::kDefaultMac: return "default-mac";
    case PathologyKind::kConcurrentReuse: return "concurrent-reuse";
    case PathologyKind::kProviderSwitch: return "provider-switch";
    case PathologyKind::kMultiAsOther: return "multi-as-other";
  }
  return "unknown";
}

struct MultiAsIid {
  net::MacAddress mac;
  PathologyKind kind = PathologyKind::kMultiAsOther;
  std::vector<routing::Asn> asns;  ///< Distinct ASes, ascending.
  std::uint64_t concurrent_days = 0;  ///< Days observed in >= 2 ASes.

  /// For kProviderSwitch: the ASes before/after and the switch day.
  routing::Asn switch_from = 0;
  routing::Asn switch_to = 0;
  std::int64_t switch_day = 0;
};

struct PathologyOptions {
  /// Days with multi-AS sightings required to call it concurrent reuse.
  std::uint64_t min_concurrent_days = 3;
};

/// Finds the IIDs observed in more than one AS and classifies each one,
/// through one fused analysis pass (analysis::multi_as_iids).
[[nodiscard]] std::vector<MultiAsIid> find_multi_as_iids(
    const ObservationStore& store, const routing::BgpTable& bgp,
    const PathologyOptions& options = {});

/// The origin ASes one IID was attributed to on each day — the data
/// behind Figures 11 and 12. analysis::presence_of derives it from the
/// fused pass's per-AS day sets.
struct DailyAsPresence {
  std::map<std::int64_t, std::set<routing::Asn>> days;  ///< day -> ASes seen.
};

}  // namespace scent::core
