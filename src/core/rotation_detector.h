// rotation_detector.h - two-snapshot prefix-rotation detection (§4.3).
//
// Scan the same targets, in the same order, 24 hours apart. For every target
// whose response was an EUI-64 address in either snapshot, compare the
// <target, response> pairs: any difference — a different EUI-64, a
// disappearance, or a fresh appearance — marks the target's /48 as
// exhibiting rotation-like churn. The paper deliberately sets no churn
// threshold so gradual or non-uniform rotation still registers; this
// implementation exposes the threshold as a parameter (default 0) so the
// ablation bench can sweep it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "container/flat_hash.h"
#include "netbase/eui64.h"
#include "netbase/ipv6_address.h"
#include "netbase/prefix.h"
#include "probe/prober.h"
#include "telemetry/metrics.h"

namespace scent::corpus {
class SnapshotReader;
}  // namespace scent::corpus

namespace scent::core {

/// A snapshot: target -> EUI-64 response address (non-EUI and silent
/// targets are simply absent). Flat-map backed: iteration is in target
/// first-recording order, i.e. probe order — deterministic.
class Snapshot {
 public:
  using Map = container::FlatMap<net::Ipv6Address, net::Ipv6Address,
                                 net::Ipv6AddressHash>;

  void record(net::Ipv6Address target, net::Ipv6Address response) {
    if (net::is_eui64(response)) map_[target] = response;
  }

  void record_all(const std::vector<probe::ProbeResult>& results) {
    for (const auto& r : results) {
      if (r.responded) record(r.target, r.response_source);
    }
  }

  /// record() over two parallel columns, row by row, into a map sized up
  /// front for the rows' EUI-64 responses. The one builder behind the
  /// snapshot file's pair section and the fused scan's window snapshots.
  /// Header-only: the corpus and analysis layers link below core.
  void record_rows(std::span<const net::Ipv6Address> targets,
                   std::span<const net::Ipv6Address> responses) {
    std::size_t eui = 0;
    for (const net::Ipv6Address response : responses) {
      eui += net::is_eui64(response) ? 1 : 0;
    }
    map_.reserve(map_.size() + eui);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (net::is_eui64(responses[i])) map_[targets[i]] = responses[i];
    }
  }

  [[nodiscard]] const Map& map() const noexcept { return map_; }

 private:
  Map map_;
};

struct RotationVerdict {
  net::Prefix prefix;              ///< The /48 under test.
  std::uint64_t eui_targets = 0;   ///< Targets EUI-responsive in either snap.
  std::uint64_t changed = 0;       ///< Pairs that differ between snaps.
  bool rotating = false;
};

/// Compares two snapshots and classifies each /48 (grouping targets by
/// their covering /48). A /48 is flagged when the changed-pair count
/// exceeds `churn_threshold` (paper default: any change at all). With a
/// registry, bumps `rotation.checked_48s` / `rotation.rotating_48s` and
/// feeds the per-/48 churn percentage into `rotation.churn_pct`.
[[nodiscard]] std::vector<RotationVerdict> detect_rotation(
    const Snapshot& first, const Snapshot& second,
    std::uint64_t churn_threshold = 0,
    telemetry::Registry* registry = nullptr);

/// Incremental variant for longitudinal campaigns: diffs today's snapshot
/// against the *persisted* prior day, streaming the prior snapshot's
/// deduplicated EUI-pair section (already in Snapshot-map form, recorded at
/// write time) instead of holding two full stores in memory. Verdicts are
/// identical to detect_rotation(prior-day Snapshot, second) — the on-disk
/// pair section has exactly the in-memory Snapshot's semantics. Returns
/// nullopt if the reader fails (unopened file or corrupt section); telemetry
/// is untouched in that case.
[[nodiscard]] std::optional<std::vector<RotationVerdict>>
detect_rotation_incremental(corpus::SnapshotReader& prior,
                            const Snapshot& second,
                            std::uint64_t churn_threshold = 0,
                            telemetry::Registry* registry = nullptr);

}  // namespace scent::core
