// derive.h - every analysis report, derived from one AggregateTable.
//
// These functions reproduce, bit for bit, what the legacy per-analysis
// full scans produced — but in time proportional to the device table, not
// the row count, because the fused pass (engine.h) already accumulated
// the per-device facts. The bench guard (bench_micro, "analysis" section
// of BENCH_micro.json) asserts both the equality and the speedup.
//
// Derivations that need target spans require the pass to have run with
// collect_targets (the default); sighting-based ones (sightings_of,
// networks_of) require collect_sightings; per-AS derivations (including
// presence_of) require attribute.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/aggregate.h"
#include "container/flat_hash.h"
#include "core/homogeneity.h"
#include "core/pathology.h"
#include "core/predictor.h"
#include "netbase/mac_address.h"
#include "netbase/prefix.h"
#include "oui/oui_registry.h"
#include "routing/bgp_table.h"

namespace scent::analysis {

/// Algorithm 1: per-device inferred allocation prefix lengths, in device
/// first-sighting order — identical to
/// AllocationSizeInference::per_device_lengths() after observe_all().
[[nodiscard]] std::vector<unsigned> allocation_lengths(
    const AggregateTable& table);

/// Algorithm 1's per-AS median (the paper's Fig 5b aggregate).
[[nodiscard]] std::optional<unsigned> allocation_median(
    const AggregateTable& table);

/// Algorithm 2: per-device inferred rotation-pool prefix lengths.
[[nodiscard]] std::vector<unsigned> pool_lengths(const AggregateTable& table);

/// Algorithm 2's median (Fig 7).
[[nodiscard]] std::optional<unsigned> pool_median(const AggregateTable& table);

/// One device's inferred allocation / pool length.
[[nodiscard]] std::optional<unsigned> allocation_length_for(
    const AggregateTable& table, net::MacAddress mac);
[[nodiscard]] std::optional<unsigned> pool_length_for(
    const AggregateTable& table, net::MacAddress mac);

/// The concrete pool prefix the tracker probes (§6): the tightest
/// pool_length-aligned prefix covering everywhere the device was seen —
/// identical to RotationPoolInference::pool_for.
[[nodiscard]] std::optional<net::Prefix> pool_for(const AggregateTable& table,
                                                  net::MacAddress mac,
                                                  unsigned pool_length);

/// Per-AS allocation medians (the campaign's day-0 granularity pass),
/// keyed ascending by ASN — identical to feeding one
/// AllocationSizeInference per AS row-by-row and taking median_length().
[[nodiscard]] container::FlatMap<routing::Asn, unsigned>
allocation_medians_by_as(const AggregateTable& table);

/// Vendor homogeneity per AS (§5.1, Fig 4) — identical to the legacy
/// analyze_homogeneity full scan.
[[nodiscard]] std::vector<core::AsHomogeneity> homogeneity(
    const AggregateTable& table, const oui::Registry& registry,
    std::size_t min_iids = 100);

/// Multi-AS pathology classification (§5.5) — identical to the legacy
/// find_multi_as_iids full scan.
[[nodiscard]] std::vector<core::MultiAsIid> multi_as_iids(
    const AggregateTable& table, const core::PathologyOptions& options = {});

/// One device's consecutive-deduplicated sighting history — identical to
/// sightings_from_snapshots over the same rows.
[[nodiscard]] std::vector<core::Sighting> sightings_of(
    const AggregateTable& table, net::MacAddress mac);

/// The distinct response /64s one device was seen in, in first-seen order
/// (Fig 8's per-IID count; Table 2's "rotated during discovery").
[[nodiscard]] std::vector<std::uint64_t> networks_of(
    const AggregateTable& table, net::MacAddress mac);

/// The origin ASes one device was attributed to on each day (Figs 11 and
/// 12) — its per-AS day sets inverted to day -> ASes. Rows no BGP route
/// attributes are absent, as in a row scan that skips them.
[[nodiscard]] core::DailyAsPresence presence_of(const AggregateTable& table,
                                                net::MacAddress mac);

}  // namespace scent::analysis
