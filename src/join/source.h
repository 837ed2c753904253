// source.h - shared input extraction for the cross-dataset join.
//
// Both join implementations — the partitioned out-of-core engine (join.h)
// and the naive oracle (naive.h) — must agree exactly on what a "row" is:
// which snapshot rows yield a MAC, how a sighting is attributed, which
// corpus files a day window excludes, how a feed record packs into the
// spill-record shape. This header is that single definition, so the
// differential test exercises join *machinery* and nothing else.
//
// The corpus side extracts one KeyedRecord per deduplicated EUI-64
// <target, response> pair: key = the MAC embedded in the response IID,
// c0 = the probed /64 network, c1 = the BGP-attributed origin AS (0 when
// unattributed or no table given), c2 = the file's day index. The geo side
// packs a sim::GeoRecord as key = MAC, c0 = pack_latlon, c1 = collector
// AS, c2 = last-heard day.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "analysis/dossier.h"
#include "corpus/keyed_run.h"
#include "routing/bgp_table.h"
#include "sim/geo_feed.h"
#include "sim/rng.h"

namespace scent::join {

/// One rotation-corpus input: a snapshot file and its day index.
struct CorpusDayFile {
  std::string path;
  std::int64_t day = 0;
};

/// An optional [first, last] day window over corpus files.
struct DayWindow {
  std::optional<std::int64_t> first_day;
  std::optional<std::int64_t> last_day;

  [[nodiscard]] bool contains(std::int64_t day) const noexcept {
    return (!first_day || day >= *first_day) &&
           (!last_day || day <= *last_day);
  }
};

enum class ScanResult {
  kScanned,  ///< Rows were streamed to the callback.
  kPruned,   ///< File excluded by the day window — nothing read or decoded.
  kError,    ///< Open/decode failure.
};

/// Streams one corpus file's join rows. Pruning is two-tier: the declared
/// day is checked against the window before the file is even opened, and
/// an opened file is still dropped if its time-section block stats (the
/// §5j min/max contract) place every row outside the window. `cache` is
/// the caller's per-thread attribution memo. `fn` returns false to stop
/// the scan there; the file still counts as scanned.
[[nodiscard]] ScanResult scan_corpus_file(
    const CorpusDayFile& file, const DayWindow& window,
    const routing::BgpTable* bgp, routing::AttributionCache& cache,
    const std::function<bool(const corpus::KeyedRecord&)>& fn);

/// The geo feed record in spill-record shape.
[[nodiscard]] inline corpus::KeyedRecord geo_to_record(
    const sim::GeoRecord& r) noexcept {
  return corpus::KeyedRecord{
      .key = r.mac.bits(),
      .c0 = analysis::pack_latlon(r.lat_udeg, r.lon_udeg),
      .c1 = r.asn,
      .c2 = static_cast<std::uint64_t>(r.last_day)};
}

/// Radix partition of a MAC key: the top `partition_bits` bits of the
/// mixed key. Mixing first buys balance (raw OUI prefixes are heavily
/// clustered); taking top bits of a full-avalanche mix keeps the P
/// partitions disjoint and exhaustive for any power-of-two P.
[[nodiscard]] inline std::uint32_t partition_of(
    std::uint64_t key, unsigned partition_bits) noexcept {
  if (partition_bits == 0) return 0;
  return static_cast<std::uint32_t>(sim::mix64(key) >> (64 - partition_bits));
}

}  // namespace scent::join
