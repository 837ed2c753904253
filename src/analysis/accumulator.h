// accumulator.h - the fused scan's shard-local accumulation, public so
// maintained state (serve::ServeTable) can hold and merge the same
// aggregates a one-shot scan builds.
//
// An Accumulator is one shard of the fused analysis pass: feed it
// contiguous row blocks in row order (accumulate), fold later shards into
// earlier ones in shard order (merge_from), and unwrap the result into
// the public AggregateTable (finish). analyze() drives a set of them over
// engine::shard_rows slices behind a barrier; ServeTable keeps one as its
// maintained base and merge_from's each day's delta into it.
//
// Rotation window snapshots are not accumulator state: scan_fused builds
// each requested window in its own task over the window's rows
// (core::Snapshot::record_rows), so neither accumulate nor merge_from
// touches them.
//
// Determinism: every aggregate field is a pure function of the row set
// plus first-occurrence order, and rows are partitioned into contiguous
// ordered shards, so the merged table is bit-identical no matter how
// many shards produced it (§5g).
// Attribution is a pure lookup, so it does not matter whether a shard
// reads a pre-primed shared cache or populates a private lazy one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/aggregate.h"
#include "container/flat_hash.h"
#include "netbase/ipv6_address.h"
#include "netbase/mac_address.h"
#include "routing/bgp_table.h"
#include "sim/sim_time.h"
#include "telemetry/metrics.h"

namespace scent::analysis {

struct AnalysisOptions;

/// Scan-time device record. The first-attributed span sits inline next to
/// the DeviceAggregate instead of behind DeviceAggregate::per_as's heap
/// vector: almost every device keeps one origin AS for a whole campaign,
/// so the hot loop updates span fields in the cache lines the device
/// upsert just pulled in rather than chasing a second random allocation
/// per attributed row. Devices that really do appear under several ASes
/// (the §5.5 pathologies) spill into `overflow`, which together with
/// `first_span` preserves first-attribution order; finish() folds both
/// back into the public per_as vector.
struct ScanDevice {
  DeviceAggregate dev;
  PerAsSpan first_span;  ///< .ad == nullptr means "not attributed yet".
  std::vector<PerAsSpan> overflow;  ///< Later ASes, first-attribution order.
};

using ScanDeviceMap =
    container::FlatMap<net::MacAddress, ScanDevice, net::MacAddressHash>;

class Accumulator {
 public:
  Accumulator() = default;

  /// `options` and `bgp` must outlive the accumulator. `bgp` may be null
  /// (no attribution). With a non-null `shared_cache` the shard reads it
  /// without synchronization (the parallel barrier path primes it up
  /// front); with null, the shard populates a private lazy cache as it
  /// goes — same attributions either way, attribution being pure.
  Accumulator(const AnalysisOptions* options, const routing::BgpTable* bgp,
              const routing::AttributionCache* shared_cache);

  /// Accumulates one contiguous row block. Blocks must arrive in row
  /// order.
  void accumulate(std::span<const net::Ipv6Address> targets,
                  std::span<const net::Ipv6Address> responses,
                  std::span<const sim::TimePoint> times);

  /// Folds `later` — an accumulator that scanned rows strictly after this
  /// one's — into this one. Call in shard order.
  void merge_from(Accumulator&& later);

  /// Unwraps into the public table: devices in MAC first-sighting order,
  /// per_as in first-attribution order, AS rollups built when the scan
  /// attributed. The accumulator is spent afterwards.
  [[nodiscard]] AggregateTable finish() &&;

  /// Copy-unwraps into the public table — field-for-field what finish()
  /// would return — while leaving the accumulator intact, so further rows
  /// (the serve layer's next-day delta) can still be merged in. This is
  /// how ServeTable publishes an immutable TableVersion per delta without
  /// spending its maintained state.
  [[nodiscard]] AggregateTable materialize() const;

  /// Drops the shared-cache binding (which points into the driving scan's
  /// stack frame). A detached accumulator remains fully usable — further
  /// accumulate calls fall back to the private lazy cache, and merge /
  /// materialize / finish never consult a cache at all.
  void detach_shared_cache() noexcept { shared_cache_ = nullptr; }

  [[nodiscard]] std::uint64_t rows_scanned() const noexcept {
    return table_.rows_scanned;
  }

 private:
  const AnalysisOptions* options_ = nullptr;
  const routing::BgpTable* bgp_ = nullptr;
  const routing::AttributionCache* shared_cache_ = nullptr;
  routing::AttributionCache lazy_cache_;  ///< Used when shared_cache_ null.
  AggregateTable table_;  ///< Row counters during the scan.
  ScanDeviceMap devices_;
};

/// The analysis.* counters/gauges analyze() has always recorded, shared
/// with the streaming driver so both paths surface the same telemetry.
void note_table_metrics(const AggregateTable& table,
                        telemetry::Registry* registry);

}  // namespace scent::analysis
