// engine.h - the fused single-pass, sharded analysis engine.
//
// analyze() replaces the N-independent-scans model: where the campaign
// used to walk the corpus once per analysis (global allocation spans,
// per-AS allocation spans, pool spans, homogeneity, pathology, rotation
// snapshots, sighting histories — each re-deriving EUI classification and
// BGP attribution per row), one fused scan now accumulates everything
// into the per-MAC AggregateTable, and each report derives from the table
// (derive.h) in time proportional to devices, not rows.
//
// Execution model (the sweep executor's contract, applied to rows):
//
//   1. A shared read-only AttributionCache is primed serially up front —
//      one BGP trie walk per distinct response /64 — then consulted by
//      every shard through the const BgpTable::attribute overload; no
//      shard ever mutates shared state.
//   2. engine::shard_rows carves [0, rows) into contiguous slices, one
//      per engine::resolve_threads worker; each shard accumulates into
//      shard-local FlatMaps (its own response-classification memo and
//      device table). Each requested row window is one more task, claimed
//      ahead of the shards from the same workers: it records the window's
//      rows into a presized rotation Snapshot on its own.
//   3. Shards merge in shard order. Because shard slices are contiguous
//      and every aggregate field is a pure function of the row set plus
//      first-occurrence order, the merged table — device iteration
//      order, per-AS sub-aggregate order, sighting lists — is
//      bit-identical to a serial pass at any thread count, and each
//      window snapshot is a serial record of its rows (DESIGN.md §5g).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/accumulator.h"
#include "analysis/aggregate.h"
#include "analysis/input.h"
#include "core/observation.h"
#include "netbase/mac_address.h"
#include "routing/bgp_table.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::analysis {

/// A contiguous global row range [begin, end) for which the pass should
/// additionally materialize a rotation Snapshot (the two-sweep detector's
/// input) — e.g. the rows one sweep appended.
struct RowWindow {
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct AnalysisOptions {
  /// Worker shards; 0 = hardware concurrency (same policy as the sweep
  /// executor).
  unsigned threads = 1;

  /// Read the target column and accumulate target /64 spans (Algorithm 1
  /// needs them; the sighting-follow path switches them off to keep the
  /// chain read at 24 of 42 bytes per row). Window tasks read their own
  /// targets either way.
  bool collect_targets = true;

  /// Accumulate per-device consecutive-deduplicated <day, network>
  /// sighting lists (Tracker::seed_history input).
  bool collect_sightings = true;

  /// Attribute responses per AS (per-AS spans, day sets, rollups). Off —
  /// or analyzing with a null table — leaves per_as/as_rollups empty.
  bool attribute = true;

  /// Restrict aggregation to one device (the single-MAC follow path);
  /// other devices' rows still count into rows_scanned/eui_rows and any
  /// window snapshots.
  std::optional<net::MacAddress> only_mac;

  /// Row windows to materialize rotation Snapshots for, each built by its
  /// own task over the window's rows (clamped to the input).
  std::vector<RowWindow> windows;

  /// If set, each scan shard records its pass into a shard-local flight
  /// recorder, drained as "analysis shard s" lanes at the phase-3 merge
  /// (shard order). With a registry, per-shard scan wall time also lands
  /// in the "analysis.scan/analysis.scan_shard" span path.
  telemetry::TraceCollector* trace = nullptr;
};

/// A fused pass left in accumulator form: the merged (shard-order) result
/// of phases 1-3 before the finish() unwrap. analyze() is exactly
/// scan_fused(...) + finish(); the serve layer instead keeps the
/// accumulator alive — a full-corpus scan IS "build version 0" of the
/// same code path each day's delta-apply then extends (DESIGN.md §5k).
struct FusedScan {
  Accumulator accumulator;
  std::vector<core::Snapshot> windows;  ///< One per options.windows entry.
  unsigned threads_used = 1;
  std::size_t failed_files = 0;
};

/// Phases 1-3 of the fused pass (prime, sharded scan, shard-order merge),
/// without the unwrap. The returned accumulator is detached from the
/// scan's shared attribution cache and safe to keep, merge from, and
/// materialize long after this call returns.
[[nodiscard]] FusedScan scan_fused(const AnalysisInput& input,
                                   const routing::BgpTable* bgp,
                                   const AnalysisOptions& options = {},
                                   telemetry::Registry* registry = nullptr);

/// One fused pass over `input`. `bgp` may be null when options.attribute
/// is false. With a registry, runs under an "analysis.scan" span and
/// records analysis.* counters/gauges.
[[nodiscard]] AggregateTable analyze(const AnalysisInput& input,
                                     const routing::BgpTable* bgp,
                                     const AnalysisOptions& options = {},
                                     telemetry::Registry* registry = nullptr);

/// Convenience: analyze a whole in-memory store.
[[nodiscard]] AggregateTable analyze(const core::ObservationStore& store,
                                     const routing::BgpTable* bgp,
                                     const AnalysisOptions& options = {},
                                     telemetry::Registry* registry = nullptr);

}  // namespace scent::analysis
