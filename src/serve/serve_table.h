// serve_table.h - the versioned, incrementally-maintained AggregateTable
// (DESIGN.md §5k).
//
// A ServeTable turns the fused engine's rebuild-only AggregateTable into
// maintained state that readers query while the writer appends days:
//
//   Delta layer.  apply() scans one day's input (a StoreInput range or a
//   ChainInput) through the fused engine and merges the resulting shard
//   accumulator into the maintained one via the engine's own shard-order
//   merge_from. Applying day N never rescans days [0, N); a full-corpus
//   apply on an empty table IS "build version 0" of the same code path
//   (analyze() == scan_fused + finish of the same accumulator), so the
//   incrementally-maintained table is field-for-field identical to a
//   fresh fused rebuild after every apply.
//
//   Versioning layer.  apply() builds an immutable TableVersion (a
//   materialize() copy of the maintained state) outside the lock, then
//   swaps it in as the one current version under a mutex; current()
//   copies the pointer under the same mutex. Query threads run derive.h
//   reports against the version they hold while the writer builds the
//   next; a version is freed when its last holder drops it, so only the
//   newest version plus the ones readers still hold stay alive.
//
// A version publishes aggregates only. The §4.3 rotation windows are not
// serve state: a caller that wants two days' <target, response> maps
// records them from its own rows (core::Snapshot::record_rows), as
// examples/serve_tracker.cpp does.
//
// Threading contract: exactly one writer thread calls apply(); any number
// of reader threads call current() and the const accessors concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "analysis/engine.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::serve {

struct ServeOptions {
  /// Worker shards for each apply()'s scan (0 = hardware concurrency, same
  /// policy as the analysis engine).
  unsigned threads = 1;

  /// Forwarded to the underlying AnalysisOptions. Off skips the per-device
  /// sighting lists, which every publish otherwise copies in full.
  bool collect_sightings = true;

  /// Attribution table; may be null (per-AS aggregates then stay empty).
  /// Must outlive the ServeTable.
  const routing::BgpTable* bgp = nullptr;

  /// Optional serve.* counters, gauges and spans destination. When a
  /// trace collector hangs off it, each apply()'s merge and publish is also
  /// recorded as a "serve.delta_apply" span drained into the "serve" lane,
  /// and each apply()'s scan adds "analysis shard s" lanes.
  telemetry::Registry* registry = nullptr;
};

/// One immutable published state. Readers hold it by shared_ptr — it
/// stays valid (and unchanging) for as long as any reader keeps it, no
/// matter how many versions the writer publishes meanwhile.
struct TableVersion {
  std::uint64_t version = 0;   ///< 1-based publish sequence number.
  std::int64_t day = 0;        ///< Day stamp of the apply that built this.
  std::uint64_t delta_rows = 0;  ///< Rows that apply contributed.

  /// The maintained aggregate, field-for-field what a fresh fused rebuild
  /// over all applied rows would produce.
  analysis::AggregateTable table;

  /// derive.h report functions take const AggregateTable&; a TableVersion
  /// converts implicitly so readers pass a held version straight in.
  operator const analysis::AggregateTable&() const noexcept {  // NOLINT
    return table;
  }
};

class ServeTable {
 public:
  explicit ServeTable(const ServeOptions& options);

  ServeTable(const ServeTable&) = delete;
  ServeTable& operator=(const ServeTable&) = delete;

  /// Writer (single thread). Scans `input` — all of it: it holds exactly
  /// one day's rows, or the whole corpus for a bootstrap — merges it into
  /// the maintained accumulator (adopting it outright on the first apply)
  /// and publishes the next TableVersion.
  void apply(const analysis::AnalysisInput& input, std::int64_t day);

  /// The latest published version, or nullptr before the first apply().
  [[nodiscard]] std::shared_ptr<const TableVersion> current() const;

  /// Number of versions published so far (0 before the first apply).
  [[nodiscard]] std::uint64_t versions_published() const;

  /// Total successful current() acquisitions across all readers.
  [[nodiscard]] std::uint64_t reads() const;

 private:
  void note_apply_metrics(const TableVersion& published,
                          std::uint64_t reads_now);

  ServeOptions options_;
  /// Stable-address scan options (accumulators keep a pointer to them).
  analysis::AnalysisOptions scan_options_;

  analysis::Accumulator base_;  ///< The maintained state, never spent.
  std::size_t failed_files_ = 0;  ///< Cumulative across applies.

  /// Flight recorder for the "serve" lane, created on the first apply()
  /// that finds a trace collector on the registry.
  std::unique_ptr<telemetry::TraceRecorder> recorder_;

  /// Guards current_ against readers and reads_. apply() is the only
  /// thread that assigns current_, so it reads current_ without the lock.
  mutable std::mutex mutex_;
  std::shared_ptr<const TableVersion> current_;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t reads_at_last_publish_ = 0;  ///< Writer-only.
};

}  // namespace scent::serve
