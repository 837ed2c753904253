// serve_table.h - the versioned, incrementally-maintained AggregateTable
// (DESIGN.md §5k).
//
// A ServeTable turns the fused engine's rebuild-only AggregateTable into
// maintainable state with lock-free concurrent reads:
//
//   Delta layer.  Each day's observations become an AggregateDelta —
//   scan_delta over a StoreInput/ChainInput — and apply() merges it
//   into the maintained accumulator via the engine's own shard-order
//   merge_from. Applying day N never rescans days [0, N);
//   a full-corpus scan_delta on an empty table IS "build version 0" of
//   the same code path (analyze() == scan_fused + finish of the same
//   accumulator), so the incrementally-maintained table is field-for-
//   field identical to a fresh fused rebuild after every apply.
//
//   Versioning layer.  apply() publishes an immutable TableVersion (a
//   materialize() copy of the maintained state plus the day's rotation
//   window and the previous day's) through a fixed ring of epoch-stamped
//   slots. current() is lock-free for readers: pin a slot's reader
//   count, confirm its epoch stamp, copy the shared_ptr, unpin. Query
//   threads run derive.h reports against a pinned version while the
//   writer builds the next delta; a version truly retires when the last
//   reader's shared_ptr drops. The single writer recycles a slot only
//   after its stamp is cleared and its pin count drains to zero.
//
// Threading contract: exactly one writer thread calls scan_delta / apply;
// any number of reader threads call current() and the const accessors
// concurrently.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "analysis/engine.h"
#include "serve/delta.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::serve {

struct ServeOptions {
  /// Worker shards for scan_delta (0 = hardware concurrency, same policy
  /// as the analysis engine).
  unsigned threads = 1;

  /// Forwarded to the underlying AnalysisOptions. Off skips the per-device
  /// sighting lists, which every publish otherwise copies in full.
  bool collect_sightings = true;

  /// Attribution table; may be null (per-AS aggregates then stay empty).
  /// Must outlive the ServeTable.
  const routing::BgpTable* bgp = nullptr;

  /// Optional serve.* counters, gauges and spans destination.
  telemetry::Registry* registry = nullptr;

  /// Optional flight-recorder sink: each apply() is recorded as a
  /// "serve.delta_apply" span and drained into the "serve" lane.
  telemetry::TraceCollector* trace = nullptr;
};

/// One immutable published state. Readers hold it by shared_ptr — it
/// stays valid (and unchanging) for as long as any reader keeps it, no
/// matter how many versions the writer publishes meanwhile.
struct TableVersion {
  std::uint64_t version = 0;   ///< 1-based publish sequence number.
  std::int64_t day = 0;        ///< Day stamp of the delta that built this.
  std::uint64_t delta_rows = 0;  ///< Rows the building delta contributed.

  /// The maintained aggregate, field-for-field what a fresh fused rebuild
  /// over all applied rows would produce.
  analysis::AggregateTable table;

  /// The building day's <target, EUI-64 response> rotation window, and
  /// the previous published day's — the two inputs the §4.3 detector
  /// diffs.
  core::Snapshot day_window;
  core::Snapshot prev_window;

  /// derive.h report functions take const AggregateTable&; a TableVersion
  /// converts implicitly so readers pass a pinned version straight in.
  operator const analysis::AggregateTable&() const noexcept {  // NOLINT
    return table;
  }
};

class ServeTable {
 public:
  explicit ServeTable(const ServeOptions& options);

  ServeTable(const ServeTable&) = delete;
  ServeTable& operator=(const ServeTable&) = delete;

  // --- Writer API (single thread) -----------------------------------

  /// Scans `input` (all of it — a delta input holds exactly one day's
  /// rows) through the fused engine and returns it in mergeable form,
  /// including the day's rotation window.
  [[nodiscard]] AggregateDelta scan_delta(const analysis::AnalysisInput& input,
                                          std::int64_t day);

  /// Merges the delta into the maintained accumulator (adopting it
  /// outright on the first apply) and publishes the next TableVersion.
  void apply(AggregateDelta&& delta);

  /// Convenience: scan_delta + apply.
  void apply(const analysis::AnalysisInput& input, std::int64_t day) {
    apply(scan_delta(input, day));
  }

  // --- Reader API (any thread) --------------------------------------

  /// The latest published version, or nullptr before the first apply().
  /// Lock-free: never blocks on the writer; retries only if the writer
  /// lapped the whole slot ring between the epoch read and the pin.
  [[nodiscard]] std::shared_ptr<const TableVersion> current() const;

  /// Number of versions published so far (0 before the first apply).
  [[nodiscard]] std::uint64_t versions_published() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Total successful current() acquisitions across all readers.
  [[nodiscard]] std::uint64_t reads() const noexcept {
    return acquires_.load(std::memory_order_relaxed);
  }

 private:
  /// Publication slots: the writer stamps a version into
  /// slots_[epoch % kVersionSlots]. Eight slots means a reader may be
  /// preempted across seven whole publishes between reading the epoch
  /// and pinning the slot and still succeed.
  static constexpr std::size_t kVersionSlots = 8;

  struct Slot {
    /// Epoch stamp; 0 = empty or being recycled by the writer.
    std::atomic<std::uint64_t> seq{0};
    /// Readers currently pinned on this slot (pin -> check seq -> copy
    /// -> unpin). The writer drains this to zero before touching
    /// `version`.
    std::atomic<std::uint32_t> readers{0};
    /// Guarded by the seq/readers rail, not by its own atomicity.
    std::shared_ptr<const TableVersion> version;
  };

  void publish(std::shared_ptr<const TableVersion> version);
  void note_apply_metrics(const TableVersion& published);

  ServeOptions options_;
  /// Stable-address scan options (accumulators keep a pointer to them);
  /// scan_delta sets the per-call full-input window.
  analysis::AnalysisOptions delta_options_;

  analysis::Accumulator base_;  ///< The maintained state, never spent.
  bool has_base_ = false;
  std::size_t failed_files_ = 0;  ///< Cumulative across applied deltas.

  /// Writer-side handle to the newest version (for prev_window chaining)
  /// — readers never touch this.
  std::shared_ptr<const TableVersion> last_published_;

  std::unique_ptr<telemetry::TraceRecorder> recorder_;

  mutable std::array<Slot, kVersionSlots> slots_;
  std::atomic<std::uint64_t> epoch_{0};
  mutable std::atomic<std::uint64_t> acquires_{0};
  std::uint64_t acquires_at_last_publish_ = 0;
  std::uint64_t reclaim_waits_ = 0;
  std::uint64_t versions_retired_ = 0;
  /// High-water marks already mirrored into registry counters.
  std::uint64_t counted_reclaim_waits_ = 0;
  std::uint64_t counted_retired_ = 0;
};

}  // namespace scent::serve
