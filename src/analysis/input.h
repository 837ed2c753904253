// input.h - row sources for the fused analysis pass.
//
// The engine consumes rows as contiguous <target, response, time> column
// blocks through one interface, so the same fused scan runs over an
// in-memory ObservationStore or a persisted snapshot chain without either
// path knowing which. The contract mirrors the corpus layer's lazy-column
// design: a scan names the columns it needs (targets are skippable — the
// sighting-follow path reads 24 of the 42 bytes per row, matching
// sightings_from_snapshots), and chain files that fail to open or verify
// contribute no rows and are counted into failed_files(), so a gappy
// on-disk campaign still analyzes — exactly the legacy skip semantics.
//
// scan() must be safe to call concurrently for disjoint row ranges: the
// engine hands each shard its own contiguous slice. StoreInput serves
// subspans of the live columns; ChainInput gives every scan call its own
// SnapshotReader, so shards share no reader state.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/observation.h"
#include "netbase/ipv6_address.h"
#include "routing/bgp_table.h"
#include "sim/sim_time.h"

namespace scent::analysis {

/// A source of observation rows for one fused pass.
class AnalysisInput {
 public:
  virtual ~AnalysisInput() = default;

  /// Called with ascending contiguous blocks; `first_row` is the global
  /// index of the block's first row. `targets` is empty when the scan was
  /// asked not to materialize the target column.
  using BlockFn = std::function<void(
      std::size_t first_row, std::span<const net::Ipv6Address> targets,
      std::span<const net::Ipv6Address> responses,
      std::span<const sim::TimePoint> times)>;

  /// Total rows (chain files that failed to open contribute none).
  [[nodiscard]] virtual std::size_t rows() const noexcept = 0;

  /// Visits rows [begin, end). Thread-safe for disjoint ranges.
  virtual void scan(std::size_t begin, std::size_t end, bool want_targets,
                    const BlockFn& fn) const = 0;

  /// Serially memoizes BGP attribution for every distinct response /64 in
  /// the input — the shared read-only AttributionCache the shards consult.
  /// The default walks all responses through the mutating attribute();
  /// inputs with a cheaper distinct-response index override it.
  virtual void prime_attribution(const routing::BgpTable& bgp,
                                 routing::AttributionCache& cache) const;

  /// Chain inputs: snapshots skipped because they failed to open or
  /// verify. Stable only after every scan() has returned.
  [[nodiscard]] virtual std::size_t failed_files() const noexcept {
    return 0;
  }
};

/// Rows [first, last) of an in-memory columnar store (defaults to all).
class StoreInput final : public AnalysisInput {
 public:
  explicit StoreInput(const core::ObservationStore& store)
      : StoreInput(store, 0, store.size()) {}
  StoreInput(const core::ObservationStore& store, std::size_t first,
             std::size_t last) noexcept
      : store_(&store), first_(first), last_(last) {}

  [[nodiscard]] std::size_t rows() const noexcept override {
    return last_ - first_;
  }

  void scan(std::size_t begin, std::size_t end, bool want_targets,
            const BlockFn& fn) const override;

  /// Primes from the store's distinct-response set — one walk over
  /// distinct response addresses instead of every row.
  void prime_attribution(const routing::BgpTable& bgp,
                         routing::AttributionCache& cache) const override;

 private:
  const core::ObservationStore* store_;
  std::size_t first_;
  std::size_t last_;
};

/// A persisted snapshot chain, in path order. Files that fail to open at
/// construction are excluded (and counted); files whose column sections
/// fail to verify during a scan contribute no rows to any shard — the
/// failure is deterministic, so every thread count sees the same rows.
class ChainInput final : public AnalysisInput {
 public:
  explicit ChainInput(std::vector<std::string> paths);

  [[nodiscard]] std::size_t rows() const noexcept override { return rows_; }

  void scan(std::size_t begin, std::size_t end, bool want_targets,
            const BlockFn& fn) const override;

  [[nodiscard]] std::size_t failed_files() const noexcept override;

  /// Snapshot blocks decoded / skipped by row-window predicates across all
  /// scan() calls so far (v2 files only; v1 files have no blocks). Stable
  /// once every scan has returned.
  [[nodiscard]] std::uint64_t blocks_read() const noexcept {
    return blocks_read_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t blocks_skipped() const noexcept {
    return blocks_skipped_.load(std::memory_order_relaxed);
  }

 private:
  struct File {
    std::string path;
    std::size_t first_row = 0;  ///< Global index of the file's first row.
    std::size_t rows = 0;
  };

  std::vector<File> files_;
  std::size_t rows_ = 0;
  std::size_t failed_open_ = 0;
  /// Set (racily but monotonically) by whichever scan first sees a file's
  /// window read fail; see the failure-granularity note in scan().
  std::unique_ptr<std::atomic<bool>[]> read_failed_;
  mutable std::atomic<std::uint64_t> blocks_read_{0};
  mutable std::atomic<std::uint64_t> blocks_skipped_{0};
};

}  // namespace scent::analysis
