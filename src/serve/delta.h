// delta.h - one day's observations in mergeable form (§5k's delta layer).
//
// An AggregateDelta is a day of new rows accumulated but not yet folded
// into a ServeTable: device upserts (span widening, DaySet OR, per-AS
// span folds) sit in an analysis::Accumulator — the exact shard state the
// fused engine merges — plus the day's <target, EUI-64 response> pair map
// (the rotation window the published version advances to). Because the
// delta IS a fused-scan accumulator, applying it is the engine's own
// shard-order merge_from: no new merge semantics, and therefore no way
// for the incrementally-maintained table to drift from a fresh rebuild.
//
// Deltas come from ServeTable::scan_delta, a sharded fused scan over a
// StoreInput or a ChainInput; either input yields a field-identical delta
// over the same rows.
#pragma once

#include <cstdint>

#include "analysis/accumulator.h"
#include "core/rotation_detector.h"

namespace scent::serve {

/// A day's observations, scanned and accumulated but not yet applied.
/// Produced by ServeTable::scan_delta; consumed (moved from) by
/// ServeTable::apply.
struct AggregateDelta {
  analysis::Accumulator acc;  ///< The day's rows in fused-scan shard form.
  core::Snapshot window;      ///< The day's <target, EUI response> pairs.
  std::uint64_t rows = 0;     ///< Rows the delta scanned (incl. non-EUI).
  std::size_t failed_files = 0;  ///< Chain files that failed to read.
  unsigned threads_used = 1;
  std::int64_t day = 0;  ///< Day stamp for the published version.
};

}  // namespace scent::serve
