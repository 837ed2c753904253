// parallel.h - shared shard-runner primitives for the engine's executors.
//
// Every parallel pass in the tree — the probe-side sweep executor, the
// analysis-side fused aggregation scan, snapshot block encode/decode and the
// join — follows the same shape: pick a worker count, carve the work into
// contiguous shards, run one worker per shard with shard-local state, then
// merge in shard order. This header owns the first three steps so the
// passes cannot drift:
//
//   * resolve_threads() is the one thread policy: 0 means hardware
//     concurrency, N means exactly N shards. A request above the core count
//     is honoured (the shards time-slice the cores); it can only change
//     wall time, because every pass's output is identical at any shard
//     count.
//
//   * shard_rows() is the contiguous slice rule shared with SweepPlan's
//     probe-offset partition: shard s of N owns [total*s/N, total*(s+1)/N),
//     monotone in s and exhaustive, so shard order equals row order equals
//     serial order — the precondition for deterministic shard-order merges.
//
//   * run_shards() executes one body per shard: inline on the calling
//     thread when there is a single shard (the serial reference path the
//     parallel runs must reproduce bit for bit, with no thread spawn or
//     join overhead), otherwise one std::thread per shard with per-shard
//     exception capture and the lowest-index shard's exception rethrown
//     after all workers have joined.
#pragma once

#include <cstddef>
#include <functional>

namespace scent::engine {

/// Worker count for a request: `requested`, or hardware concurrency when it
/// is 0 (which can itself report 0 on exotic platforms — treated as 1).
[[nodiscard]] unsigned resolve_threads(unsigned requested) noexcept;

/// Contiguous row range [begin, end) owned by one shard.
struct RowRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The slice rule: shard s of `shards` owns [total*s/N, total*(s+1)/N).
[[nodiscard]] RowRange shard_rows(std::size_t total, unsigned shards,
                                  unsigned s) noexcept;

/// Runs body(s) for every shard s in [0, shards). See the file comment.
void run_shards(unsigned shards, const std::function<void(unsigned)>& body);

}  // namespace scent::engine
