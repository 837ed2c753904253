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
//
//   * run_tasks() is the dynamic form for uneven work: workers claim task
//     indices in ascending order from one shared atomic counter, so a
//     worker that drew a cheap task moves on instead of idling behind a
//     fixed split. It fits passes whose output is a pure function of each
//     task (snapshot block encode, the fused scan's shards and window
//     builds), where which worker ran which task cannot show. The calling
//     thread is worker 0 and always runs task 0, so a large structure
//     that task builds and the caller frees later (the writer's pair map,
//     serve's window snapshot) comes from the caller's malloc arena. In a
//     short-lived worker's arena, its free lets that arena shrink, and the
//     next sweep's shard buffers fault the pages back in (≈1,100 page
//     faults per daybench campaign day).
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

/// Runs body(worker, task) for every task in [0, tasks) on `workers`
/// workers (capped at `tasks`; inline at one) that claim tasks in
/// ascending index order; worker 0 is the calling thread and runs task 0.
/// `worker` indexes per-worker scratch. A task may block on one with a
/// lower index: that task was claimed first, so it is running or done.
void run_tasks(unsigned workers, std::size_t tasks,
               const std::function<void(unsigned, std::size_t)>& body);

}  // namespace scent::engine
