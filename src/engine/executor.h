// executor.h - the sharded sweep executor: N threads, serial results.
//
// run_sharded_sweep partitions a list of SweepUnits across worker threads
// (SweepPlan), runs each shard with shard-local mutable state — its own
// Prober, virtual-clock cursor, sim::NetContext, and telemetry registry —
// and streams every unit's responsive results into a caller-provided
// per-shard UnitSink. Workers never touch shared mutable state:
//
//   * world reads go through the const Internet probe/deliver overloads;
//   * response-policy state (rate-limit buckets) lives in the shard's
//     NetContext and is reset at every unit boundary, making each unit a
//     pure function of (world, unit, start time, prober options);
//   * each unit replays at its precomputed serial start time, so the
//     timestamps — and every (target, t)-keyed draw — match a serial run.
//
// After the join the executor folds shard state back in deterministic
// shard order: prober counters into the report, NetContext stats into the
// Internet's global ledger, shard registries into options.registry,
// and advances the caller's clock to the schedule end. Since shards own
// contiguous unit ranges, "shard order" equals unit order equals serial
// order — a caller that concatenates its shard sinks' output in shard
// order holds a corpus bit-identical to the single-threaded run. Shard 0's
// output comes first, so its sink may write straight into that corpus while
// the others run and stage theirs (as core::sweep_into_store does).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "engine/sweep.h"
#include "probe/prober.h"
#include "sim/internet.h"
#include "sim/sim_time.h"

namespace scent::engine {

/// Per-shard receiver for a sweep's results. Called only from the
/// shard's worker thread, units in ascending order, so implementations
/// need no locking of their own state. Batch spans alias the shard
/// prober's buffer and are valid only during the call.
class UnitSink {
 public:
  virtual ~UnitSink() = default;

  /// Unit `unit_index` is about to be probed.
  virtual void on_unit_begin(std::size_t unit_index) { (void)unit_index; }

  /// A batch of responsive results from unit `unit_index`.
  virtual void on_results(std::size_t unit_index,
                          std::span<const probe::ProbeResult> batch) = 0;

  /// Unit `unit_index` finished (all its results have been delivered).
  virtual void on_unit_end(std::size_t unit_index) { (void)unit_index; }
};

/// What one unit did on the wire.
struct UnitOutcome {
  std::uint64_t sent = 0;
  std::uint64_t responded = 0;
  unsigned shard = 0;
  sim::TimePoint start = 0;
};

struct SweepReport {
  std::vector<UnitOutcome> units;   ///< Indexed like the input unit list.
  probe::Prober::Counters counters; ///< Aggregate over all shards.
  sim::Internet::Stats net_stats;   ///< Aggregate over all shards.
  unsigned threads_used = 1;
  sim::TimePoint start = 0;
  sim::TimePoint end = 0;
};

/// Runs `units` across resolve_threads(options.threads) shards (0 =
/// hardware concurrency; any other request is honoured exactly). The
/// factory is called once per shard (shard indices ascending, before any
/// worker starts) and must return a sink that outlives the call; it may
/// return the same sink for every shard only if that sink is internally
/// synchronized. A single shard executes inline on the calling thread.
///
/// On return the caller's clock stands at the schedule end and the
/// Internet's stats() include all shard traffic. Worker exceptions are
/// rethrown (first shard wins) after all workers have joined.
SweepReport run_sharded_sweep(
    sim::Internet& internet, sim::VirtualClock& clock,
    std::span<const SweepUnit> units,
    const probe::ProberOptions& prober_options, const SweepOptions& options,
    const std::function<UnitSink*(unsigned shard)>& sink_for_shard);

}  // namespace scent::engine
