// sweep.h - the engine's unit of parallel work and its deterministic plan.
//
// A campaign-scale sweep is a sequence of *sweep units*: one zmap-permuted
// pass over the /`sub_length` subnets of a prefix, exactly what
// Prober::sweep_subnets executes. Because a unit's probe count is known a
// priori (SubnetTargets::size()) and the prober paces the virtual clock at
// a fixed packets_per_second, the serial schedule is fully determined
// before any packet is sent: unit k starts at
//
//   T0 + (probes issued by units 0..k-1) * inter-probe gap.
//
// SweepPlan precomputes that schedule and a contiguous, probe-count-
// balanced partition of the unit list across N shards. A shard replays its
// units at their precomputed serial start times against const world state
// (plus a fresh per-unit response context), so each unit's results are a
// pure function of (world, unit, start time, prober options) — identical
// at any thread count. That, plus merging shards in shard order (contiguous
// shards in unit order == serial order), is the engine's determinism
// contract: the parallel corpus is bit-identical to the serial one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netbase/prefix.h"
#include "probe/prober.h"
#include "probe/target_generator.h"
#include "sim/sim_time.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::engine {

/// One unit of sweep work: probe one address per /`sub_length` of `prefix`
/// in the zmap permutation order derived from `seed`.
struct SweepUnit {
  net::Prefix prefix;
  unsigned sub_length = 64;
  std::uint64_t seed = 0;
};

struct SweepOptions {
  /// Worker shard count; 0 means hardware concurrency. 1 executes inline
  /// on the calling thread (the serial reference the parallel runs must
  /// reproduce bit for bit).
  unsigned threads = 1;

  /// Base seed for per-shard derived streams (mix64(seed, shard_index)) —
  /// shard-local salt for anything a sink wants randomized per shard.
  std::uint64_t seed = 0;

  /// If set, every shard prober mirrors into a shard-local registry and
  /// the executor folds those counters in here after the join, along with
  /// each shard's "sweep.unit" span slot (a child of whatever span the
  /// caller has open on this registry).
  telemetry::Registry* merge_registry = nullptr;

  /// If set, every shard records per-unit begin/end/counter events into a
  /// shard-local flight-recorder ring (capacity from the collector) and
  /// the executor drains them here — "sweep shard s" lanes, in shard
  /// order — at the same post-join merge point as the counters. Repeated
  /// sweeps (a campaign's days) append to the same lanes.
  telemetry::TraceCollector* trace = nullptr;
};

/// The precomputed deterministic schedule + shard partition for one batch
/// of sweep units (see the file comment for the contract).
class SweepPlan {
 public:
  SweepPlan(std::span<const SweepUnit> units,
            const probe::ProberOptions& prober_options, sim::TimePoint start,
            unsigned shard_count);

  [[nodiscard]] std::size_t unit_count() const noexcept {
    return cumulative_.size() - 1;
  }
  [[nodiscard]] std::uint64_t unit_probes(std::size_t k) const noexcept {
    return cumulative_[k + 1] - cumulative_[k];
  }
  [[nodiscard]] std::uint64_t total_probes() const noexcept {
    return cumulative_.back();
  }
  /// The virtual time unit k's first probe leaves, identical to when a
  /// serial run would reach it.
  [[nodiscard]] sim::TimePoint unit_start(std::size_t k) const noexcept {
    return start_ + static_cast<sim::Duration>(cumulative_[k]) * gap_;
  }
  /// Where the clock stands after the last unit completes.
  [[nodiscard]] sim::TimePoint end_time() const noexcept {
    return start_ + static_cast<sim::Duration>(total_probes()) * gap_;
  }
  [[nodiscard]] sim::TimePoint start() const noexcept { return start_; }

  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shard_begin_.size() - 1);
  }
  /// Contiguous unit range [first, last) owned by shard s.
  [[nodiscard]] std::size_t shard_first(unsigned s) const noexcept {
    return shard_begin_[s];
  }
  [[nodiscard]] std::size_t shard_last(unsigned s) const noexcept {
    return shard_begin_[s + 1];
  }
  [[nodiscard]] std::uint64_t shard_probes(unsigned s) const noexcept {
    return cumulative_[shard_begin_[s + 1]] - cumulative_[shard_begin_[s]];
  }

 private:
  std::vector<std::uint64_t> cumulative_;  // prefix sums; size unit_count+1
  std::vector<std::size_t> shard_begin_;   // size shard_count+1
  sim::TimePoint start_ = 0;
  sim::Duration gap_ = 0;
};

}  // namespace scent::engine
