#include "engine/executor.h"

#include <cstdio>
#include <memory>

#include "engine/parallel.h"
#include "sim/rng.h"
#include "telemetry/span.h"

namespace scent::engine {

SweepPlan::SweepPlan(std::span<const SweepUnit> units,
                     const probe::ProberOptions& prober_options,
                     sim::TimePoint start, unsigned shard_count)
    : start_(start) {
  gap_ = prober_options.packets_per_second == 0
             ? 0
             : sim::kSecond / static_cast<sim::Duration>(
                                  prober_options.packets_per_second);

  cumulative_.reserve(units.size() + 1);
  cumulative_.push_back(0);
  for (const auto& unit : units) {
    cumulative_.push_back(
        cumulative_.back() +
        probe::SubnetTargets{unit.prefix, unit.sub_length, unit.seed}.size());
  }

  // Contiguous partition, balanced by probe count: unit k goes to the
  // shard its starting probe offset falls into. Monotone in k, so each
  // shard owns a contiguous range and shard order == unit order.
  if (shard_count == 0) shard_count = 1;
  shard_begin_.assign(shard_count + 1, units.size());
  const std::uint64_t total = total_probes();
  std::size_t k = 0;
  for (unsigned s = 0; s < shard_count; ++s) {
    shard_begin_[s] = k;
    if (total == 0) continue;  // degenerate: everything lands in shard 0
    // Extend shard s while unit k's starting offset is inside its slice
    // [total*s/N, total*(s+1)/N).
    const std::uint64_t slice_end =
        total * static_cast<std::uint64_t>(s + 1) / shard_count;
    while (k < units.size() && cumulative_[k] < slice_end) ++k;
  }
  if (total == 0) shard_begin_[0] = 0;
  shard_begin_[shard_count] = units.size();
}

namespace {

/// Everything one worker owns; kept alive until the shard-order merge.
struct ShardState {
  probe::Prober::Counters counters;
  sim::Internet::Stats stats;
  telemetry::Registry registry;
  /// "sweep.unit" span slot; only with a merge registry.
  std::unique_ptr<telemetry::SpanStats> unit_stats;
  std::unique_ptr<telemetry::TraceRecorder> recorder;  ///< Only when tracing.
};

/// Runs shard `s`'s units at their precomputed serial start times,
/// streaming results into `sink` (may be null). Touches only shard-local
/// state and the shard's own slots of `outcomes`, so distinct shards run
/// concurrently.
void run_shard(sim::Internet& internet, std::span<const SweepUnit> units,
               const probe::ProberOptions& prober_options,
               const SweepOptions& options, const SweepPlan& plan,
               unsigned s, UnitSink* sink, ShardState& state,
               std::vector<UnitOutcome>& outcomes) {
  sim::VirtualClock shard_clock{plan.start()};
  telemetry::TraceRecorder* recorder = state.recorder.get();
  if (recorder != nullptr) recorder->set_clock(&shard_clock);
  probe::Prober prober{internet, shard_clock, prober_options};
  // Per-shard derived stream: distinct wire sequence numbers per shard
  // (marks packets, never results — the determinism contract holds).
  prober.seed_sequence(
      static_cast<std::uint16_t>(sim::mix64(options.seed, s)));
  if (options.merge_registry != nullptr) {
    prober.attach_telemetry(state.registry);
  }
  sim::NetContext net_ctx;
  prober.set_net_context(&net_ctx);

  for (std::size_t k = plan.shard_first(s); k < plan.shard_last(s); ++k) {
    // Replay the serial schedule: jump to exactly where a
    // single-threaded run's clock would stand at this unit.
    shard_clock.advance_to(plan.unit_start(k));
    // Fresh response-policy state per unit: the unit's results depend
    // only on (world, unit, start time, prober options), never on which
    // units ran before it on this shard.
    net_ctx.response.reset();

    const probe::Prober::Counters before = prober.counters();
    {
      const telemetry::Span unit_span{state.unit_stats.get(), "sweep.unit",
                                      recorder};
      if (sink != nullptr) sink->on_unit_begin(k);
      prober.sweep_subnets(
          units[k].prefix, units[k].sub_length, units[k].seed,
          [&](std::span<const probe::ProbeResult> batch) {
            if (sink != nullptr) sink->on_results(k, batch);
          });
      if (sink != nullptr) sink->on_unit_end(k);
    }
    if (recorder != nullptr) {
      recorder->counter("sweep.responses",
                        static_cast<std::int64_t>(
                            prober.counters().received - before.received));
    }

    UnitOutcome& outcome = outcomes[k];
    outcome.sent = prober.counters().sent - before.sent;
    outcome.responded = prober.counters().received - before.received;
    outcome.shard = s;
    outcome.start = plan.unit_start(k);
  }

  state.counters = prober.counters();
  state.stats = net_ctx.stats;
}

}  // namespace

SweepReport run_sharded_sweep(
    sim::Internet& internet, sim::VirtualClock& clock,
    std::span<const SweepUnit> units,
    const probe::ProberOptions& prober_options, const SweepOptions& options,
    const std::function<UnitSink*(unsigned shard)>& sink_for_shard) {
  const SweepPlan plan{
      units, prober_options, clock.now(),
      resolve_threads(options.threads)};
  const unsigned threads = plan.shard_count();

  SweepReport report;
  report.threads_used = threads;
  report.start = plan.start();
  report.units.resize(units.size());

  std::vector<ShardState> shards(threads);
  std::vector<UnitSink*> sinks(threads, nullptr);
  for (unsigned s = 0; s < threads; ++s) {
    if (options.trace != nullptr) {
      shards[s].recorder = std::make_unique<telemetry::TraceRecorder>(
          options.trace->recorder_capacity());
    }
    if (options.merge_registry != nullptr) {
      shards[s].unit_stats = std::make_unique<telemetry::SpanStats>();
    }
    sinks[s] = sink_for_shard(s);
  }

  // One worker per shard; a single shard runs inline on the calling
  // thread (the serial fallback — no spawn/join overhead).
  run_shards(threads, [&](unsigned s) {
    run_shard(internet, units, prober_options, options, plan, s, sinks[s],
              shards[s], report.units);
  });

  // Deterministic merge, shard order == unit order == serial order.
  for (unsigned s = 0; s < threads; ++s) {
    report.counters.sent += shards[s].counters.sent;
    report.counters.received += shards[s].counters.received;
    report.net_stats.merge(shards[s].stats);
    if (options.merge_registry != nullptr) {
      options.merge_registry->merge_counters_from(shards[s].registry);
      options.merge_registry->span_child("sweep.unit")
          .merge_from(*shards[s].unit_stats);
    }
    if (options.trace != nullptr) {
      char lane[32];
      std::snprintf(lane, sizeof lane, "sweep shard %u", s);
      options.trace->drain(lane, *shards[s].recorder);
    }
  }
  internet.absorb_stats(report.net_stats);

  clock.advance_to(plan.end_time());
  report.end = clock.now();
  return report;
}

}  // namespace scent::engine
