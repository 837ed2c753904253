#include "analysis/engine.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/accumulator.h"
#include "engine/parallel.h"
#include "telemetry/span.h"

namespace scent::analysis {
namespace {

/// Per-shard instrumentation the Accumulator itself stays free of: the
/// flight-recorder ring (when tracing) and the "analysis.scan_shard" span
/// slot (with a registry).
struct ShardTrace {
  std::unique_ptr<telemetry::TraceRecorder> recorder;
  std::unique_ptr<telemetry::SpanStats> stats;
};

}  // namespace

FusedScan scan_fused(const AnalysisInput& input, const routing::BgpTable* bgp,
                     const AnalysisOptions& options,
                     telemetry::Registry* registry) {
  telemetry::Span span{registry, "analysis.scan"};

  const std::size_t total = input.rows();
  const routing::BgpTable* attributor = options.attribute ? bgp : nullptr;

  unsigned threads = engine::resolve_threads(options.threads);
  if (total == 0) threads = 1;

  // Phase 1 (serial, parallel runs only): one BGP trie walk per distinct
  // response /64, into a cache every shard then reads without
  // synchronization. The serial path skips the priming pre-pass — its
  // single inline shard safely populates a lazy cache row by row instead.
  routing::AttributionCache cache;
  if (attributor != nullptr && threads > 1) {
    input.prime_attribution(*attributor, cache);
  }
  const routing::AttributionCache* shared_cache =
      (attributor != nullptr && threads > 1) ? &cache : nullptr;

  // Phase 2 (parallel): contiguous row shards, shard-local accumulation.
  std::vector<Accumulator> shards;
  shards.reserve(threads);
  for (unsigned s = 0; s < threads; ++s) {
    shards.emplace_back(&options, attributor, shared_cache);
  }
  std::vector<ShardTrace> shard_trace(threads);
  for (ShardTrace& st : shard_trace) {
    if (options.trace != nullptr) {
      st.recorder = std::make_unique<telemetry::TraceRecorder>(
          options.trace->recorder_capacity());
    }
    if (registry != nullptr) {
      st.stats = std::make_unique<telemetry::SpanStats>();
    }
  }
  // Window tasks first, then the row shards, claimed in that order by
  // `threads` workers (inline at one). A window task records its own rows
  // into a presized core::Snapshot — the same builder as the snapshot
  // file's pair section — so it runs beside the shards and needs no
  // shard-order merge.
  const std::size_t window_tasks = options.windows.size();
  std::vector<core::Snapshot> windows(window_tasks);
  engine::run_tasks(threads, window_tasks + threads, [&](unsigned,
                                                         std::size_t task) {
    if (task < window_tasks) {
      const RowWindow& window = options.windows[task];
      input.scan(window.begin, std::min(window.end, total),
                 /*want_targets=*/true,
                 [&](std::size_t, std::span<const net::Ipv6Address> targets,
                     std::span<const net::Ipv6Address> responses,
                     std::span<const sim::TimePoint>) {
                   windows[task].record_rows(targets, responses);
                 });
      return;
    }
    const auto s = static_cast<unsigned>(task - window_tasks);
    telemetry::TraceRecorder* recorder = shard_trace[s].recorder.get();
    {
      const telemetry::Span shard_span{shard_trace[s].stats.get(),
                                       "analysis.scan_shard", recorder};
      const engine::RowRange range = engine::shard_rows(total, threads, s);
      input.scan(range.begin, range.end, options.collect_targets,
                 [&](std::size_t, std::span<const net::Ipv6Address> targets,
                     std::span<const net::Ipv6Address> responses,
                     std::span<const sim::TimePoint> times) {
                   shards[s].accumulate(targets, responses, times);
                 });
    }
    if (recorder != nullptr) {
      recorder->counter(
          "analysis.rows",
          static_cast<std::int64_t>(shards[s].rows_scanned()));
    }
  });

  // Phase 3 (serial): merge in shard order == row order == serial order.
  // The unwrap into the public table is the caller's: analyze() finishes
  // immediately, the serve layer keeps accumulating deltas first.
  for (unsigned s = 1; s < threads; ++s) {
    shards[0].merge_from(std::move(shards[s]));
  }

  // Trace lanes and the shard span slots fold in at the same merge point
  // as the tables, in the same shard order.
  for (unsigned s = 0; s < threads; ++s) {
    if (options.trace != nullptr && shard_trace[s].recorder != nullptr) {
      char lane[32];
      std::snprintf(lane, sizeof lane, "analysis shard %u", s);
      options.trace->drain(lane, *shard_trace[s].recorder);
    }
    if (registry != nullptr) {
      registry->span_child("analysis.scan_shard")
          .merge_from(*shard_trace[s].stats);
    }
  }

  FusedScan out;
  // The shared cache lives on this stack frame; the returned accumulator
  // must not keep pointing at it.
  shards[0].detach_shared_cache();
  out.accumulator = std::move(shards[0]);
  out.windows = std::move(windows);
  out.threads_used = threads;
  out.failed_files = input.failed_files();
  return out;
}

AggregateTable analyze(const AnalysisInput& input, const routing::BgpTable* bgp,
                       const AnalysisOptions& options,
                       telemetry::Registry* registry) {
  FusedScan scan = scan_fused(input, bgp, options, registry);
  AggregateTable out = std::move(scan.accumulator).finish();
  out.window_snapshots = std::move(scan.windows);
  out.threads_used = scan.threads_used;
  out.failed_files = scan.failed_files;
  note_table_metrics(out, registry);
  return out;
}

AggregateTable analyze(const core::ObservationStore& store,
                       const routing::BgpTable* bgp,
                       const AnalysisOptions& options,
                       telemetry::Registry* registry) {
  return analyze(StoreInput{store}, bgp, options, registry);
}

}  // namespace scent::analysis
