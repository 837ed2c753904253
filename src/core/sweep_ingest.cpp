#include "core/sweep_ingest.h"

#include <cstdio>
#include <memory>

#include "corpus/snapshot.h"
#include "engine/parallel.h"
#include "telemetry/span.h"

namespace scent::core {
namespace {

/// Shard-local ingest: the shard's responsive results are buffered as
/// they stream in, unit boundaries are recorded as buffer offsets, and the
/// post-join merge ingests every buffer into the caller's store in shard
/// order. That merge is the only pass that indexes a row, so the store's
/// index insertion history is exactly a serial build's.
///
/// Each batch runs under one "ingest.batch" Span. With a registry, the
/// sink owns a shard-local span slot folded into that registry's path tree
/// in shard order; when a trace collector hangs off that registry, also a
/// flight-recorder ring ("ingest shard s" lanes — the columnar ingest's
/// own lane group, distinct from the sweep lanes). Sink callbacks run
/// inside the prober's sweep, so per-batch instrumentation here IS the
/// columnar hot path — it must stay within the bench-guarded idle/enabled
/// overhead budgets, which is why the slot is resolved once up front
/// rather than looked up per batch.
class StoreShardSink final : public engine::UnitSink {
 public:
  void enable_trace(std::size_t recorder_capacity) {
    recorder_ = std::make_unique<telemetry::TraceRecorder>(recorder_capacity);
  }
  void enable_stats() { stats_ = std::make_unique<telemetry::SpanStats>(); }

  void on_unit_begin(std::size_t unit_index) override {
    ranges_.push_back({unit_index, results_.size(), results_.size()});
  }

  void on_results(std::size_t unit_index,
                  std::span<const probe::ProbeResult> batch) override {
    (void)unit_index;
    const telemetry::Span span{stats_.get(), "ingest.batch", recorder_.get()};
    results_.insert(results_.end(), batch.begin(), batch.end());
  }

  void on_unit_end(std::size_t unit_index) override {
    (void)unit_index;
    ranges_.back().end = results_.size();
  }

  struct UnitRange {
    std::size_t unit = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Responsive results only, in probe order.
  [[nodiscard]] std::span<const probe::ProbeResult> results() const noexcept {
    return results_;
  }
  [[nodiscard]] const std::vector<UnitRange>& ranges() const noexcept {
    return ranges_;
  }
  [[nodiscard]] telemetry::TraceRecorder* recorder() noexcept {
    return recorder_.get();
  }
  [[nodiscard]] const telemetry::SpanStats* stats() const noexcept {
    return stats_.get();
  }

 private:
  std::vector<probe::ProbeResult> results_;
  std::vector<UnitRange> ranges_;
  std::unique_ptr<telemetry::TraceRecorder> recorder_;
  std::unique_ptr<telemetry::SpanStats> stats_;
};

}  // namespace

SweepIngest sweep_into_store(sim::Internet& internet, sim::VirtualClock& clock,
                             std::span<const engine::SweepUnit> units,
                             const probe::ProberOptions& prober_options,
                             const engine::SweepOptions& options,
                             ObservationStore& store,
                             corpus::SnapshotWriter* snapshot) {
  telemetry::TraceCollector* const trace =
      telemetry::trace_of(options.registry);
  std::vector<StoreShardSink> sinks(engine::resolve_threads(options.threads));
  for (auto& sink : sinks) {
    if (trace != nullptr) sink.enable_trace(trace->recorder_capacity());
    if (options.registry != nullptr) sink.enable_stats();
  }
  const auto report = engine::run_sharded_sweep(
      internet, clock, units, prober_options, options,
      [&sinks](unsigned shard) { return &sinks[shard]; });

  SweepIngest ingest;
  ingest.counters = report.counters;
  ingest.threads_used = report.threads_used;
  ingest.units.resize(units.size());

  // Merge in shard order: shards hold contiguous ascending unit ranges, so
  // concatenation reproduces the serial observation sequence exactly. The
  // ingest trace lanes and batch span slots fold in at the same point, in
  // the same order. The store's capacity is reserved once for every
  // shard's rows.
  const std::size_t first_row = store.size();
  std::size_t rows = 0;
  for (const auto& sink : sinks) rows += sink.results().size();
  store.reserve(first_row + rows);
  for (unsigned s = 0; s < sinks.size(); ++s) {
    StoreShardSink& sink = sinks[s];
    const std::size_t base = store.size();
    store.add_all(sink.results());
    for (const auto& range : sink.ranges()) {
      UnitIngest& unit = ingest.units[range.unit];
      unit.sent = report.units[range.unit].sent;
      unit.responded = report.units[range.unit].responded;
      unit.obs_begin = base + range.begin;
      unit.obs_end = base + range.end;
    }
    if (sink.recorder() != nullptr) {
      char lane[32];
      std::snprintf(lane, sizeof lane, "ingest shard %u", s);
      trace->drain(lane, *sink.recorder());
    }
    if (sink.stats() != nullptr) {
      options.registry->span_child("ingest.batch")
          .merge_from(*sink.stats());
    }
  }
  if (snapshot != nullptr) {
    snapshot->append(store.view(first_row, store.size()));
  }
  return ingest;
}

}  // namespace scent::core
