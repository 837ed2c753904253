#include "core/sweep_ingest.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "engine/parallel.h"
#include "telemetry/span.h"

namespace scent::core {
namespace {

/// A shard's staged rows come in chunks of the store's four columns. A
/// chunk is never regrown, so staging copies no row and wastes at most one
/// part-filled chunk per shard, and the merge frees each chunk as soon as
/// its rows are in the store.
struct Chunk {
  static constexpr std::size_t kRows = 8192;  // 336 KiB, 32 full batches
  net::Ipv6Address targets[kRows];
  net::Ipv6Address responses[kRows];
  std::uint16_t type_codes[kRows];
  sim::TimePoint times[kRows];
};

/// Writes `batch` into the first rows of `out`.
void write_rows(std::span<const probe::ProbeResult> batch,
                const ObservationStore::ColumnSlices& out) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const probe::ProbeResult& r = batch[i];
    out.targets[i] = r.target;
    out.responses[i] = r.response_source;
    out.type_codes[i] = ObservationStore::pack_type_code(r.type, r.code);
    out.times[i] = r.sent_at;
  }
}

/// Shard-local ingest. Shard 0's sink appends each batch straight into the
/// caller's store, which indexes the rows as they land; its results come
/// first in serial order, so nothing precedes them. Every other shard's
/// sink stages its batches in chunks, which the post-join merge copies into
/// the store in shard order and indexes in row order. Either way the
/// store's index insertion history is exactly a serial build's.
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
  /// Appends to `store` directly, or stages its rows when it is null.
  explicit StoreShardSink(ObservationStore* store) : store_(store) {}

  void enable_trace(std::size_t recorder_capacity) {
    recorder_ = std::make_unique<telemetry::TraceRecorder>(recorder_capacity);
  }
  void enable_stats() { stats_ = std::make_unique<telemetry::SpanStats>(); }

  void on_unit_begin(std::size_t unit_index) override {
    ranges_.push_back({unit_index, rows(), rows()});
  }

  void on_results(std::size_t unit_index,
                  std::span<const probe::ProbeResult> batch) override {
    (void)unit_index;
    const telemetry::Span span{stats_.get(), "ingest.batch", recorder_.get()};
    if (store_ != nullptr) {
      store_->append_columns(
          batch.size(), [batch](const ObservationStore::ColumnSlices& out) {
            write_rows(batch, out);
            return true;
          });
      return;
    }
    while (!batch.empty()) {
      const std::size_t used = staged_ % Chunk::kRows;
      if (used == 0) chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
      Chunk& chunk = *chunks_.back();
      const std::size_t n = std::min(batch.size(), Chunk::kRows - used);
      write_rows(batch.first(n), {std::span{chunk.targets}.subspan(used),
                                  std::span{chunk.responses}.subspan(used),
                                  std::span{chunk.type_codes}.subspan(used),
                                  std::span{chunk.times}.subspan(used)});
      staged_ += n;
      batch = batch.subspan(n);
    }
  }

  void on_unit_end(std::size_t unit_index) override {
    (void)unit_index;
    ranges_.back().end = rows();
  }

  struct UnitRange {
    std::size_t unit = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Rows staged for the merge (zero for the direct sink).
  [[nodiscard]] std::size_t staged_rows() const noexcept { return staged_; }

  /// Appends the staged rows to `store`, freeing each chunk once copied.
  /// Returns the store row the sink's row offsets are relative to: 0 for
  /// the direct sink, whose offsets are already store rows.
  std::size_t merge_into(ObservationStore& store) {
    if (store_ != nullptr) return 0;
    const std::size_t base = store.size();
    store.append_columns(
        staged_, [this](const ObservationStore::ColumnSlices& out) {
          for (std::size_t c = 0; c < chunks_.size(); ++c) {
            const std::size_t at = c * Chunk::kRows;
            const std::size_t n = std::min(Chunk::kRows, staged_ - at);
            const Chunk& chunk = *chunks_[c];
            std::copy_n(chunk.targets, n, out.targets.begin() + at);
            std::copy_n(chunk.responses, n, out.responses.begin() + at);
            std::copy_n(chunk.type_codes, n, out.type_codes.begin() + at);
            std::copy_n(chunk.times, n, out.times.begin() + at);
            chunks_[c].reset();
          }
          return true;
        });
    chunks_.clear();
    return base;
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
  [[nodiscard]] std::size_t rows() const noexcept {
    return store_ != nullptr ? store_->size() : staged_;
  }

  ObservationStore* store_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t staged_ = 0;
  std::vector<UnitRange> ranges_;
  std::unique_ptr<telemetry::TraceRecorder> recorder_;
  std::unique_ptr<telemetry::SpanStats> stats_;
};

}  // namespace

SweepIngest sweep_into_store(sim::Internet& internet, sim::VirtualClock& clock,
                             std::span<const engine::SweepUnit> units,
                             const probe::ProberOptions& prober_options,
                             const engine::SweepOptions& options,
                             ObservationStore& store) {
  telemetry::TraceCollector* const trace =
      telemetry::trace_of(options.registry);
  const unsigned threads = engine::resolve_threads(options.threads);
  const std::size_t capacity_before = store.capacity();
  std::vector<StoreShardSink> sinks;
  sinks.reserve(threads);
  for (unsigned s = 0; s < threads; ++s) {
    StoreShardSink& sink = sinks.emplace_back(s == 0 ? &store : nullptr);
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
  // shard 0's rows followed by every staged shard's reproduce the serial
  // observation sequence exactly. The ingest trace lanes and batch span
  // slots fold in at the same point, in the same order. The store grows
  // once for every staged row, to double its capacity before the sweep or
  // to the rows if more, since shard 0 may already have doubled it.
  std::size_t rows = store.size();
  for (const auto& sink : sinks) rows += sink.staged_rows();
  if (rows > store.capacity()) {
    store.reserve_exactly(std::max(rows, 2 * capacity_before));
  }
  for (unsigned s = 0; s < sinks.size(); ++s) {
    StoreShardSink& sink = sinks[s];
    const std::size_t base = sink.merge_into(store);
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
  return ingest;
}

}  // namespace scent::core
