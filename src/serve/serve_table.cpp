#include "serve/serve_table.h"

#include <utility>

#include "telemetry/span.h"

namespace scent::serve {

ServeTable::ServeTable(const ServeOptions& options) : options_(options) {
  scan_options_.threads = options.threads;
  scan_options_.collect_sightings = options.collect_sightings;
}

void ServeTable::apply(const analysis::AnalysisInput& input,
                       std::int64_t day) {
  analysis::FusedScan scan = analysis::scan_fused(
      input, options_.bgp, scan_options_, options_.registry);

  telemetry::TraceCollector* const trace =
      telemetry::trace_of(options_.registry);
  if (trace != nullptr && recorder_ == nullptr) {
    recorder_ =
        std::make_unique<telemetry::TraceRecorder>(trace->recorder_capacity());
  }
  telemetry::TraceRecorder* const recorder =
      trace != nullptr ? recorder_.get() : nullptr;
  telemetry::Span apply_span{options_.registry, "serve.delta_apply", recorder};
  if (current_ == nullptr) {
    // First apply adopts the scan outright: a full-corpus apply on an
    // empty table is "build version 0" through the same path.
    base_ = std::move(scan.accumulator);
  } else {
    base_.merge_from(std::move(scan.accumulator));
  }
  failed_files_ += scan.failed_files;

  auto next = std::make_shared<TableVersion>();
  next->version = current_ != nullptr ? current_->version + 1 : 1;
  next->day = day;
  next->delta_rows = input.rows();
  next->table = base_.materialize();
  next->table.threads_used = scan.threads_used;
  next->table.failed_files = failed_files_;

  std::shared_ptr<const TableVersion> replaced;
  std::uint64_t reads_now = 0;
  {
    const std::lock_guard lock{mutex_};
    replaced = std::exchange(current_, std::move(next));
    reads_now = reads_;
  }
  // Outside the lock: frees the replaced version unless a reader holds it.
  replaced.reset();

  apply_span.stop();
  if (recorder != nullptr) {
    recorder->counter("serve.version",
                      static_cast<std::int64_t>(current_->version));
    trace->drain("serve", *recorder);
  }
  note_apply_metrics(*current_, reads_now);
}

std::shared_ptr<const TableVersion> ServeTable::current() const {
  const std::lock_guard lock{mutex_};
  if (current_ != nullptr) ++reads_;
  return current_;
}

std::uint64_t ServeTable::versions_published() const {
  const std::lock_guard lock{mutex_};
  return current_ != nullptr ? current_->version : 0;
}

std::uint64_t ServeTable::reads() const {
  const std::lock_guard lock{mutex_};
  return reads_;
}

void ServeTable::note_apply_metrics(const TableVersion& published,
                                    std::uint64_t reads_now) {
  telemetry::Registry* registry = options_.registry;
  if (registry == nullptr) return;
  registry->counter("serve.versions").add(1);
  registry->counter("serve.delta_rows").add(published.delta_rows);
  // reads() grows on reader threads; mirror the delta since the last
  // publish so the counter stays single-writer like the rest.
  registry->counter("serve.reads").add(reads_now - reads_at_last_publish_);
  registry->gauge("serve.readers_last_epoch")
      .set(static_cast<std::int64_t>(reads_now - reads_at_last_publish_));
  reads_at_last_publish_ = reads_now;
  registry->gauge("serve.devices")
      .set(static_cast<std::int64_t>(published.table.devices.size()));
  registry->gauge("serve.rows")
      .set(static_cast<std::int64_t>(published.table.rows_scanned));
}

}  // namespace scent::serve
