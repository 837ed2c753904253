#include "serve/serve_table.h"

#include <cassert>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/span.h"

namespace scent::serve {

ServeTable::ServeTable(const ServeOptions& options) : options_(options) {
  delta_options_.threads = options.threads;
  delta_options_.collect_sightings = options.collect_sightings;
  delta_options_.trace = options.trace;
  if (options.trace != nullptr) {
    recorder_ = std::make_unique<telemetry::TraceRecorder>(
        options.trace->recorder_capacity());
  }
}

AggregateDelta ServeTable::scan_delta(const analysis::AnalysisInput& input,
                                      std::int64_t day) {
  // One full-input window captures the day's rotation snapshot in the
  // same pass: a delta input holds exactly one day's rows, so
  // [0, rows) covers them regardless of whether the input indexes rows
  // range-relative (StoreInput) or chain-global from zero (ChainInput).
  delta_options_.windows.assign(1, {0, input.rows()});
  analysis::FusedScan scan =
      analysis::scan_fused(input, options_.bgp, delta_options_,
                           options_.registry);

  AggregateDelta delta;
  delta.acc = std::move(scan.accumulator);
  delta.window = std::move(scan.windows.front());
  delta.rows = input.rows();
  delta.failed_files = scan.failed_files;
  delta.threads_used = scan.threads_used;
  delta.day = day;
  return delta;
}

void ServeTable::apply(AggregateDelta&& delta) {
  telemetry::Span apply_span{options_.registry, "serve.delta_apply",
                             recorder_.get()};
  if (!has_base_) {
    // First apply adopts the delta outright: a full-corpus delta on an
    // empty table is "build version 0" through the same path.
    base_ = std::move(delta.acc);
    has_base_ = true;
  } else {
    base_.merge_from(std::move(delta.acc));
  }
  failed_files_ += delta.failed_files;

  auto next = std::make_shared<TableVersion>();
  next->version = epoch_.load(std::memory_order_relaxed) + 1;
  next->day = delta.day;
  next->delta_rows = delta.rows;
  next->table = base_.materialize();
  next->table.threads_used = delta.threads_used;
  next->table.failed_files = failed_files_;
  next->day_window = std::move(delta.window);
  if (last_published_ != nullptr) {
    next->prev_window = last_published_->day_window;
  }

  const TableVersion& published = *next;
  last_published_ = next;
  publish(std::move(next));

  apply_span.stop();
  if (recorder_ != nullptr) {
    recorder_->counter("serve.version",
                       static_cast<std::int64_t>(published.version));
    options_.trace->drain("serve", *recorder_);
  }
  note_apply_metrics(published);
}

void ServeTable::publish(std::shared_ptr<const TableVersion> version) {
  const std::uint64_t next = epoch_.load(std::memory_order_relaxed) + 1;
  Slot& slot = slots_[next % kVersionSlots];

  // Clear the stamp so late-arriving readers see the slot as invalid,
  // then drain the pin count: a reader that pinned before the clear may
  // still be copying the old shared_ptr. seq_cst on the stamp clear, the
  // pin, the stamp check, and the drain load gives the total order the
  // rail's safety argument needs (a reader that pins after the clear
  // cannot then read the old stamp).
  slot.seq.store(0, std::memory_order_seq_cst);
  if (slot.readers.load(std::memory_order_seq_cst) != 0) {
    const telemetry::Span wait_span{options_.registry, "serve.reclaim_wait"};
    while (slot.readers.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    ++reclaim_waits_;
  }

  // The drained reader's unpin (release) synchronizes with the loads
  // above, so its shared_ptr copy happens-before this overwrite; the
  // overwritten version retires (frees) when the last outstanding
  // reader copy drops.
  if (slot.version != nullptr) ++versions_retired_;
  slot.version = std::move(version);
  slot.seq.store(next, std::memory_order_release);
  epoch_.store(next, std::memory_order_release);
}

std::shared_ptr<const TableVersion> ServeTable::current() const {
  for (;;) {
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    if (e == 0) return nullptr;
    Slot& slot = slots_[e % kVersionSlots];
    slot.readers.fetch_add(1, std::memory_order_seq_cst);
    std::shared_ptr<const TableVersion> out;
    if (slot.seq.load(std::memory_order_seq_cst) == e) {
      // Pinned with the stamp intact: the writer cannot touch
      // slot.version until our unpin below, and the stamp's release
      // store makes the version's contents visible.
      out = slot.version;
    }
    slot.readers.fetch_sub(1, std::memory_order_release);
    if (out != nullptr) {
      acquires_.fetch_add(1, std::memory_order_relaxed);
      return out;
    }
    // Lapped: the writer recycled this slot (>= kVersionSlots publishes)
    // between our epoch read and pin. The epoch necessarily advanced;
    // retry against the new one.
  }
}

void ServeTable::note_apply_metrics(const TableVersion& published) {
  telemetry::Registry* registry = options_.registry;
  if (registry == nullptr) return;
  registry->counter("serve.versions").add(1);
  registry->counter("serve.delta_rows").add(published.delta_rows);
  const std::uint64_t reads_now = acquires_.load(std::memory_order_relaxed);
  // reads() grows on reader threads; mirror the delta since the last
  // publish so the counter stays single-writer like the rest.
  registry->counter("serve.reads").add(reads_now - acquires_at_last_publish_);
  registry->gauge("serve.readers_last_epoch")
      .set(static_cast<std::int64_t>(reads_now - acquires_at_last_publish_));
  acquires_at_last_publish_ = reads_now;
  registry->counter("serve.versions_retired")
      .add(versions_retired_ - counted_retired_);
  registry->counter("serve.reclaim_waits")
      .add(reclaim_waits_ - counted_reclaim_waits_);
  counted_retired_ = versions_retired_;
  counted_reclaim_waits_ = reclaim_waits_;
  registry->gauge("serve.devices")
      .set(static_cast<std::int64_t>(published.table.devices.size()));
  registry->gauge("serve.rows")
      .set(static_cast<std::int64_t>(published.table.rows_scanned));
}

}  // namespace scent::serve
