// span.h - the one RAII timing scope.
//
// A Span brackets one region — a campaign stage, a snapshot section, one
// columnar ingest batch — and feeds whichever sinks are attached:
//
//   * a Registry: the region aggregates into the registry's span path
//     tree. Spans nest lexically — a "sweep" span opened while a "day"
//     span is open aggregates under "campaign/day/sweep" — which is how a
//     campaign day decomposes into sweep -> ingest -> inference in the
//     reports. Each path keeps a wall-duration sketch (calls, total,
//     p50..p99.9) plus the total time of the sim::VirtualClock the
//     registry was bound to via set_clock() (zero if none).
//   * a pre-resolved SpanStats slot instead of a registry: the same
//     aggregation with no path lookup, for hot loops and shard workers.
//     Resolve the slot once before the loop (a shard-local SpanStats,
//     folded in at the merge point through Registry::span_child). Slot
//     spans record wall time only.
//   * a TraceRecorder: a begin/end event pair named `name`, stamped with
//     the same wall readings the slot records.
//
// With no sink attached the span costs two predictable branches, the
// budget instrumented hot paths rely on (bench_micro guards it at <1% of
// a 256-row ingest batch). `name` must be a static-lifetime literal when
// a recorder is attached: ring events keep the pointer.
#pragma once

#include <cstdint>

#include "sim/sim_time.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::telemetry {

class Span {
 public:
  Span(Registry* registry, const char* name,
       TraceRecorder* recorder = nullptr)
      : recorder_(recorder), name_(name) {
    if (registry != nullptr) {
      registry_ = registry;
      slot_ = registry->span_begin(name);
      clock_ = registry->clock();
    }
    if (slot_ != nullptr || recorder_ != nullptr) open();
  }

  Span(SpanStats* slot, const char* name, TraceRecorder* recorder = nullptr)
      : slot_(slot), recorder_(recorder), name_(name) {
    if (slot_ != nullptr || recorder_ != nullptr) open();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { stop(); }

  /// Closes the span early; later calls (and the destructor) are no-ops.
  void stop() {
    if (slot_ != nullptr || recorder_ != nullptr) close();
  }

 private:
  void open() {
    start_ns_ = TraceRecorder::now_wall_ns();
    if (clock_ != nullptr) virtual_start_ = clock_->now();
    if (recorder_ != nullptr) recorder_->begin(name_, start_ns_);
  }

  void close() {
    const std::uint64_t end_ns = TraceRecorder::now_wall_ns();
    if (recorder_ != nullptr) recorder_->end(name_, end_ns);
    if (slot_ != nullptr) {
      slot_->record(end_ns - start_ns_,
                    clock_ != nullptr ? clock_->now() - virtual_start_ : 0);
    }
    if (registry_ != nullptr) registry_->span_end();
    slot_ = nullptr;
    recorder_ = nullptr;
    registry_ = nullptr;
  }

  Registry* registry_ = nullptr;  ///< Set only in path-tree mode.
  SpanStats* slot_ = nullptr;
  TraceRecorder* recorder_;
  const char* name_;
  const sim::VirtualClock* clock_ = nullptr;
  std::uint64_t start_ns_ = 0;
  sim::TimePoint virtual_start_ = 0;
};

}  // namespace scent::telemetry
