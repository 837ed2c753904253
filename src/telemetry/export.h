// export.h - telemetry exporters: the human-readable per-stage summary the
// bench harnesses print, the machine-readable registry JSON the bench
// trajectory (and any external tooling) consumes, and the Chrome
// trace-event timeline of a TraceCollector.
#pragma once

#include <cstdio>
#include <string>

#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::telemetry {

/// Renders a virtual-clock duration as "[Nd ]HH:MM:SS".
[[nodiscard]] std::string format_virtual_duration(sim::Duration us);

/// Prints the span tree (total wall, per-call p50/p99, virtual duration,
/// call counts), counters, gauges and sketches as an aligned text block.
/// Spans print in first-opened order with nesting indentation, so the
/// output reads as the pipeline's stage breakdown.
void print_summary(std::FILE* out, const Registry& registry);

/// Serializes the whole registry as one JSON object:
/// {"counters":{...},"gauges":{...},"sketches":{...},"spans":[...]}. A
/// sketch renders as {"count","sum","min","max","p50","p90","p99","p999"};
/// each span entry is {"path","depth","virtual_us","wall_ns":<sketch>}.
[[nodiscard]] std::string to_json(const Registry& registry);

/// Writes to_json() to `path`. Returns false on any I/O failure.
bool write_json(const std::string& path, const Registry& registry);

/// Renders a TraceCollector as the classic {"traceEvents":[...]} format
/// both chrome://tracing and https://ui.perfetto.dev open directly. Each
/// lane becomes one timeline row (pid 1, tid = lane index + 1, named via a
/// thread_name metadata event), so engine sweep shards, columnar ingest,
/// snapshot I/O, campaign day phases and analysis scan shards appear as
/// parallel lanes. ts is wall time in microseconds relative to the
/// earliest event; the deterministic virtual timestamp rides along in
/// args.virtual_us. Per-lane overflow counts are exported both as
/// trace.dropped counter samples and in otherData.dropped_events.
[[nodiscard]] std::string to_chrome_json(const TraceCollector& collector);

/// Writes to_chrome_json() to `path`. Returns false on any I/O failure.
bool write_chrome_trace(const std::string& path,
                        const TraceCollector& collector);

}  // namespace scent::telemetry
