#include "telemetry/export.h"

#include <algorithm>
#include <cinttypes>
#include <vector>

#include "telemetry/journal.h"

namespace scent::telemetry {

namespace {

std::string format_wall(std::uint64_t ns) {
  char buf[32];
  const double seconds = static_cast<double>(ns) / 1e9;
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.2fs", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fus", seconds * 1e6);
  }
  return buf;
}

/// Span rows in first-opened order — pre-order of the stage tree, since a
/// parent span always opens before its children.
std::vector<const std::pair<const std::string, SpanStats>*> ordered_spans(
    const Registry& registry) {
  std::vector<const std::pair<const std::string, SpanStats>*> rows;
  rows.reserve(registry.spans().size());
  for (const auto& entry : registry.spans()) rows.push_back(&entry);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return a->second.first_seq < b->second.first_seq;
  });
  return rows;
}

std::string_view leaf_name(const std::string& path) {
  const auto pos = path.rfind('/');
  return pos == std::string::npos ? std::string_view{path}
                                  : std::string_view{path}.substr(pos + 1);
}

void append_sketch_json(std::string& out, const QuantileSketch& sketch) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"min\":%" PRIu64
                ",\"max\":%" PRIu64 ",\"p50\":%" PRIu64 ",\"p90\":%" PRIu64
                ",\"p99\":%" PRIu64 ",\"p999\":%" PRIu64 "}",
                sketch.count(), sketch.sum(), sketch.min(), sketch.max(),
                sketch.quantile(0.50), sketch.quantile(0.90),
                sketch.quantile(0.99), sketch.quantile(0.999));
  out += buf;
}

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

const char* phase_for(EventType type) {
  switch (type) {
    case EventType::kBegin: return "B";
    case EventType::kEnd: return "E";
    case EventType::kInstant: return "i";
    case EventType::kCounter: return "C";
  }
  return "i";
}

/// Earliest wall timestamp across all lanes — the trace's ts origin, so
/// timelines start near zero instead of at steady_clock's arbitrary epoch.
std::uint64_t wall_base(const TraceCollector& collector) {
  std::uint64_t base = 0;
  bool any = false;
  for (const auto& lane : collector.lanes()) {
    for (const auto& event : lane.events) {
      if (!any || event.wall_ns < base) {
        base = event.wall_ns;
        any = true;
      }
    }
  }
  return base;
}

void append_event(std::string& out, const TraceEvent& event,
                  std::uint64_t base, std::size_t tid) {
  out += ",\n{\"name\":";
  append_json_string(out, event.name != nullptr ? event.name : "(unnamed)");
  char buf[128];
  const double ts =
      static_cast<double>(event.wall_ns - base) / 1000.0;  // ns -> us
  std::snprintf(buf, sizeof buf, ",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,"
                "\"tid\":%zu",
                phase_for(event.type), ts, tid);
  out += buf;
  if (event.type == EventType::kInstant) out += ",\"s\":\"t\"";
  if (event.type == EventType::kCounter) {
    std::snprintf(buf, sizeof buf,
                  ",\"args\":{\"value\":%" PRId64 ",\"virtual_us\":%" PRId64
                  "}}",
                  event.value, event.virtual_us);
  } else {
    std::snprintf(buf, sizeof buf, ",\"args\":{\"virtual_us\":%" PRId64 "}}",
                  event.virtual_us);
  }
  out += buf;
}

}  // namespace

std::string format_virtual_duration(sim::Duration us) {
  const char* sign = us < 0 ? "-" : "";
  if (us < 0) us = -us;
  const std::int64_t total_seconds = us / sim::kSecond;
  const std::int64_t days = total_seconds / (24 * 3600);
  const std::int64_t hh = (total_seconds / 3600) % 24;
  const std::int64_t mm = (total_seconds / 60) % 60;
  const std::int64_t ss = total_seconds % 60;
  char buf[48];
  if (days > 0) {
    std::snprintf(buf, sizeof buf,
                  "%s%" PRId64 "d %02" PRId64 ":%02" PRId64 ":%02" PRId64,
                  sign, days, hh, mm, ss);
  } else {
    std::snprintf(buf, sizeof buf, "%s%02" PRId64 ":%02" PRId64 ":%02" PRId64,
                  sign, hh, mm, ss);
  }
  return buf;
}

void print_summary(std::FILE* out, const Registry& registry) {
  std::fprintf(out, "  -- telemetry %s\n",
               std::string(49, '-').c_str());

  const auto spans = ordered_spans(registry);
  if (!spans.empty()) {
    std::fprintf(out, "  %-30s %10s %9s %9s %14s %8s\n", "span", "wall",
                 "p50", "p99", "virtual", "calls");
    for (const auto* entry : spans) {
      const auto& [path, stats] = *entry;
      const std::string name =
          std::string(2 * stats.depth, ' ') + std::string{leaf_name(path)};
      std::fprintf(out, "  %-30s %10s %9s %9s %14s %8" PRIu64 "\n",
                   name.c_str(), format_wall(stats.wall_ns.sum()).c_str(),
                   format_wall(stats.wall_ns.quantile(0.50)).c_str(),
                   format_wall(stats.wall_ns.quantile(0.99)).c_str(),
                   format_virtual_duration(stats.virtual_us).c_str(),
                   stats.count());
    }
  }

  if (!registry.counters().empty()) {
    std::fprintf(out, "  counters:\n");
    for (const auto& [name, counter] : registry.counters()) {
      std::fprintf(out, "    %-32s %14" PRIu64 "\n", name.c_str(),
                   counter.value());
    }
  }

  if (!registry.gauges().empty()) {
    std::fprintf(out, "  gauges:\n");
    for (const auto& [name, gauge] : registry.gauges()) {
      std::fprintf(out, "    %-32s %14" PRId64 "\n", name.c_str(),
                   gauge.value());
    }
  }

  if (!registry.sketches().empty()) {
    std::fprintf(out, "  sketches:\n");
    for (const auto& [name, sketch] : registry.sketches()) {
      std::fprintf(out,
                   "    %-32s n=%" PRIu64 " mean=%.1f min=%" PRIu64
                   " max=%" PRIu64 "\n",
                   name.c_str(), sketch.count(), sketch.mean(), sketch.min(),
                   sketch.max());
      if (sketch.count() == 0) continue;
      std::fprintf(out,
                   "      p50=%" PRIu64 " p90=%" PRIu64 " p99=%" PRIu64
                   " p99.9=%" PRIu64 "\n",
                   sketch.quantile(0.50), sketch.quantile(0.90),
                   sketch.quantile(0.99), sketch.quantile(0.999));
    }
  }
  std::fprintf(out, "  %s\n", std::string(62, '-').c_str());
}

std::string to_json(const Registry& registry) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : registry.counters()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    char buf[24];
    std::snprintf(buf, sizeof buf, ":%" PRIu64, counter.value());
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : registry.gauges()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    char buf[24];
    std::snprintf(buf, sizeof buf, ":%" PRId64, gauge.value());
    out += buf;
  }
  out += "},\"sketches\":{";
  first = true;
  for (const auto& [name, sketch] : registry.sketches()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_sketch_json(out, sketch);
  }
  out += "},\"spans\":[";
  first = true;
  for (const auto* entry : ordered_spans(registry)) {
    const auto& [path, stats] = *entry;
    if (!first) out += ',';
    first = false;
    out += "{\"path\":";
    append_json_string(out, path);
    char buf[64];
    std::snprintf(buf, sizeof buf, ",\"depth\":%u,\"virtual_us\":%" PRId64
                  ",\"wall_ns\":", stats.depth, stats.virtual_us);
    out += buf;
    append_sketch_json(out, stats.wall_ns);
    out += '}';
  }
  out += "]}";
  return out;
}


bool write_json(const std::string& path, const Registry& registry) {
  return write_text(path, to_json(registry) + "\n");
}

std::string to_chrome_json(const TraceCollector& collector) {
  const std::uint64_t base = wall_base(collector);
  // Process + thread naming metadata first, so viewers label every lane.
  std::string out =
      "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\","
      "\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{\"name\":\"scent\"}}";
  for (std::size_t i = 0; i < collector.lanes().size(); ++i) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,";
    char buf[48];
    std::snprintf(buf, sizeof buf, "\"tid\":%zu,\"args\":{\"name\":", i + 1);
    out += buf;
    append_json_string(out, collector.lanes()[i].name);
    out += "}}";
  }

  for (std::size_t i = 0; i < collector.lanes().size(); ++i) {
    const TraceLane& lane = collector.lanes()[i];
    for (const auto& event : lane.events) append_event(out, event, base, i + 1);
    if (lane.dropped != 0) {
      // Make overflow visible in the timeline itself, not just metadata.
      TraceEvent marker;
      marker.name = "trace.dropped";
      marker.type = EventType::kCounter;
      marker.wall_ns = base;
      marker.value = static_cast<std::int64_t>(lane.dropped);
      append_event(out, marker, base, i + 1);
    }
  }

  char buf[96];
  std::snprintf(buf, sizeof buf,
                "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"dropped_events\":%" PRIu64 "}}\n",
                collector.total_dropped());
  out += buf;
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const TraceCollector& collector) {
  return write_text(path, to_chrome_json(collector));
}


}  // namespace scent::telemetry
