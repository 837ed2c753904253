// Exporter output shape: the registry JSON (counters, gauges, sketches and
// the span tree with per-path duration quantiles), the Chrome trace-event
// JSON, and I/O failure reporting of both file writers.
#include "telemetry/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::telemetry {
namespace {

/// A registry whose every value is deterministic: span slots are filled by
/// hand instead of by timing real work.
void fill(Registry& reg) {
  reg.counter("probe.sent").add(3);
  reg.gauge("campaign.days").set(-2);
  reg.sketch("tracker.probes_per_attempt").observe(1);
  reg.sketch("tracker.probes_per_attempt").observe(100);
  reg.span_child("campaign").record(1000, 5);
}

TEST(Export, RegistryJsonCarriesSketchesAndSpanQuantiles) {
  Registry reg;
  fill(reg);
  const std::string json = to_json(reg);
  EXPECT_EQ(json,
            "{\"counters\":{\"probe.sent\":3},"
            "\"gauges\":{\"campaign.days\":-2},"
            "\"sketches\":{\"tracker.probes_per_attempt\":{\"count\":2,"
            "\"sum\":101,\"min\":1,\"max\":100,\"p50\":100,\"p90\":100,"
            "\"p99\":100,\"p999\":100}},"
            "\"spans\":[{\"path\":\"campaign\",\"depth\":0,\"virtual_us\":5,"
            "\"wall_ns\":{\"count\":1,\"sum\":1000,\"min\":1000,"
            "\"max\":1000,\"p50\":1000,\"p90\":1000,\"p99\":1000,"
            "\"p999\":1000}}]}");
  EXPECT_EQ(json.find("histograms"), std::string::npos);
}

TEST(Export, EmptyRegistryJsonHasEverySection) {
  const Registry reg;
  EXPECT_EQ(to_json(reg),
            "{\"counters\":{},\"gauges\":{},\"sketches\":{},\"spans\":[]}");
}

TEST(Export, ChromeJsonRendersLanesEventsAndDropCount) {
  TraceCollector collector;
  collector.append("campaign",
                   TraceEvent{"campaign.day", EventType::kBegin, 1000, 7, 0});
  collector.append("campaign",
                   TraceEvent{"campaign.day", EventType::kEnd, 3500, 9, 0});
  collector.append("campaign",
                   TraceEvent{"rows", EventType::kCounter, 4000, 9, 42});
  EXPECT_EQ(to_chrome_json(collector),
            "{\"traceEvents\":[\n"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
            "\"tid\":0,\"args\":{\"name\":\"scent\"}},\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
            "\"tid\":1,\"args\":{\"name\":\"campaign\"}},\n"
            "{\"name\":\"campaign.day\",\"ph\":\"B\",\"ts\":0.000,\"pid\":1,"
            "\"tid\":1,\"args\":{\"virtual_us\":7}},\n"
            "{\"name\":\"campaign.day\",\"ph\":\"E\",\"ts\":2.500,\"pid\":1,"
            "\"tid\":1,\"args\":{\"virtual_us\":9}},\n"
            "{\"name\":\"rows\",\"ph\":\"C\",\"ts\":3.000,\"pid\":1,"
            "\"tid\":1,\"args\":{\"value\":42,\"virtual_us\":9}}\n"
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
            "\"dropped_events\":0}}\n");
}

TEST(Export, ChromeJsonSurfacesRingOverflow) {
  TraceCollector collector{2};
  TraceRecorder recorder{collector.recorder_capacity()};
  for (int i = 0; i < 5; ++i) recorder.instant("tick");
  collector.drain("shard", recorder);
  const std::string json = to_chrome_json(collector);
  EXPECT_NE(json.find("{\"name\":\"trace.dropped\",\"ph\":\"C\""),
            std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"dropped_events\":3}"),
            std::string::npos);
}

#ifdef __linux__
TEST(Export, WritersReportDiskFull) {
  // /dev/full accepts the open and buffered writes but fails the flush at
  // close — both writers must report it.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full not available";
  std::fclose(probe);

  Registry reg;
  fill(reg);
  EXPECT_FALSE(write_json("/dev/full", reg));
  TraceCollector collector;
  collector.append("lane", TraceEvent{"e", EventType::kInstant, 1, 0, 0});
  EXPECT_FALSE(write_chrome_trace("/dev/full", collector));
}
#endif

TEST(Export, WritersReportOpenFailure) {
  const Registry reg;
  EXPECT_FALSE(write_json("/nonexistent_dir_zzz/telemetry.json", reg));
  const TraceCollector collector;
  EXPECT_FALSE(write_chrome_trace("/nonexistent_dir_zzz/trace.json",
                                  collector));
}

TEST(Export, WritersRoundTripToDisk) {
  const std::string path =
      std::string{::testing::TempDir()} + "/scent_export_roundtrip.json";
  Registry reg;
  fill(reg);
  ASSERT_TRUE(write_json(path, reg));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[256];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(text, to_json(reg) + "\n");
}

}  // namespace
}  // namespace scent::telemetry
