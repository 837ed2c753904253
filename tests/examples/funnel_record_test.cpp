// Tests for the paper chain's funnel record (bench/bench_util.h): the file
// the funnel benches load instead of re-running the §4 funnel. A record
// must round-trip every field, and a truncated file, a file missing one
// prefix line, or a record from another world must be rejected, so the
// bench rebuilds the chain instead of probing a shorter or stale /48 list.

#include "bench_util.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace scent::bench {
namespace {

struct RecordFile {
  std::string path;
  RecordFile() {
    path = std::string{::testing::TempDir()} + "/scent_funnel_record_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".txt";
  }
  ~RecordFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }

  [[nodiscard]] std::string read() const {
    std::ifstream in{path};
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }
  void write(const std::string& text) const { std::ofstream{path} << text; }
};

FunnelRecord sample_record() {
  FunnelRecord record;
  record.world_key = Pipeline::world_key();
  record.clock_us = 122400000000;
  record.probes_sent = 118132224;
  record.responses = 14190574;
  record.seed_48s = 151;
  record.expanded_48s = 142;
  record.high_density_48s = 141;
  record.total_addresses = 118576;
  record.eui64_addresses = 103280;
  record.unique_iids = 69687;
  for (const char* text :
       {"2001:16b8::/48", "2001:16b8:1::/48", "2003:e2:7f00::/48"}) {
    record.rotating_48s.push_back(*net::Prefix::parse(text));
  }
  return record;
}

TEST(FunnelRecord, RoundTripsEveryField) {
  const RecordFile file;
  const FunnelRecord record = sample_record();
  ASSERT_TRUE(save_funnel_record(file.path, record));
  EXPECT_FALSE(std::filesystem::exists(file.path + ".tmp"));

  const auto loaded = load_funnel_record(file.path, record.world_key);
  ASSERT_TRUE(loaded.has_value());
  for (const auto& [name, field] : kFunnelRecordFields) {
    EXPECT_EQ((*loaded).*field, record.*field) << name;
  }
  EXPECT_EQ(loaded->rotating_48s, record.rotating_48s);
}

TEST(FunnelRecord, RejectsATruncatedFile) {
  const RecordFile file;
  const FunnelRecord record = sample_record();
  ASSERT_TRUE(save_funnel_record(file.path, record));
  const std::string whole = file.read();
  // Cut anywhere inside the prefix list: before, inside and after the last
  // prefix line, and just before the end marker.
  const std::size_t list = whole.find("rotating_48s");
  ASSERT_NE(list, std::string::npos);
  for (std::size_t size = list; size < whole.size() - 1; ++size) {
    file.write(whole.substr(0, size));
    EXPECT_FALSE(load_funnel_record(file.path, record.world_key).has_value())
        << "truncated to " << size << " of " << whole.size() << " bytes";
  }
}

TEST(FunnelRecord, RejectsAMissingPrefixLine) {
  const RecordFile file;
  const FunnelRecord record = sample_record();
  ASSERT_TRUE(save_funnel_record(file.path, record));
  std::string text = file.read();
  const std::string line = record.rotating_48s[1].to_string() + "\n";
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  text.erase(at, line.size());
  file.write(text);
  EXPECT_FALSE(load_funnel_record(file.path, record.world_key).has_value());
}

TEST(FunnelRecord, RejectsAnotherWorld) {
  const RecordFile file;
  const FunnelRecord record = sample_record();
  ASSERT_TRUE(save_funnel_record(file.path, record));
  sim::PaperWorldOptions other;
  other.seed += 1;
  ASSERT_NE(Pipeline::world_key(other), record.world_key);
  EXPECT_FALSE(
      load_funnel_record(file.path, Pipeline::world_key(other)).has_value());
  EXPECT_TRUE(load_funnel_record(file.path, record.world_key).has_value());
}

TEST(FunnelRecord, MissingFileIsNoRecord) {
  const RecordFile file;
  EXPECT_FALSE(load_funnel_record(file.path, Pipeline::world_key()));
}

}  // namespace
}  // namespace scent::bench
