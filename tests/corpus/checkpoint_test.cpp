// Tests for the campaign checkpoint manifest: round trips, atomic-save
// hygiene, and rejection of missing/truncated/mangled manifests.
#include "corpus/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "test_util.h"

namespace scent::corpus {
namespace {

using test::TempDir;

CampaignCheckpoint make_checkpoint() {
  CampaignCheckpoint c;
  c.seed = 0xC4A1DEADBEEFULL;
  c.first_day = 20645;
  c.scan_time_of_day = sim::hours(10);
  c.allocation_granularity_after_day0 = false;
  c.targets_digest = 0x0123456789abcdefULL;
  c.allocation_length_by_as[65001] = 56;
  c.allocation_length_by_as[65002] = 60;
  c.allocation_length_by_as[65101] = 64;
  for (int d = 0; d < 3; ++d) {
    CheckpointDay day;
    day.day = c.first_day + d;
    day.probes = 262144 + d;
    day.responses = 196608 + d;
    day.unique_eui64_iids = 48;
    day.rows = 196608 + d;
    day.clock_us = sim::days(d) + sim::hours(11);
    day.snapshot_file = snapshot_file_name(static_cast<std::size_t>(d));
    c.days.push_back(day);
  }
  return c;
}

std::string read_text(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::trunc};
  out << text;
}

TEST(Checkpoint, SnapshotFileNamesAreZeroPadded) {
  EXPECT_EQ(snapshot_file_name(0), "day_0000.snap");
  EXPECT_EQ(snapshot_file_name(7), "day_0007.snap");
  EXPECT_EQ(snapshot_file_name(1234), "day_1234.snap");
}

TEST(Checkpoint, RoundTripPreservesEveryField) {
  TempDir dir{"roundtrip"};
  const auto saved = make_checkpoint();
  ASSERT_TRUE(save_checkpoint(dir.path, saved));

  const auto loaded = load_checkpoint(dir.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, kCheckpointFormatVersion);
  EXPECT_EQ(loaded->seed, saved.seed);
  EXPECT_EQ(loaded->first_day, saved.first_day);
  EXPECT_EQ(loaded->scan_time_of_day, saved.scan_time_of_day);
  EXPECT_EQ(loaded->allocation_granularity_after_day0,
            saved.allocation_granularity_after_day0);
  EXPECT_EQ(loaded->targets_digest, saved.targets_digest);
  EXPECT_EQ(loaded->allocation_length_by_as, saved.allocation_length_by_as);
  ASSERT_EQ(loaded->days.size(), saved.days.size());
  for (std::size_t i = 0; i < saved.days.size(); ++i) {
    EXPECT_EQ(loaded->days[i].day, saved.days[i].day);
    EXPECT_EQ(loaded->days[i].probes, saved.days[i].probes);
    EXPECT_EQ(loaded->days[i].responses, saved.days[i].responses);
    EXPECT_EQ(loaded->days[i].unique_eui64_iids,
              saved.days[i].unique_eui64_iids);
    EXPECT_EQ(loaded->days[i].rows, saved.days[i].rows);
    EXPECT_EQ(loaded->days[i].clock_us, saved.days[i].clock_us);
    EXPECT_EQ(loaded->days[i].snapshot_file, saved.days[i].snapshot_file);
  }
}

TEST(Checkpoint, SaveIsAtomicAndLeavesNoTempFile) {
  TempDir dir{"atomic"};
  ASSERT_TRUE(save_checkpoint(dir.path, make_checkpoint()));
  // Overwrite with a different checkpoint: the manifest is replaced whole.
  auto extended = make_checkpoint();
  extended.days.push_back(extended.days.back());
  extended.days.back().day += 1;
  ASSERT_TRUE(save_checkpoint(dir.path, extended));

  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    ++entries;
    EXPECT_EQ(entry.path().filename(), "manifest.txt");
  }
  EXPECT_EQ(entries, 1u);
  const auto loaded = load_checkpoint(dir.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->days.size(), 4u);
}

TEST(Checkpoint, SaveToMissingDirectoryFails) {
  EXPECT_FALSE(save_checkpoint("/nonexistent/dir", make_checkpoint()));
}

TEST(Checkpoint, MissingManifestIsNullopt) {
  TempDir dir{"missing"};
  EXPECT_FALSE(load_checkpoint(dir.path).has_value());
}

TEST(Checkpoint, TruncatedManifestRejected) {
  TempDir dir{"trunc"};
  ASSERT_TRUE(save_checkpoint(dir.path, make_checkpoint()));
  const std::string text = read_text(manifest_path(dir.path));

  // Drop the trailing "end <count>" marker — a crash mid-write would look
  // like this if saves were not atomic.
  const auto end_pos = text.rfind("end ");
  ASSERT_NE(end_pos, std::string::npos);
  write_text(manifest_path(dir.path), text.substr(0, end_pos));
  EXPECT_FALSE(load_checkpoint(dir.path).has_value());

  // Cutting mid-line loses a day and makes the count mismatch.
  const auto day_pos = text.rfind("day ");
  ASSERT_NE(day_pos, std::string::npos);
  write_text(manifest_path(dir.path), text.substr(0, day_pos + 6));
  EXPECT_FALSE(load_checkpoint(dir.path).has_value());
}

TEST(Checkpoint, DayCountMismatchRejected) {
  TempDir dir{"count"};
  ASSERT_TRUE(save_checkpoint(dir.path, make_checkpoint()));
  std::string text = read_text(manifest_path(dir.path));
  const auto pos = text.rfind("end 3");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "end 7");
  write_text(manifest_path(dir.path), text);
  EXPECT_FALSE(load_checkpoint(dir.path).has_value());
}

TEST(Checkpoint, MalformedValuesRejected) {
  TempDir dir{"mangled"};
  ASSERT_TRUE(save_checkpoint(dir.path, make_checkpoint()));
  const std::string text = read_text(manifest_path(dir.path));

  {
    std::string mangled = text;
    const auto pos = mangled.find("seed ");
    ASSERT_NE(pos, std::string::npos);
    mangled.replace(pos, 5, "seed x");
    write_text(manifest_path(dir.path), mangled);
    EXPECT_FALSE(load_checkpoint(dir.path).has_value());
  }
  {
    // A day line with too few fields is skipped as unknown arity, which
    // then trips the "end <count>" chain-length check.
    std::string mangled = text;
    const auto pos = mangled.find("\nday ") + 1;  // line start, not first_day
    ASSERT_NE(pos, std::string::npos + 1);
    const auto eol = mangled.find('\n', pos);
    mangled.replace(pos, eol - pos, "day 1 2 3");
    write_text(manifest_path(dir.path), mangled);
    EXPECT_FALSE(load_checkpoint(dir.path).has_value());
  }
  {
    std::string mangled = text;
    const auto pos = mangled.find("version ");
    ASSERT_NE(pos, std::string::npos);
    const auto eol = mangled.find('\n', pos);
    mangled.replace(pos, eol - pos, "version 99");
    write_text(manifest_path(dir.path), mangled);
    EXPECT_FALSE(load_checkpoint(dir.path).has_value());
  }
}

TEST(Checkpoint, UnknownKeysAndCommentsTolerated) {
  TempDir dir{"forward"};
  ASSERT_TRUE(save_checkpoint(dir.path, make_checkpoint()));
  std::string text = read_text(manifest_path(dir.path));
  text.insert(0, "# a comment line\nfuture_knob 42\n\n");
  write_text(manifest_path(dir.path), text);
  const auto loaded = load_checkpoint(dir.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->days.size(), 3u);
  EXPECT_EQ(loaded->seed, 0xC4A1DEADBEEFULL);
}

TEST(Checkpoint, EmptyDayListRoundTrips) {
  TempDir dir{"nodays"};
  CampaignCheckpoint c;
  c.seed = 7;
  c.scan_time_of_day = sim::hours(9);
  ASSERT_TRUE(save_checkpoint(dir.path, c));
  const auto loaded = load_checkpoint(dir.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->days.empty());
  EXPECT_TRUE(loaded->allocation_length_by_as.empty());
  EXPECT_EQ(loaded->seed, 7u);
}

}  // namespace
}  // namespace scent::corpus
