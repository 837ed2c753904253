// Tests for the MAC-keyed spill-run format (corpus/keyed_run.h): roundtrip
// fidelity, key ranges and block-stat skipping. The corruption matrix it
// shares with the geo feed is in block_file_test.cpp. Suite names start
// with "Join" so the TSan leg of scripts/check.sh picks them up via
// `ctest -R '^(Engine|Pipeline|Serve|Join)'`.

#include "corpus/keyed_run.h"

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace scent::corpus {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* tag) {
    path = std::string{::testing::TempDir()} + "/scent_krun_" + tag + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".krun";
  }
  ~TempFile() { std::remove(path.c_str()); }
};

std::vector<KeyedRecord> sample_records(std::size_t count,
                                        std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<KeyedRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    records.push_back(KeyedRecord{.key = rng.next(),
                                  .c0 = rng.next(),
                                  .c1 = rng.below(1 << 20),
                                  .c2 = rng.below(365)});
  }
  return records;
}

void write_records(const std::string& path,
                   const std::vector<KeyedRecord>& records,
                   std::size_t block_elements) {
  std::vector<unsigned char> scratch;
  KeyedRunWriter writer{scratch, block_elements};
  ASSERT_TRUE(writer.open(path));
  for (const KeyedRecord& r : records) writer.append(r);
  ASSERT_TRUE(writer.finish());
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The join's writers share one scratch per shard and flush in any
// interleaving; each run must come out as if its writer had been alone.
TEST(JoinKeyedRun, WritersSharingAScratchMatchLoneWriters) {
  const auto first = sample_records(700, 11);
  const auto second = sample_records(500, 12);
  TempFile lone_first{"lone1"};
  TempFile lone_second{"lone2"};
  write_records(lone_first.path, first, 48);
  write_records(lone_second.path, second, 48);

  TempFile shared_first{"shared1"};
  TempFile shared_second{"shared2"};
  std::vector<unsigned char> scratch;
  KeyedRunWriter a{scratch, 48};
  KeyedRunWriter b{scratch, 48};
  ASSERT_TRUE(a.open(shared_first.path));
  ASSERT_TRUE(b.open(shared_second.path));
  for (std::size_t i = 0; i < first.size(); ++i) {
    a.append(first[i]);
    if (i < second.size()) b.append(second[i]);
  }
  ASSERT_TRUE(b.finish());
  ASSERT_TRUE(a.finish());

  EXPECT_EQ(read_bytes(shared_first.path), read_bytes(lone_first.path));
  EXPECT_EQ(read_bytes(shared_second.path), read_bytes(lone_second.path));
}

TEST(JoinKeyedRun, RoundTripAcrossBlocks) {
  const auto records = sample_records(1000, 42);
  TempFile file{"roundtrip"};
  write_records(file.path, records, 64);

  KeyedRunReader reader;
  ASSERT_TRUE(reader.open(file.path));
  EXPECT_EQ(reader.records(), records.size());
  EXPECT_EQ(reader.blocks(), (records.size() + 63) / 64);

  std::vector<KeyedRecord> got;
  ASSERT_TRUE(reader.for_each(
      [&](const KeyedRecord& r) { got.push_back(r); }));
  EXPECT_EQ(got, records);
  EXPECT_EQ(reader.blocks_read(), reader.blocks());
  EXPECT_EQ(reader.blocks_skipped(), 0u);
}

TEST(JoinKeyedRun, KeyRangeMatchesContents) {
  const auto records = sample_records(300, 7);
  std::uint64_t lo = records.front().key;
  std::uint64_t hi = records.front().key;
  for (const KeyedRecord& r : records) {
    lo = std::min(lo, r.key);
    hi = std::max(hi, r.key);
  }
  TempFile file{"range"};
  write_records(file.path, records, 32);

  KeyedRunReader reader;
  ASSERT_TRUE(reader.open(file.path));
  const auto range = reader.key_range();
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, lo);
  EXPECT_EQ(range->second, hi);
}

TEST(JoinKeyedRun, WindowScanSkipsDisjointBlocks) {
  // Ascending keys 0..999 in 16-element blocks: a window of [100, 199]
  // touches at most 8 of the 63 blocks; the rest must never be read.
  std::vector<KeyedRecord> records;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    records.push_back(KeyedRecord{.key = i, .c0 = i * 3, .c1 = 0, .c2 = i});
  }
  TempFile file{"window"};
  write_records(file.path, records, 16);

  KeyedRunReader reader;
  ASSERT_TRUE(reader.open(file.path));
  std::vector<KeyedRecord> got;
  ASSERT_TRUE(reader.for_each_overlapping(
      100, 199, [&](const KeyedRecord& r) { got.push_back(r); }));
  ASSERT_EQ(got.size(), 100u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, 100 + i);
  }
  EXPECT_GT(reader.blocks_skipped(), 0u);
  EXPECT_LE(reader.blocks_read(), 8u);
  EXPECT_EQ(reader.blocks_read() + reader.blocks_skipped(), reader.blocks());
}

TEST(JoinKeyedRun, EmptyRunRoundTrips) {
  TempFile file{"empty"};
  {
    std::vector<unsigned char> scratch;
    KeyedRunWriter writer{scratch};
    ASSERT_TRUE(writer.open(file.path));
    ASSERT_TRUE(writer.finish());
  }
  KeyedRunReader reader;
  ASSERT_TRUE(reader.open(file.path));
  EXPECT_EQ(reader.records(), 0u);
  EXPECT_EQ(reader.blocks(), 0u);
  EXPECT_FALSE(reader.key_range().has_value());
  std::size_t seen = 0;
  ASSERT_TRUE(reader.for_each([&](const KeyedRecord&) { ++seen; }));
  EXPECT_EQ(seen, 0u);
}

}  // namespace
}  // namespace scent::corpus
