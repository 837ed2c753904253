// Join cases beside the lattice (tests/lattice/ holds the oracle matrix
// across threads, partitions and spill blocks): empty inputs, single-shot
// runs, and failing spill directories. Suite names start with "Join" for
// the TSan leg.

#include "join/join.h"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "join/source.h"
#include "lattice.h"

namespace scent::join {
namespace {

using test::TempDir;

TEST(JoinDifferential, EmptyInputsYieldEmptyTable) {
  TempDir dir{"join_empty"};
  // Feed-only world: no corpus files registered at all.
  JoinOptions options;
  options.partitions = 8;
  options.spill_dir = dir.file("spill");
  DossierJoin engine{options};
  engine.add_geo_feed(lattice::write_feed(dir, 13));
  const auto table = engine.run_table();
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->size(), 0u);
  EXPECT_GT(engine.stats().geo_rows, 0u);

  // And a fully empty join.
  JoinOptions nothing_options;
  nothing_options.spill_dir = dir.file("nothing");
  DossierJoin nothing{nothing_options};
  const auto empty = nothing.run_table();
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->size(), 0u);
}

TEST(JoinDifferential, RunIsSingleShot) {
  TempDir dir{"join_once"};
  JoinOptions options;
  options.spill_dir = dir.file("spill");
  DossierJoin engine{options};
  ASSERT_TRUE(engine.run_table().has_value());
  analysis::DossierTable table;
  EXPECT_FALSE(engine.run(table));
}

TEST(JoinDifferential, EmptySpillDirFailsRun) {
  // The spill directory is required: there is no in-memory mode.
  TempDir dir{"join_nospill"};
  DossierJoin engine{JoinOptions{}};
  engine.add_geo_feed(lattice::write_feed(dir, 17));
  analysis::DossierTable table;
  EXPECT_FALSE(engine.run(table));
  EXPECT_EQ(table.size(), 0u);
}

/// A 1-thread, 1-partition join over a small fleet whose spill run `run`
/// cannot open: a directory sits at its path, so fopen(..., "wb") fails
/// even as root. Every record of that side lands in that one run.
JoinStats run_with_blocked_spill(const std::string& run) {
  const lattice::Lattice fleet{lattice::World{
      .kind = lattice::Kind::kFleet, .seed = 3, .days = 2, .rows = 200}};
  TempDir dir{"join_failed_open"};
  JoinOptions options;
  options.threads = 1;
  options.partitions = 1;
  options.spill_dir = dir.file("spill");
  std::filesystem::create_directories(options.spill_dir + "/" + run);
  DossierJoin engine{options};
  for (const CorpusDayFile& file : fleet.fleet()) {
    engine.add_corpus_day(file.path, file.day);
  }
  engine.add_geo_feed(fleet.feed());
  analysis::DossierTable table;
  EXPECT_FALSE(engine.run(table));
  return engine.stats();
}

TEST(JoinDifferential, ScanStopsAtFirstFailedSpillOpen) {
  // The corpus run fails at the first record: nothing counted, nothing
  // spilled, and the feed is never opened.
  const JoinStats stats = run_with_blocked_spill("c-s0-p0.krun");
  EXPECT_EQ(stats.corpus_rows, 0u);
  EXPECT_EQ(stats.geo_rows, 0u);
  EXPECT_EQ(stats.blocks_read, 0u);
  EXPECT_EQ(stats.spill_runs, 0u);
  EXPECT_EQ(stats.spill_bytes, 0u);
}

TEST(JoinDifferential, FeedScanStopsAtFirstFailedSpillOpen) {
  // The corpus side spills whole; the feed's run fails at its first record,
  // and the feed scan reads no block after that record's.
  const JoinStats stats = run_with_blocked_spill("g-s0-p0.krun");
  EXPECT_GT(stats.corpus_rows, 0u);
  EXPECT_EQ(stats.geo_rows, 0u);
  EXPECT_EQ(stats.blocks_read, 1u);
  EXPECT_EQ(stats.spill_runs, 1u);
  EXPECT_GT(stats.spill_bytes, 0u);
}

TEST(JoinDifferential, CorpusScanStopsWhenTheSinkDeclines) {
  const lattice::Lattice fleet{lattice::World{
      .kind = lattice::Kind::kFleet, .seed = 3, .days = 1, .rows = 200}};
  routing::AttributionCache cache;
  std::size_t calls = 0;
  EXPECT_EQ(scan_corpus_file(fleet.fleet()[0], {}, nullptr, cache,
                             [&](const corpus::KeyedRecord&) {
                               ++calls;
                               return false;
                             }),
            ScanResult::kScanned);
  EXPECT_EQ(calls, 1u);
}

}  // namespace
}  // namespace scent::join
