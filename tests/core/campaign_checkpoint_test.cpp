// Checkpoint chains a campaign must not trust (§5f): a corrupt manifest, a
// corrupt snapshot, a snapshot of an older format version or a foreign seed
// is discarded and the campaign starts fresh. The resume lattice itself — killed after day K, mid-day or not,
// and resumed ≡ uninterrupted at any thread count, chain bytes included —
// is in tests/lattice/. Also: the per-day response counts of a fresh or
// resumed campaign give the day row ranges its rotation windows cover.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "core/campaign.h"
#include "corpus/checkpoint.h"
#include "corpus/snapshot.h"
#include "corpus/snapshot_layout.h"
#include "lattice.h"

namespace scent::core {
namespace {

using lattice::same;

lattice::World tiny_world(std::size_t days) {
  return lattice::World{
      .kind = lattice::Kind::kTiny, .seed = 0xCA0, .days = days};
}

/// A fresh process's checkpointed run of `days` days over the tiny world.
CampaignResult run(std::size_t days, const std::string& dir) {
  return lattice::Process{tiny_world(days), 1}.campaign(days, 1, dir);
}

/// What a fresh, checkpoint-free campaign of `days` days produces.
lattice::Form fresh(std::size_t days) {
  return lattice::campaign_form(run(days, ""));
}

TEST(CampaignCheckpoint, CorruptManifestStartsFresh) {
  test::TempDir dir{"badmanifest"};
  {
    std::FILE* f = std::fopen(corpus::manifest_path(dir.path).c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a manifest\n", f);
    std::fclose(f);
  }
  const CampaignResult result = run(2, dir.path);
  EXPECT_EQ(result.resumed_days, 0u);
  ASSERT_TRUE(result.checkpoint_ok);
  EXPECT_TRUE(same(fresh(2), lattice::campaign_form(result)));
  // The rewritten chain is valid again.
  const auto reloaded = corpus::load_checkpoint(dir.path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->days.size(), 2u);
}

TEST(CampaignCheckpoint, CorruptSnapshotChainStartsFresh) {
  test::TempDir dir{"badsnap"};
  (void)run(2, dir.path);

  // Flip one byte inside day 0's snapshot; the manifest still parses, but
  // replay must reject the chain and start over.
  {
    std::FILE* f =
        std::fopen(dir.file(corpus::snapshot_file_name(0)).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
    std::fputc(byte ^ 0x10, f);
    std::fclose(f);
  }
  const CampaignResult result = run(3, dir.path);
  EXPECT_EQ(result.resumed_days, 0u);
  EXPECT_TRUE(same(fresh(3), lattice::campaign_form(result)));
}

TEST(CampaignCheckpoint, OlderFormatSnapshotChainStartsFresh) {
  // A chain written before the current snapshot format: day 1's rows in
  // the format-3 container, blocks and CRCs intact. Replay refuses it as an
  // unsupported version, and the campaign sweeps every day again.
  test::TempDir dir{"oldsnap"};
  (void)run(2, dir.path);
  {
    const std::string path = dir.file(corpus::snapshot_file_name(1));
    std::vector<unsigned char> bytes;
    {
      std::ifstream in{path, std::ios::binary};
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), corpus::layout::kHeaderBytes);
    ASSERT_EQ(corpus::layout::get_u32(bytes, 12),
              corpus::kSnapshotFormatVersion);
    const std::vector<unsigned char> old = corpus::layout::as_format3(bytes);
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(old.data()),
              static_cast<std::streamsize>(old.size()));
    ASSERT_TRUE(out.good());
  }
  corpus::SnapshotReader reader;
  EXPECT_FALSE(reader.open(dir.file(corpus::snapshot_file_name(1))));
  EXPECT_EQ(reader.error(), corpus::FileError::kBadVersion);
  const CampaignResult result = run(3, dir.path);
  EXPECT_EQ(result.resumed_days, 0u);
  EXPECT_TRUE(same(fresh(3), lattice::campaign_form(result)));
}

TEST(CampaignCheckpoint, DifferentSeedDiscardsTheCheckpoint) {
  test::TempDir dir{"seed"};
  (void)run(2, dir.path);
  lattice::Process second{tiny_world(2), 1};
  CampaignOptions options;
  options.days = 2;
  options.seed = 0xD1FF;
  options.checkpoint_dir = dir.path;
  const CampaignResult result = run_campaign(
      second.world.internet, second.clock, second.prober, second.targets,
      options);
  EXPECT_EQ(result.resumed_days, 0u);
  EXPECT_EQ(result.daily.size(), 2u);
}

// The rotation windows of a campaign's last two days, as a serve reader
// (examples/serve_tracker.cpp) builds them: the per-day response counts
// partition the corpus into day row ranges, and record_rows over the last
// two gives what the analysis engine's window snapshots give over the
// same ranges — the same pair fresh or resumed, at 1 or 4 threads.
TEST(RotationWindow, CampaignDayRangesMatchAnalysisWindows) {
  constexpr std::size_t kDays = 4;
  const lattice::World world{
      .kind = lattice::Kind::kTiny, .seed = 0x5EE, .days = kDays};
  std::vector<core::Snapshot::Map> reference;
  for (const unsigned threads : {1u, 4u}) {
    for (const bool resumed : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << threads << " threads, resumed=" << resumed);
      const test::TempDir dir{"windows"};
      if (resumed) {
        (void)lattice::Process{world, threads}.campaign(kDays / 2, threads,
                                                        dir.path);
      }
      lattice::Process process{world, threads};
      const core::CampaignResult result =
          process.campaign(kDays, threads, dir.path);
      EXPECT_EQ(result.resumed_days, resumed ? kDays / 2 : 0u);
      ASSERT_EQ(result.daily.size(), kDays);

      std::vector<analysis::RowWindow> days;
      std::size_t begin = 0;
      for (const core::DaySummary& day : result.daily) {
        days.push_back({begin, begin + day.responses});
        begin += day.responses;
      }
      ASSERT_EQ(begin, result.observations.size());

      analysis::AnalysisOptions options;
      options.threads = threads;
      options.windows = {days[kDays - 2], days[kDays - 1]};
      const analysis::AggregateTable table = analysis::analyze(
          result.observations, &process.world.internet.bgp(), options);
      ASSERT_EQ(table.window_snapshots.size(), 2u);

      std::vector<core::Snapshot::Map> maps;
      for (std::size_t w = 0; w < 2; ++w) {
        const analysis::RowWindow& range = options.windows[w];
        const std::size_t rows = range.end - range.begin;
        core::Snapshot window;
        window.record_rows(
            result.observations.target_column().subspan(range.begin, rows),
            result.observations.response_column().subspan(range.begin, rows));
        EXPECT_FALSE(window.map().empty());
        EXPECT_EQ(window.map(), table.window_snapshots[w].map());
        maps.push_back(window.map());
      }
      if (reference.empty()) {
        reference = std::move(maps);
      } else {
        EXPECT_EQ(maps, reference);
      }
    }
  }
}

}  // namespace
}  // namespace scent::core
