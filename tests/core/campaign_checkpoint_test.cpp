// Checkpoint chains a campaign must not trust (§5f): a corrupt manifest, a
// corrupt snapshot or a foreign seed is discarded and the campaign starts
// fresh. The resume lattice itself — killed after day K, mid-day or not,
// and resumed ≡ uninterrupted at any thread count, chain bytes included —
// is in tests/lattice/.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/campaign.h"
#include "corpus/checkpoint.h"
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

}  // namespace
}  // namespace scent::core
