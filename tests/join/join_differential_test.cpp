// Differential correctness for the partitioned join engine: the naive
// hash-join oracle (join/naive.h) defines the answer; the engine must
// reproduce it byte for byte across the full matrix of thread counts,
// partition fan-outs, spill modes and seeds — including one-side-only
// MACs, the same MAC surfacing behind multiple ASes, and partitions that
// end up empty. Suite names start with "Join" for the TSan leg.

#include "join/join.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/observation.h"
#include "corpus/geo_feed.h"
#include "corpus/snapshot.h"
#include "join/naive.h"
#include "netbase/eui64.h"
#include "routing/bgp_table.h"
#include "sim/geo_feed.h"
#include "sim/rng.h"

namespace scent::join {
namespace {

constexpr std::uint64_t kFleetOui = 0x3810d5;
constexpr std::uint64_t kAlienOui = 0xf4f26d;
constexpr std::uint64_t kProviderA = 0x20010db8ULL << 32;
constexpr std::uint64_t kProviderB = 0x20014860ULL << 32;

struct TempDir {
  std::string path;
  explicit TempDir(const char* tag) {
    path = std::string{::testing::TempDir()} + "/scent_join_" + tag + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return path + "/" + name;
  }
};

routing::BgpTable make_bgp() {
  routing::BgpTable bgp;
  bgp.announce(routing::Advertisement{
      net::Prefix(net::Ipv6Address{kProviderA, 0}, 32), 65000, "DE", "A"});
  bgp.announce(routing::Advertisement{
      net::Prefix(net::Ipv6Address{kProviderB, 0}, 32), 65001, "DE", "B"});
  return bgp;
}

/// A randomized corpus world: `days` snapshot files whose devices draw
/// serials from a small pool (so MACs repeat across days), answer from
/// daily-rotated /64s, and sit behind either provider — some devices
/// behind both across the campaign (cross-AS duplicates). Roughly half
/// the serial pool overlaps the geo feed; the rest is corpus-only.
std::vector<CorpusDayFile> make_corpus(const TempDir& dir, std::uint64_t seed,
                                       std::int64_t days,
                                       std::size_t rows_per_day) {
  sim::Rng rng{seed};
  std::vector<CorpusDayFile> files;
  for (std::int64_t day = 0; day < days; ++day) {
    core::ObservationStore store;
    for (std::size_t i = 0; i < rows_per_day; ++i) {
      const std::uint64_t serial = rng.below(400);
      const std::uint64_t mac = (kFleetOui << 24) | serial;
      const std::uint64_t base = rng.chance(0.25) ? kProviderB : kProviderA;
      const std::uint64_t network =
          base | (sim::mix64(serial, static_cast<std::uint64_t>(day)) &
                  0xffffff) << 8;
      core::Observation obs;
      obs.target = net::Ipv6Address{network, 1};
      obs.response =
          net::Ipv6Address{network, net::mac_to_eui64(net::MacAddress{mac})};
      obs.type = wire::Icmpv6Type::kEchoReply;
      obs.code = 0;
      obs.time = static_cast<sim::TimePoint>(
          static_cast<std::uint64_t>(day) * 86400000000ULL + i);
      store.add(obs);
    }
    corpus::SnapshotWriter writer;
    writer.append(store);
    CorpusDayFile file;
    file.path = dir.file("day_" + std::to_string(day) + ".snap");
    file.day = day;
    EXPECT_TRUE(writer.write(file.path));
    files.push_back(file);
  }
  return files;
}

/// A feed overlapping serials [0, 200) of the fleet OUI (half the corpus
/// pool — the other half is corpus-only) plus an alien OUI the corpus
/// never saw (feed-only MACs).
std::string make_feed(const TempDir& dir, std::uint64_t seed,
                      std::size_t block_elements = 64) {
  sim::GeoFeedSpec spec;
  spec.seed = seed;
  spec.ouis = {static_cast<std::uint32_t>(kFleetOui),
               static_cast<std::uint32_t>(kAlienOui)};
  spec.devices_per_oui = 200;
  spec.first_day = 0;
  spec.last_day = 10;
  const sim::GeoFeedGenerator generator{spec};
  const std::string path = dir.file("feed_" + std::to_string(seed) + ".gfd");
  corpus::GeoFeedWriter writer{block_elements};
  EXPECT_TRUE(writer.open(path));
  for (std::uint64_t i = 0; i < generator.records(); ++i) {
    writer.append(generator.record(i));
  }
  EXPECT_TRUE(writer.finish());
  return path;
}

void expect_tables_equal(const analysis::DossierTable& got,
                         const analysis::DossierTable& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.rows()[i], want.rows()[i])
        << label << " first mismatch at dossier " << i << " mac "
        << got.rows()[i].mac.to_string();
  }
}

TEST(JoinDifferential, MatchesOracleAcrossThreadsPartitionsAndSpill) {
  const routing::BgpTable bgp = make_bgp();
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    TempDir dir{"matrix"};
    const auto corpus_files = make_corpus(dir, seed, 4, 600);
    const auto feed = make_feed(dir, seed);

    NaiveJoinInputs inputs;
    inputs.corpus_files = corpus_files;
    inputs.geo_feeds = {feed};
    inputs.bgp = &bgp;
    const auto oracle = naive_join(inputs);
    ASSERT_TRUE(oracle.has_value());
    ASSERT_GT(oracle->size(), 0u);

    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      for (const unsigned partitions : {1u, 4u, 16u}) {
        for (const bool spill : {false, true}) {
          JoinOptions options;
          options.threads = threads;
          options.partitions = partitions;
          if (spill) {
            options.spill_dir = dir.file(
                "spill_t" + std::to_string(threads) + "_p" +
                std::to_string(partitions));
            options.spill_block_elements = 32;
          }
          options.bgp = &bgp;
          DossierJoin engine{options};
          for (const CorpusDayFile& file : corpus_files) {
            engine.add_corpus_day(file.path, file.day);
          }
          engine.add_geo_feed(feed);
          const auto table = engine.run_table();
          const std::string label =
              "seed=" + std::to_string(seed) +
              " threads=" + std::to_string(threads) +
              " partitions=" + std::to_string(partitions) +
              (spill ? " spill" : " memory");
          ASSERT_TRUE(table.has_value()) << label;
          expect_tables_equal(*table, *oracle, label);
          EXPECT_EQ(engine.stats().dossiers, oracle->size()) << label;
        }
      }
    }
  }
}

TEST(JoinDifferential, DayWindowPrunesFilesAndMatchesOracle) {
  const routing::BgpTable bgp = make_bgp();
  TempDir dir{"window"};
  const auto corpus_files = make_corpus(dir, 5, 6, 300);
  const auto feed = make_feed(dir, 5);

  DayWindow window;
  window.first_day = 2;
  window.last_day = 4;

  NaiveJoinInputs inputs;
  inputs.corpus_files = corpus_files;
  inputs.geo_feeds = {feed};
  inputs.window = window;
  inputs.bgp = &bgp;
  const auto oracle = naive_join(inputs);
  ASSERT_TRUE(oracle.has_value());

  JoinOptions options;
  options.threads = 4;
  options.partitions = 4;
  options.spill_dir = dir.file("spill");
  options.window = window;
  options.bgp = &bgp;
  DossierJoin engine{options};
  for (const CorpusDayFile& file : corpus_files) {
    engine.add_corpus_day(file.path, file.day);
  }
  engine.add_geo_feed(feed);
  const auto table = engine.run_table();
  ASSERT_TRUE(table.has_value());
  expect_tables_equal(*table, *oracle, "window");
  EXPECT_EQ(engine.stats().corpus_files_pruned, 3u);  // days 0, 1, 5
  for (const analysis::DeviceDossier& d : table->rows()) {
    for (const analysis::DossierSighting& s : d.sightings) {
      EXPECT_GE(s.day, 2);
      EXPECT_LE(s.day, 4);
    }
  }
}

TEST(JoinDifferential, DisjointFeedBlocksArePruned) {
  // Small spill blocks + an alien OUI band sorted after the fleet band:
  // the merge phase must skip the alien blocks by stats alone, and still
  // match the oracle exactly.
  const routing::BgpTable bgp = make_bgp();
  TempDir dir{"prune"};
  const auto corpus_files = make_corpus(dir, 7, 3, 400);
  const auto feed = make_feed(dir, 7, 32);

  NaiveJoinInputs inputs;
  inputs.corpus_files = corpus_files;
  inputs.geo_feeds = {feed};
  inputs.bgp = &bgp;
  const auto oracle = naive_join(inputs);
  ASSERT_TRUE(oracle.has_value());

  JoinOptions options;
  options.threads = 2;
  options.partitions = 4;
  options.spill_dir = dir.file("spill");
  options.spill_block_elements = 16;
  options.bgp = &bgp;
  DossierJoin engine{options};
  for (const CorpusDayFile& file : corpus_files) {
    engine.add_corpus_day(file.path, file.day);
  }
  engine.add_geo_feed(feed);
  const auto table = engine.run_table();
  ASSERT_TRUE(table.has_value());
  expect_tables_equal(*table, *oracle, "prune");
  EXPECT_GT(engine.stats().blocks_pruned, 0u);
  EXPECT_GT(engine.stats().spill_bytes, 0u);
  EXPECT_GT(engine.stats().spill_runs, 0u);
}

TEST(JoinDifferential, MorePartitionsThanMacsLeavesEmptyPartitions) {
  const routing::BgpTable bgp = make_bgp();
  TempDir dir{"sparse"};
  // Two devices, 64 partitions: most partitions hold nothing.
  core::ObservationStore store;
  for (const std::uint64_t serial : {1ULL, 2ULL}) {
    const std::uint64_t network = kProviderA | (serial << 16);
    core::Observation obs;
    obs.target = net::Ipv6Address{network, 1};
    obs.response = net::Ipv6Address{
        network,
        net::mac_to_eui64(net::MacAddress{(kFleetOui << 24) | serial})};
    obs.type = wire::Icmpv6Type::kEchoReply;
    obs.code = 0;
    obs.time = static_cast<sim::TimePoint>(serial);
    store.add(obs);
  }
  corpus::SnapshotWriter writer;
  writer.append(store);
  const std::string snap = dir.file("day0.snap");
  ASSERT_TRUE(writer.write(snap));
  const auto feed = make_feed(dir, 11);

  NaiveJoinInputs inputs;
  inputs.corpus_files = {{snap, 0}};
  inputs.geo_feeds = {feed};
  inputs.bgp = &bgp;
  const auto oracle = naive_join(inputs);
  ASSERT_TRUE(oracle.has_value());
  ASSERT_EQ(oracle->size(), 2u);

  for (const bool spill : {false, true}) {
    JoinOptions options;
    options.threads = 8;
    options.partitions = 64;
    if (spill) options.spill_dir = dir.file("spill");
    options.bgp = &bgp;
    DossierJoin engine{options};
    engine.add_corpus_day(snap, 0);
    engine.add_geo_feed(feed);
    const auto table = engine.run_table();
    ASSERT_TRUE(table.has_value());
    expect_tables_equal(*table, *oracle, spill ? "sparse-spill" : "sparse");
  }
}

TEST(JoinDifferential, EmptyInputsYieldEmptyTable) {
  TempDir dir{"empty"};
  // Feed-only world: no corpus files registered at all.
  const auto feed = make_feed(dir, 13);
  JoinOptions options;
  options.partitions = 8;
  options.spill_dir = dir.file("spill");
  DossierJoin engine{options};
  engine.add_geo_feed(feed);
  const auto table = engine.run_table();
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->size(), 0u);
  EXPECT_GT(engine.stats().geo_rows, 0u);

  // And a fully empty join.
  DossierJoin nothing{JoinOptions{}};
  const auto empty = nothing.run_table();
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->size(), 0u);
}

TEST(JoinDifferential, RunIsSingleShot) {
  DossierJoin engine{JoinOptions{}};
  ASSERT_TRUE(engine.run_table().has_value());
  analysis::DossierTable table;
  EXPECT_FALSE(engine.run(table));
}

}  // namespace
}  // namespace scent::join
