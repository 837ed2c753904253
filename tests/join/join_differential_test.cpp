// Join cases beside the lattice (tests/lattice/ holds the oracle matrix
// across threads, partitions and spill blocks): empty inputs, single-shot
// runs, failing spill directories, the corpus scan's attribution memo and
// the phase spans. Suite names start with "Join" for the TSan leg.

#include "join/join.h"

#include <filesystem>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "core/observation.h"
#include "join/naive.h"
#include "join/source.h"
#include "lattice.h"
#include "netbase/eui64.h"
#include "sim/rng.h"
#include "telemetry/metrics.h"

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

TEST(JoinDifferential, AttributionMemoYieldsToAMoreSpecificRoute) {
  // A /48 of a second AS inside a /32: a memo that kept the /32 for a
  // target under the /48, or the /48 for one outside it, would attribute
  // that row to the wrong AS. naive_join shares scan_corpus_file, so the
  // oracle cases cannot see such a slip; only lookup() can.
  routing::BgpTable bgp;
  bgp.announce({*net::Prefix::parse("2001:db8::/32"), 65001, "DE", "Outer"});
  bgp.announce(
      {*net::Prefix::parse("2001:db8:4400::/48"), 65009, "DE", "Inner"});
  // Targets in the /48, in the /32 on either side of it, and unannounced.
  constexpr std::uint64_t kNetworks[] = {
      0x20010db844000000ULL, 0x20010db843ff0000ULL, 0x20010db844010000ULL,
      0x20010db800000000ULL, 0x20010db900000000ULL};
  sim::Rng rng{0x48};
  core::ObservationStore store;
  for (std::uint64_t i = 0; i < 600; ++i) {
    const std::uint64_t network = kNetworks[rng.below(5)] | rng.below(64);
    const net::MacAddress mac{(std::uint64_t{0x3810d5} << 24) | i};
    store.add(core::Observation{
        net::Ipv6Address{network, 1},
        net::Ipv6Address{network, net::mac_to_eui64(mac)},
        wire::Icmpv6Type::kEchoReply, 0, static_cast<sim::TimePoint>(i)});
  }
  TempDir dir{"join_memo"};
  const CorpusDayFile file{
      lattice::write_chain(store, {0, store.size()}, dir, "memo")[0], 0};

  routing::AttributionCache cache;
  std::map<std::uint64_t, std::size_t> rows_by_asn;
  EXPECT_EQ(scan_corpus_file(file, {}, &bgp, cache,
                             [&](const corpus::KeyedRecord& rec) {
                               const auto want =
                                   bgp.lookup(net::Ipv6Address{rec.c0, 0});
                               EXPECT_EQ(rec.c1, want ? want->origin_asn : 0)
                                   << std::hex << rec.c0;
                               ++rows_by_asn[rec.c1];
                               return true;
                             }),
            ScanResult::kScanned);
  EXPECT_EQ(rows_by_asn.size(), 3u);
  EXPECT_GT(rows_by_asn[65001], 0u);
  EXPECT_GT(rows_by_asn[65009], 0u);
  EXPECT_GT(rows_by_asn[0], 0u);
}

TEST(JoinDifferential, FeedRegisteredTwiceMatchesOracle) {
  // One MAC-sorted feed keeps every geo run MAC-sorted; the same feed
  // registered twice makes each run two sorted passes, so phase 2 must
  // really group the feed side, not find it grouped already.
  const lattice::Lattice fleet{lattice::World{
      .kind = lattice::Kind::kFleet, .seed = 5, .days = 3, .rows = 300}};
  TempDir dir{"join_two_feeds"};
  JoinOptions options;
  options.threads = 2;
  options.partitions = 4;
  options.spill_dir = dir.file("spill");
  DossierJoin engine{options};
  NaiveJoinInputs inputs;
  for (const CorpusDayFile& file : fleet.fleet()) {
    engine.add_corpus_day(file.path, file.day);
    inputs.corpus_files.push_back(file);
  }
  for (int copy = 0; copy < 2; ++copy) {
    engine.add_geo_feed(fleet.feed());
    inputs.geo_feeds.push_back(fleet.feed());
  }
  const auto table = engine.run_table();
  const auto oracle = naive_join(inputs);
  ASSERT_TRUE(table.has_value());
  ASSERT_TRUE(oracle.has_value());
  EXPECT_GT(engine.stats().anchored, 0u);
  EXPECT_TRUE(table->rows() == oracle->rows());
}

TEST(JoinDifferential, RecordsOneSpanPerPhase) {
  const lattice::Lattice fleet{lattice::World{
      .kind = lattice::Kind::kFleet, .seed = 3, .days = 2, .rows = 200}};
  TempDir dir{"join_spans"};
  telemetry::Registry registry;
  JoinOptions options;
  options.threads = 2;
  options.partitions = 4;
  options.spill_dir = dir.file("spill");
  options.registry = &registry;
  DossierJoin engine{options};
  for (const CorpusDayFile& file : fleet.fleet()) {
    engine.add_corpus_day(file.path, file.day);
  }
  engine.add_geo_feed(fleet.feed());
  ASSERT_TRUE(engine.run_table().has_value());
  for (const char* phase : {"join.partition", "join.merge", "join.emit"}) {
    ASSERT_TRUE(registry.spans().contains(phase)) << phase;
    EXPECT_EQ(registry.spans().at(phase).count(), 1u) << phase;
  }

  // Phase 2's split, folded from per-shard slots under join.merge: every
  // partition reads both sides once and groups its corpus rows, every
  // dossier is built once and appended once, and each spool also opens
  // and finishes.
  const auto merge_span = [&](const char* name) -> std::uint64_t {
    const auto it = registry.spans().find(std::string{"join.merge/"} + name);
    return it == registry.spans().end() ? 0 : it->second.count();
  };
  const JoinStats& stats = engine.stats();
  ASSERT_GT(stats.dossiers, 0u);
  EXPECT_EQ(merge_span("join.merge.read"), 2u * options.partitions);
  EXPECT_GE(merge_span("join.merge.group"), 1u * options.partitions);
  EXPECT_EQ(merge_span("join.merge.dossier"), stats.dossiers);
  EXPECT_GE(merge_span("join.merge.spool"), stats.dossiers + 2);
  EXPECT_LE(merge_span("join.merge.spool"),
            stats.dossiers + 2u * options.partitions);
}

}  // namespace
}  // namespace scent::join
