// The invariant lattice as worlds × paths (lattice.h): serial ≡ parallel
// (EngineEquivalence, EngineAnalysisEquivalence, EngineTraceDeterminism),
// store ≡ chain (EngineAnalysisEquivalence, EngineWindowSnapshots),
// incremental ≡ fresh (ServeDifferential, ServeCampaign), resumed ≡
// uninterrupted (CampaignCheckpoint, ServeCampaign) and every join fan-out
// ≡ the hash-join oracle (JoinDifferential). Under ThreadSanitizer the
// matrices shrink but still shard for real; suites starting with Engine,
// Serve or Join run in scripts/check.sh's TSan leg.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lattice.h"

namespace scent::lattice {
namespace {

/// `path` at each thread count.
std::vector<Path> at_threads(Path path, const std::vector<unsigned>& threads) {
  std::vector<Path> out;
  for (const unsigned t : threads) {
    path.threads = t;
    out.push_back(path);
  }
  return out;
}

const std::vector<unsigned> kThreads =
    tsan_or<std::vector<unsigned>>({2, 8}, {1, 2, 4, 8});

TEST(EngineEquivalence, ParallelPipelineIsBitIdenticalToSerial) {
  for (const Kind kind : {Kind::kPaper, Kind::kChurn}) {
    for (const std::uint64_t seed :
         tsan_or<std::vector<std::uint64_t>>({0x11}, {0x11, 0x22, 0x33})) {
      SCOPED_TRACE(testing::Message() << "world " << static_cast<int>(kind)
                                      << " seed=0x" << std::hex << seed);
      const Lattice lattice{
          {.kind = kind, .seed = seed, .days = tsan_or(2u, 3u)}};
      const Form reference = lattice.check({}, at_threads({}, kThreads));
      // Equivalence of empty corpora would be vacuous.
      EXPECT_GT(reference.facts.at("rotating_48s"), 0u);
      EXPECT_GT(reference.facts.at("rows"), 0u);
    }
  }
}

TEST(EngineEquivalence, HardwareThreadCountAlsoMatches) {
  const Lattice lattice{
      {.kind = Kind::kChurn, .seed = 0x44, .days = tsan_or(2u, 3u)}};
  lattice.check({}, {{.threads = 0}});
}

TEST(EngineAnalysisEquivalence, ShardedPassIsBitIdenticalToSerial) {
  const std::size_t rows = tsan_or(2000, 6000);
  for (const Kind kind : {Kind::kPaperRows, Kind::kChurnRows}) {
    for (const std::uint64_t seed :
         tsan_or<std::vector<std::uint64_t>>({0xA1}, {0xA1, 0xA2, 0xA3})) {
      SCOPED_TRACE(testing::Message() << "world " << static_cast<int>(kind)
                                      << " seed=0x" << std::hex << seed);
      // Windows exercise the partition-straddling snapshot merge too.
      const Lattice lattice{
          {.kind = kind,
           .seed = seed,
           .rows = rows,
           .windows = {{0, rows / 2}, {rows / 3, rows - 7}}}};
      const Path store{.via = Via::kStore};
      const Form reference = lattice.check(store, at_threads(store, kThreads));
      EXPECT_GT(reference.facts.at("devices"), 0u);
      EXPECT_GT(reference.facts.at("rollups"), 0u);
    }
  }
}

TEST(EngineAnalysisEquivalence, SnapshotChainMatchesInMemoryStore) {
  // An uneven three-file chain: shards straddle files at most thread counts.
  const std::size_t rows = tsan_or(1500, 4000);
  const Lattice lattice{
      {.kind = Kind::kChurnRows, .seed = 0xC4A1, .rows = rows}};
  const Path store{.via = Via::kStore};
  std::vector<Path> paths = at_threads(store, {3, 8});
  const Path chain{.via = Via::kChain,
                   .cuts = {0, rows / 5, rows * 2 / 3, rows}};
  for (const Path& p : at_threads(chain, {1, 3, 8})) paths.push_back(p);
  lattice.check(store, paths);
}

/// Two overlapping windows, one that ends mid-shard at every thread count
/// tested (2777 is no multiple of 5000/2, 5000/3 or 5000/8), and one that
/// runs past the last row.
const World kWindowWorld{
    .kind = Kind::kWindowRows,
    .rows = 5000,
    .windows = {{0, 3000}, {1000, 4000}, {500, 2777}, {4500, 9000}}};

TEST(EngineWindowSnapshots, StoreInputMatchesRowByRowRecord) {
  Lattice{kWindowWorld}.check({.via = Via::kRowScan},
                              at_threads({.via = Via::kStore}, {1, 2, 3, 8}));
}

TEST(EngineWindowSnapshots, ChainInputMatchesRowByRowRecord) {
  Lattice{kWindowWorld}.check(
      {.via = Via::kRowScan},
      at_threads({.via = Via::kChain, .cuts = {0, 1200, 3900, 5000}},
                 {1, 2, 3, 8}));
}

TEST(EngineTraceDeterminism, VirtualStreamIsBitIdenticalAtAnyThreadCount) {
  // Shard counts are honoured exactly, so small hosts still run concurrent
  // shards.
  const Path trace{.via = Via::kTrace};
  const Form reference =
      Lattice{{.kind = Kind::kTiny, .seed = 0x7E57, .devices = 32}}.check(
          trace, at_threads(trace, {2, 4, 8}));
  for (const Layer& layer : reference.layers) {
    EXPECT_FALSE(layer.rows.empty()) << layer.name;
  }
}

TEST(ServeDifferential, DeltaChainMatchesFreshRebuildAtEveryDay) {
  // Every version after every apply against a fresh serial rebuild of the
  // same prefix, so this also pins cross-thread-count equality.
  const Lattice lattice{{.kind = Kind::kDayRows,
                         .seed = 0xD1FF,
                         .days = tsan_or(10u, 30u),
                         .rows = tsan_or(300u, 1000u)}};
  lattice.check({.via = Via::kFresh},
                at_threads({.via = Via::kServe}, kThreads));
}

TEST(ServeDifferential, ChainInputDeltasMatchStoreDeltas) {
  // Each day persisted as one snapshot: the checkpoint chain's shape.
  const Lattice lattice{{.kind = Kind::kDayRows,
                         .seed = 0xC4A1,
                         .days = tsan_or(6u, 12u),
                         .rows = tsan_or(250u, 600u)}};
  const unsigned threads = tsan_or(8u, 4u);
  lattice.check({.via = Via::kFresh},
                {{.via = Via::kServe, .threads = threads},
                 {.via = Via::kServe, .threads = threads, .from_files = true}});
}

// Every served campaign also checks its last version against a fresh
// rebuild of its corpus, and a killed one that the table it dies with
// stays on the last committed version.
const World kServeWorld{.kind = Kind::kTiny, .seed = 0x5EE, .days = 4};

TEST(ServeCampaign, OneAndFourThreadsServeIdentically) {
  Lattice{kServeWorld}.check({.serve = true}, {{.threads = 4, .serve = true}});
}

TEST(ServeCampaign, MaintainedTableMatchesFreshRebuildOfCorpus) {
  const Form served = Lattice{kServeWorld}.run({.threads = 2, .serve = true});
  EXPECT_GT(served.facts.at("rows"), 0u);
}

TEST(ServeCampaign, ThrowingProgressHookLeavesPreviousVersionPublished) {
  Lattice{{.kind = Kind::kTiny, .seed = 0x5EE, .days = 3}}.check(
      {.threads = 2, .checkpoint = true, .serve = true},
      {{.threads = 2,
        .checkpoint = true,
        .serve = true,
        .kill_after = 1,
        .mid_day = true}});
}

TEST(ServeCampaign, KilledAndResumedCampaignServesIdentically) {
  // The resumed run's fresh table replays the chain, at another thread
  // count.
  const std::size_t days = tsan_or(4u, 6u);
  Lattice{{.kind = Kind::kTiny, .seed = 0x5EE, .days = days}}.check(
      {.threads = 2, .checkpoint = true, .serve = true},
      {{.threads = tsan_or(8u, 4u),
        .checkpoint = true,
        .serve = true,
        .kill_after = days / 2,
        .killed_threads = 2}});
}

// CampaignCheckpoint: killed and resumed ≡ uninterrupted — corpus, funnel,
// inference, clock and chain bytes.
Lattice checkpoint_world(std::size_t days) {
  return Lattice{{.kind = Kind::kTiny, .seed = 0xCA0, .days = days}};
}

TEST(CampaignCheckpoint, ResumeMatchesUninterrupted) {
  checkpoint_world(5).check({.checkpoint = true},
                            {{.checkpoint = true, .kill_after = 2}});
}

TEST(CampaignCheckpoint, ResumeIsThreadCountInvariant) {
  checkpoint_world(4).check(
      {.checkpoint = true},
      {{.threads = 4, .checkpoint = true, .kill_after = 2}});
}

TEST(CampaignCheckpoint, CheckpointingDoesNotPerturbTheResult) {
  // Every layer but the chain, which only the checkpointed run writes.
  const Lattice lattice = checkpoint_world(3);
  EXPECT_TRUE(
      same(lattice.run({}), lattice.run({.checkpoint = true}), {"chain."}));
}

TEST(CampaignCheckpoint, ShorterHorizonReplaysPrefixWithoutProbing) {
  // A two-day run over a four-day chain replays it, never probes, never
  // writes the chain, and leaves the clock where a fresh two-day run does.
  checkpoint_world(2).check({}, {{.kill_after = 4}});
}

TEST(CampaignCheckpoint, ExtendingACompletedCampaign) {
  // A finished 2-day campaign re-run with days=5 continues from day 2.
  checkpoint_world(5).check({.checkpoint = true},
                            {{.checkpoint = true, .kill_after = 2}});
}

TEST(CampaignCheckpoint, MidDayAbortResumesBitIdentically) {
  // A bootstrapped 4-thread campaign dies after day 1 has swept but before
  // it commits; the resume in a fresh process leaves no trace of it.
  Lattice{{.kind = Kind::kChurn, .seed = 0x77, .days = 3}}.check(
      {.threads = 4, .checkpoint = true},
      {{.threads = 4, .checkpoint = true, .kill_after = 1, .mid_day = true}});
}

// JoinDifferential: every fan-out ≡ naive_join, byte for byte, including
// one-side-only MACs, MACs behind several ASes and empty partitions.
TEST(JoinDifferential, MatchesOracleAcrossThreadsPartitionsAndSpill) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    // Small blocks split every run into many CRC'd blocks; the default
    // size keeps most runs to one block.
    std::vector<Path> paths;
    for (const unsigned threads : {1, 2, 4, 8}) {
      for (const unsigned partitions : {1, 4, 16}) {
        for (const std::size_t block :
             {std::size_t{32}, corpus::kKeyedRunBlockElements}) {
          paths.push_back({.via = Via::kJoin,
                           .threads = threads,
                           .partitions = partitions,
                           .block = block});
        }
      }
    }
    const Form oracle =
        Lattice{{.kind = Kind::kFleet, .seed = seed, .days = 4, .rows = 600}}
            .check({.via = Via::kNaive}, paths);
    EXPECT_GT(oracle.facts.at("dossiers"), 0u);
  }
}

TEST(JoinDifferential, DayWindowPrunesFilesAndMatchesOracle) {
  const Lattice lattice{
      {.kind = Kind::kFleet, .seed = 5, .days = 6, .rows = 300}};
  const join::DayWindow window{.first_day = 2, .last_day = 4};
  const Form oracle = lattice.run({.via = Via::kNaive, .window = window});
  const Form got = lattice.run(
      {.via = Via::kJoin, .threads = 4, .partitions = 4, .window = window});
  EXPECT_TRUE(same(oracle, got));
  EXPECT_EQ(got.facts.at("corpus_files_pruned"), 3u);  // days 0, 1, 5
  EXPECT_EQ(got.facts.at("first_sighting_day"), 2u);
  EXPECT_EQ(got.facts.at("last_sighting_day"), 4u);
}

TEST(JoinDifferential, DisjointFeedBlocksArePruned) {
  // Small spill blocks and an alien OUI band sorted after the fleet band:
  // the merge skips the alien blocks by stats alone and still matches.
  const Lattice lattice{{.kind = Kind::kFleet,
                         .seed = 7,
                         .days = 3,
                         .rows = 400,
                         .feed_block = 32}};
  const Form got = lattice.run(
      {.via = Via::kJoin, .threads = 2, .partitions = 4, .block = 16});
  EXPECT_TRUE(same(lattice.run({.via = Via::kNaive}), got));
  EXPECT_GT(got.facts.at("blocks_pruned"), 0u);
  EXPECT_GT(got.facts.at("spill_bytes"), 0u);
  EXPECT_GT(got.facts.at("spill_runs"), 0u);
}

TEST(JoinDifferential, MorePartitionsThanMacsLeavesEmptyPartitions) {
  // Two devices, 64 partitions: most partitions hold nothing. Seed 5 draws
  // two serials the feed covers, so both dossiers merge both sides.
  const Form oracle =
      Lattice{{.kind = Kind::kFleet, .seed = 5, .days = 1, .rows = 2}}.check(
          {.via = Via::kNaive},
          {{.via = Via::kJoin, .threads = 8, .partitions = 64}});
  EXPECT_EQ(oracle.facts.at("dossiers"), 2u);
  EXPECT_EQ(oracle.facts.at("anchored"), 2u);
}

}  // namespace
}  // namespace scent::lattice
