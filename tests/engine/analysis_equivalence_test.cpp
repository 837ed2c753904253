// Property suite for the fused analysis engine's determinism contract:
// the merged AggregateTable — device order, every span, every per-AS
// sub-aggregate, day bitsets, sighting lists, window snapshots — must be
// bit-identical at ANY thread count, and identical whether the rows come
// from the in-memory columnar store or a persisted snapshot chain.
//
// Matrix: {1,2,4,8} threads x 3 seeds x 2 corpus shapes (a stable
// "paper"-style world and a churny multi-AS one). Under ThreadSanitizer
// the matrix shrinks but still runs genuinely multi-shard.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "analysis/input.h"
#include "core/observation.h"
#include "corpus/snapshot.h"
#include "netbase/eui64.h"
#include "routing/bgp_table.h"
#include "sim/rng.h"
#include "sim/sim_time.h"

namespace scent::analysis {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

enum class Shape { kPaper, kChurn };

/// A BGP table with nested announcements (the /48 shadows part of the
/// first /32) plus deliberately unannounced space, so attribution hits
/// the cache, the more-specific path, and the null path.
routing::BgpTable make_bgp() {
  routing::BgpTable bgp;
  bgp.announce({*net::Prefix::parse("2001:db8::/32"), 65001, "DE", "RotorDE"});
  bgp.announce(
      {*net::Prefix::parse("2001:db8:4400::/40"), 65003, "DE", "CarveOut"});
  bgp.announce({*net::Prefix::parse("2003:e200::/32"), 65002, "VN", "StatVN"});
  return bgp;
}

/// Synthetic observation corpus. The paper shape keeps each device inside
/// one AS with daily /64 movement; the churn shape adds devices seen in
/// several ASes (pathology fodder), privacy-addressed rows, repeated
/// <day, network> sightings and rows outside every announcement.
core::ObservationStore make_corpus(Shape shape, std::uint64_t seed,
                                   std::size_t rows) {
  sim::Rng rng{seed};
  core::ObservationStore store;
  const std::uint64_t as_base[3] = {0x20010db800000000ULL,
                                    0x20010db844000000ULL,
                                    0x2003e20000000000ULL};
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t device = rng.below(40);
    const net::MacAddress mac{0x3810d5000000ULL + device};
    // Paper shape pins a device to one AS; churn lets a third roam.
    std::uint64_t as_pick = device % 3;
    if (shape == Shape::kChurn && device % 3 == 0) as_pick = rng.below(3);
    const std::int64_t day = static_cast<std::int64_t>(rng.below(10));
    const std::uint64_t network =
        as_base[as_pick] | ((device * 7 + static_cast<std::uint64_t>(day)) %
                            256) << 8;

    core::Observation obs;
    obs.target = net::Ipv6Address{network, 0xbeef0000ULL + i};
    if (shape == Shape::kChurn && rng.chance(0.15)) {
      // Privacy-addressed / non-EUI responses and unrouted space.
      const std::uint64_t net2 =
          rng.chance(0.5) ? network : 0x2a00000000000000ULL | (device << 8);
      obs.response = net::Ipv6Address{net2, rng.next() | 0x0400000000000000ULL};
    } else {
      obs.response = net::Ipv6Address{network, net::mac_to_eui64(mac)};
    }
    obs.type = wire::Icmpv6Type::kEchoReply;
    obs.code = 0;
    obs.time = sim::days(day) + static_cast<std::int64_t>(i % 1000);
    store.add(obs);
  }
  return store;
}

void expect_same_table(const AggregateTable& want, const AggregateTable& got) {
  EXPECT_EQ(want.rows_scanned, got.rows_scanned);
  EXPECT_EQ(want.eui_rows, got.eui_rows);
  EXPECT_EQ(want.failed_files, got.failed_files);

  ASSERT_EQ(want.devices.size(), got.devices.size());
  for (std::size_t i = 0; i < want.devices.size(); ++i) {
    const auto& [mac_a, dev_a] = want.devices.begin()[i];
    const auto& [mac_b, dev_b] = got.devices.begin()[i];
    ASSERT_EQ(mac_a, mac_b) << "device slot " << i;
    EXPECT_EQ(dev_a.oui, dev_b.oui);
    EXPECT_EQ(dev_a.observations, dev_b.observations);
    EXPECT_EQ(dev_a.target_lo, dev_b.target_lo);
    EXPECT_EQ(dev_a.target_hi, dev_b.target_hi);
    EXPECT_EQ(dev_a.response_lo, dev_b.response_lo);
    EXPECT_EQ(dev_a.response_hi, dev_b.response_hi);
    EXPECT_EQ(dev_a.first_day, dev_b.first_day);
    EXPECT_EQ(dev_a.last_day, dev_b.last_day);
    EXPECT_EQ(dev_a.day_bits, dev_b.day_bits);
    ASSERT_EQ(dev_a.per_as.size(), dev_b.per_as.size()) << mac_a.to_string();
    for (std::size_t k = 0; k < dev_a.per_as.size(); ++k) {
      const PerAsSpan& a = dev_a.per_as[k];
      const PerAsSpan& b = dev_b.per_as[k];
      EXPECT_EQ(a.asn, b.asn);
      EXPECT_EQ(a.ad, b.ad);  // both runs attribute against the same table
      EXPECT_EQ(a.target_lo, b.target_lo);
      EXPECT_EQ(a.target_hi, b.target_hi);
      EXPECT_EQ(a.response_lo, b.response_lo);
      EXPECT_EQ(a.response_hi, b.response_hi);
      EXPECT_EQ(a.observations, b.observations);
      EXPECT_EQ(a.days, b.days);
    }
    ASSERT_EQ(dev_a.sightings.size(), dev_b.sightings.size());
    for (std::size_t k = 0; k < dev_a.sightings.size(); ++k) {
      EXPECT_EQ(dev_a.sightings[k].day, dev_b.sightings[k].day);
      EXPECT_EQ(dev_a.sightings[k].network, dev_b.sightings[k].network);
    }
  }

  ASSERT_EQ(want.as_rollups.size(), got.as_rollups.size());
  for (std::size_t i = 0; i < want.as_rollups.size(); ++i) {
    EXPECT_EQ(want.as_rollups[i].asn, got.as_rollups[i].asn);
    EXPECT_EQ(want.as_rollups[i].country, got.as_rollups[i].country);
    EXPECT_EQ(want.as_rollups[i].as_name, got.as_rollups[i].as_name);
    EXPECT_EQ(want.as_rollups[i].observations, got.as_rollups[i].observations);
    EXPECT_EQ(want.as_rollups[i].devices, got.as_rollups[i].devices);
  }

  ASSERT_EQ(want.window_snapshots.size(), got.window_snapshots.size());
  for (std::size_t w = 0; w < want.window_snapshots.size(); ++w) {
    EXPECT_EQ(want.window_snapshots[w].map(), got.window_snapshots[w].map());
  }
}

TEST(EngineAnalysisEquivalence, ShardedPassIsBitIdenticalToSerial) {
  const std::vector<std::uint64_t> seeds =
      kTsan ? std::vector<std::uint64_t>{0xA1}
            : std::vector<std::uint64_t>{0xA1, 0xA2, 0xA3};
  const std::vector<unsigned> thread_counts =
      kTsan ? std::vector<unsigned>{2, 8}
            : std::vector<unsigned>{1, 2, 4, 8};
  const std::size_t rows = kTsan ? 2000 : 6000;

  const routing::BgpTable bgp = make_bgp();
  for (const Shape shape : {Shape::kPaper, Shape::kChurn}) {
    for (const std::uint64_t seed : seeds) {
      SCOPED_TRACE(testing::Message()
                   << (shape == Shape::kPaper ? "paper" : "churn")
                   << " seed=0x" << std::hex << seed);
      const core::ObservationStore store = make_corpus(shape, seed, rows);

      AnalysisOptions options;
      options.threads = 1;
      // Windows exercise the partition-straddling snapshot merge too.
      options.windows = {RowWindow{0, rows / 2},
                         RowWindow{rows / 3, rows - 7}};
      const AggregateTable reference = analyze(store, &bgp, options);
      ASSERT_GT(reference.devices.size(), 0u);
      ASSERT_GT(reference.as_rollups.size(), 0u);

      for (const unsigned threads : thread_counts) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        AnalysisOptions parallel = options;
        parallel.threads = threads;
        const AggregateTable table = analyze(store, &bgp, parallel);
        expect_same_table(reference, table);

        // Derived reports are functions of the table; spot-check the full
        // stack anyway so a table-equal-but-derive-order bug cannot hide.
        EXPECT_EQ(allocation_medians_by_as(reference),
                  allocation_medians_by_as(table));
        EXPECT_EQ(allocation_lengths(reference), allocation_lengths(table));
        EXPECT_EQ(pool_lengths(reference), pool_lengths(table));
      }
    }
  }
}

struct TempDir {
  std::string path;
  std::vector<std::string> files;
  TempDir() { path = ::testing::TempDir(); }
  ~TempDir() {
    for (const auto& f : files) std::remove(f.c_str());
  }
  std::string next(const char* tag, std::size_t i) {
    files.push_back(path + "/scent_analysis_" + tag + "_" +
                    std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
                    "_" + std::to_string(i) + ".snap");
    return files.back();
  }
};

TEST(EngineAnalysisEquivalence, SnapshotChainMatchesInMemoryStore) {
  const routing::BgpTable bgp = make_bgp();
  const std::size_t rows = kTsan ? 1500 : 4000;
  const core::ObservationStore store =
      make_corpus(Shape::kChurn, 0xC4A1, rows);

  // Persist the store as an uneven three-file chain (shard boundaries will
  // straddle files at most thread counts).
  TempDir dir;
  std::vector<std::string> paths;
  const std::size_t cuts[4] = {0, rows / 5, (rows * 2) / 3, rows};
  for (std::size_t f = 0; f < 3; ++f) {
    corpus::SnapshotWriter writer;
    writer.append(store.view(cuts[f], cuts[f + 1]));
    paths.push_back(dir.next("chain", f));
    ASSERT_TRUE(writer.write(paths.back()));
  }

  for (const unsigned threads : {1u, 3u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    AnalysisOptions options;
    options.threads = threads;
    const AggregateTable from_store = analyze(store, &bgp, options);
    const ChainInput chain{paths};
    ASSERT_EQ(chain.rows(), rows);
    const AggregateTable from_chain = analyze(chain, &bgp, options);
    expect_same_table(from_store, from_chain);
  }
}

TEST(EngineAnalysisEquivalence, ChainCountsUnreadableFilesAndAnalyzesRest) {
  const routing::BgpTable bgp = make_bgp();
  const core::ObservationStore store =
      make_corpus(Shape::kPaper, 0xF11E, 900);

  TempDir dir;
  corpus::SnapshotWriter writer;
  writer.append(store);
  const std::string good = dir.next("good", 0);
  ASSERT_TRUE(writer.write(good));

  // A missing path and the good file: the chain analyzes the good rows and
  // reports one failed file — legacy sightings_from_snapshots semantics.
  const ChainInput chain{{dir.path + "/scent_analysis_nonexistent.snap",
                          good}};
  EXPECT_EQ(chain.rows(), store.size());
  const AggregateTable from_chain = analyze(chain, &bgp, {});
  EXPECT_EQ(from_chain.failed_files, 1u);

  const AggregateTable from_store = analyze(store, &bgp, {});
  ASSERT_EQ(from_chain.devices.size(), from_store.devices.size());
  EXPECT_EQ(from_chain.rows_scanned, from_store.rows_scanned);
}

// DaySet is the one aggregate component whose interesting paths — window
// rebase when an earlier day arrives, spill past the 64-day window, spill
// entries pushed out during a rebase — need day spans far wider than the
// simulated worlds above produce. Differential-test it against std::set
// over a ±200-day range, and pin down the canonicalization claim the
// merge contract leans on: equal sets are equal bytes, whatever the
// insertion or merge order.
TEST(EngineAnalysisDaySetModel, MatchesStdSetAcrossWindowAndSpill) {
  sim::Rng rng{0x0DA75E7ULL};
  for (int round = 0; round < 50; ++round) {
    DaySet set;
    std::set<std::int64_t> model;
    const int inserts = 1 + static_cast<int>(rng.below(120));
    for (int i = 0; i < inserts; ++i) {
      const std::int64_t day =
          static_cast<std::int64_t>(rng.below(401)) - 200;
      set.note(day);
      model.insert(day);
    }
    EXPECT_EQ(set.count(), model.size());
    EXPECT_EQ(set.values(),
              std::vector<std::int64_t>(model.begin(), model.end()));
    EXPECT_EQ(set.first(), *model.begin());
    EXPECT_EQ(set.last(), *model.rbegin());
  }
}

TEST(EngineAnalysisDaySetModel, CanonicalAcrossInsertionAndMergeOrder) {
  sim::Rng rng{0xCA0041CA1ULL};
  for (int round = 0; round < 50; ++round) {
    std::vector<std::int64_t> days;
    const int inserts = 2 + static_cast<int>(rng.below(100));
    for (int i = 0; i < inserts; ++i) {
      days.push_back(static_cast<std::int64_t>(rng.below(401)) - 200);
    }

    DaySet forward;
    for (const std::int64_t day : days) forward.note(day);
    DaySet backward;
    for (auto it = days.rbegin(); it != days.rend(); ++it) {
      backward.note(*it);
    }
    EXPECT_EQ(forward, backward);

    // Split anywhere, build the halves independently, merge either way
    // around: still the same bytes — the shard-merge property.
    const std::size_t cut = rng.below(days.size() + 1);
    DaySet lo;
    DaySet hi;
    for (std::size_t i = 0; i < days.size(); ++i) {
      (i < cut ? lo : hi).note(days[i]);
    }
    DaySet lo_first = lo;
    lo_first.merge(hi);
    DaySet hi_first = hi;
    hi_first.merge(lo);
    EXPECT_EQ(lo_first, forward);
    EXPECT_EQ(hi_first, forward);
    EXPECT_EQ(lo_first.values(), forward.values());
  }
}

}  // namespace
}  // namespace scent::analysis
