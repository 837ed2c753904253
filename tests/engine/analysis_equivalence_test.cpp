// Fused-analysis cases beside the lattice (tests/lattice/ holds the
// serial ≡ sharded and store ≡ chain matrices): a chain with an unreadable
// file, the per-device derivations against an independent row scan, and
// the DaySet model the merge contract leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "analysis/input.h"
#include "core/observation.h"
#include "lattice.h"
#include "netbase/eui64.h"
#include "routing/bgp_table.h"
#include "sim/rng.h"
#include "sim/sim_time.h"

namespace scent::analysis {
namespace {

using test::kTsan;
using lattice::Kind;
using lattice::World;

TEST(EngineAnalysisEquivalence, ChainCountsUnreadableFilesAndAnalyzesRest) {
  const routing::BgpTable bgp = lattice::synthetic_bgp();
  const core::ObservationStore store =
      lattice::make_rows(
          World{.kind = Kind::kPaperRows, .seed = 0xF11E, .rows = 900})
          .store;

  const test::TempDir dir{"analysis"};
  const std::vector<std::string> good =
      lattice::write_chain(store, {0, store.size()}, dir, "good");

  // A missing path and the good file: the chain analyzes the good rows and
  // reports one failed file: unreadable files are skipped and counted.
  const ChainInput chain{{dir.file("nonexistent.snap"), good[0]}};
  EXPECT_EQ(chain.rows(), store.size());
  const AggregateTable from_chain = analyze(chain, &bgp, {});
  EXPECT_EQ(from_chain.failed_files, 1u);

  const AggregateTable from_store = analyze(store, &bgp, {});
  ASSERT_EQ(from_chain.devices.size(), from_store.devices.size());
  EXPECT_EQ(from_chain.rows_scanned, from_store.rows_scanned);
}

/// Independent row-scan reference for networks_of / presence_of: each
/// device's distinct response /64s in first-seen order, and the ASes a
/// plain BGP lookup attributes it to per day (unrouted rows skipped).
struct RowScanDevice {
  std::vector<std::uint64_t> networks;
  std::map<std::int64_t, std::set<routing::Asn>> days;
};

std::map<net::MacAddress, RowScanDevice> scan_devices(
    const core::ObservationStore& store, const routing::BgpTable& bgp) {
  std::map<net::MacAddress, RowScanDevice> out;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto mac = net::embedded_mac(store.response(i));
    if (!mac) continue;
    RowScanDevice& device = out[*mac];
    const std::uint64_t network = store.response(i).network();
    if (std::find(device.networks.begin(), device.networks.end(), network) ==
        device.networks.end()) {
      device.networks.push_back(network);
    }
    if (const auto attribution = bgp.lookup(store.response(i))) {
      device.days[sim::day_of(store.time(i))].insert(attribution->origin_asn);
    }
  }
  return out;
}

TEST(EngineAnalysisEquivalence, PerDeviceDerivationsMatchRowScan) {
  const routing::BgpTable bgp = lattice::synthetic_bgp();
  const std::size_t rows = kTsan ? 1500 : 4000;
  for (const Kind kind : {Kind::kPaperRows, Kind::kChurnRows}) {
    SCOPED_TRACE(kind == Kind::kPaperRows ? "paper" : "churn");
    core::ObservationStore store =
        lattice::make_rows(World{.kind = kind, .seed = 0xD1, .rows = rows})
            .store;
    // EUI-64 rows in unannounced space: they count as networks but must
    // not appear in any day's AS set.
    for (std::uint64_t device = 0; device < 40; device += 5) {
      const net::MacAddress mac{0x3810d5000000ULL + device};
      const std::uint64_t unrouted = 0x2a00000000000000ULL | (device << 8);
      store.add(core::Observation{
          net::Ipv6Address{unrouted, 1},
          net::Ipv6Address{unrouted, net::mac_to_eui64(mac)},
          wire::Icmpv6Type::kEchoReply, 0,
          sim::days(static_cast<std::int64_t>(device % 10))});
    }
    const auto reference = scan_devices(store, bgp);
    std::size_t multi_network = 0;
    std::size_t multi_as_days = 0;
    for (const auto& [mac, device] : reference) {
      if (device.networks.size() > 1) ++multi_network;
      for (const auto& [day, asns] : device.days) {
        if (asns.size() > 1) ++multi_as_days;
      }
    }
    ASSERT_GT(multi_network, 0u);
    if (kind == Kind::kChurnRows) {
      ASSERT_GT(multi_as_days, 0u);
    }

    const test::TempDir dir{"derive"};
    const StoreInput from_store{store};
    const ChainInput from_chain{lattice::write_chain(
        store, {0, store.size() / 3, store.size()}, dir, "derive")};
    for (const AnalysisInput* input :
         {static_cast<const AnalysisInput*>(&from_store),
          static_cast<const AnalysisInput*>(&from_chain)}) {
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message()
                     << (input == &from_store ? "store" : "chain")
                     << " threads=" << threads);
        AnalysisOptions options;
        options.threads = threads;
        const AggregateTable table = analyze(*input, &bgp, options);
        ASSERT_EQ(table.devices.size(), reference.size());
        for (const auto& [mac, device] : reference) {
          EXPECT_EQ(networks_of(table, mac), device.networks)
              << mac.to_string();
          EXPECT_EQ(presence_of(table, mac).days, device.days)
              << mac.to_string();
        }
        const net::MacAddress absent{0x0200000000ffULL};
        EXPECT_TRUE(networks_of(table, absent).empty());
        EXPECT_TRUE(presence_of(table, absent).days.empty());
      }
    }
  }
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
