// Window snapshots of the fused scan (AnalysisOptions::windows): each
// requested row window must come back as exactly the core::Snapshot a
// row-by-row record over the window's rows builds — same pairs, same
// first-sighting order, last EUI response winning — at any thread count
// and from either row source (in-memory store or persisted chain).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "analysis/input.h"
#include "core/observation.h"
#include "core/rotation_detector.h"
#include "corpus/snapshot.h"
#include "netbase/eui64.h"

namespace scent::analysis {
namespace {

/// Repeated targets with changing EUI responses, and non-EUI replies
/// interleaved with them, so first-sighting order and last-wins both show.
core::ObservationStore make_store(std::size_t rows) {
  core::ObservationStore store;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t t = (i * 131) % 1777;
    core::Observation obs;
    obs.target =
        net::Ipv6Address{0x20010db800000000ULL | ((t % 41) << 16), t};
    const std::uint64_t network = 0x2003e20000000000ULL | ((i % 11) << 8);
    if (i % 4 == 0) {
      obs.response = net::Ipv6Address{network, 0x0123456789abULL + i};
    } else {
      const net::MacAddress mac{0x3a10d5000000ULL + (i % 389)};
      obs.response = net::Ipv6Address{network, net::mac_to_eui64(mac)};
    }
    obs.type = wire::Icmpv6Type::kEchoReply;
    obs.time = sim::days(static_cast<std::int64_t>(i % 3)) +
               static_cast<std::int64_t>(i);
    store.add(obs);
  }
  return store;
}

core::Snapshot row_by_row(const core::ObservationStore& store,
                          const RowWindow& window) {
  core::Snapshot snapshot;
  const std::size_t end = std::min(window.end, store.size());
  for (std::size_t i = window.begin; i < end; ++i) {
    snapshot.record(store.target(i), store.response(i));
  }
  return snapshot;
}

void expect_windows(const AnalysisInput& input,
                    const core::ObservationStore& store,
                    const std::vector<RowWindow>& windows) {
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    AnalysisOptions options;
    options.threads = threads;
    options.attribute = false;
    options.collect_sightings = false;
    options.windows = windows;
    const FusedScan scan = scan_fused(input, nullptr, options);
    const std::vector<core::Snapshot>& got = scan.windows;
    ASSERT_EQ(got.size(), windows.size());
    for (std::size_t w = 0; w < windows.size(); ++w) {
      SCOPED_TRACE(testing::Message() << "window [" << windows[w].begin
                                      << ", " << windows[w].end << ")");
      const core::Snapshot want = row_by_row(store, windows[w]);
      EXPECT_GT(want.map().size(), 0u);
      EXPECT_EQ(got[w].map(), want.map());
    }
  }
}

constexpr std::size_t kRows = 5000;

/// Two overlapping windows, one that ends mid-shard at every thread count
/// tested (2777 is no multiple of 5000/2, 5000/3 or 5000/8), and one that
/// runs past the last row.
std::vector<RowWindow> test_windows() {
  return {RowWindow{0, 3000}, RowWindow{1000, 4000}, RowWindow{500, 2777},
          RowWindow{4500, 9000}};
}

TEST(EngineWindowSnapshots, StoreInputMatchesRowByRowRecord) {
  const core::ObservationStore store = make_store(kRows);
  expect_windows(StoreInput{store}, store, test_windows());
}

TEST(EngineWindowSnapshots, ChainInputMatchesRowByRowRecord) {
  const core::ObservationStore store = make_store(kRows);
  // An uneven three-file chain, so windows and shards straddle files.
  std::vector<std::string> paths;
  const std::size_t cuts[4] = {0, 1200, 3900, kRows};
  for (std::size_t f = 0; f < 3; ++f) {
    corpus::SnapshotWriter writer;
    writer.append(store.view(cuts[f], cuts[f + 1]));
    paths.push_back(std::string{::testing::TempDir()} + "/scent_windows_" +
                    std::to_string(f) + ".snap");
    ASSERT_TRUE(writer.write(paths.back()));
  }
  const ChainInput chain{paths};
  ASSERT_EQ(chain.rows(), kRows);
  expect_windows(chain, store, test_windows());
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace scent::analysis
