// Reader/writer stress for the epoch-slot publication rail — the suite
// the TSan leg of scripts/check.sh runs (`ctest -R '^(Engine|Pipeline|Serve)'`
// under -fsanitize=thread). One writer publishes enough versions to lap
// the 8-slot ring many times while reader threads continuously pin the
// current version, run derive reports against it, and deliberately hold
// old versions across publishes (forcing the writer down the
// drain-readers-then-recycle path). Invariants: versions are monotonic
// per reader, a pinned version's contents never change, and nothing
// tears — TSan proves the memory-ordering argument, the assertions prove
// the protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/derive.h"
#include "analysis/input.h"
#include "serve/serve_table.h"

#include "serve_test_util.h"

namespace scent::serve {
namespace {

using test::append_day;
using test::kTsan;
using test::make_bgp;

TEST(ServeStress, ConcurrentReadersNeverTearAcrossRingLaps) {
  const std::size_t publishes = kTsan ? 48 : 96;
  const unsigned reader_count = 4;
  const std::size_t rows_per_day = kTsan ? 120 : 250;

  const routing::BgpTable bgp = make_bgp();
  ServeOptions options;
  options.bgp = &bgp;
  ServeTable table{options};

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(reader_count);
  for (unsigned t = 0; t < reader_count; ++t) {
    readers.emplace_back([&table, &done, &reads] {
      std::uint64_t last_version = 0;
      std::uint64_t local_reads = 0;
      // Held versions: keep every 8th alive so slot recycling overlaps
      // live pins and retired-but-referenced versions coexist.
      std::vector<std::shared_ptr<const TableVersion>> held;
      while (!done.load(std::memory_order_acquire)) {
        const auto version = table.current();
        if (version == nullptr) continue;
        ++local_reads;
        // Monotonic: a reader can never observe the epoch going back.
        ASSERT_GE(version->version, last_version);
        last_version = version->version;
        // Internal consistency of the pinned version: the row counters
        // and the device table were built by the same apply.
        ASSERT_GE(version->table.rows_scanned, version->delta_rows);
        ASSERT_GE(version->table.rows_scanned, version->table.eui_rows);
        (void)analysis::pool_median(*version);
        if (!version->table.devices.empty()) {
          (void)analysis::allocation_length_for(
              *version, version->table.devices.begin()->first);
        }
        if (version->version % 8 == 0 &&
            (held.empty() || held.back()->version != version->version)) {
          held.push_back(version);
        }
      }
      // Held versions stayed frozen: version numbers still ascend and
      // each one's counters still agree after every ring lap.
      for (std::size_t i = 1; i < held.size(); ++i) {
        ASSERT_GT(held[i]->version, held[i - 1]->version);
        ASSERT_GE(held[i]->table.rows_scanned,
                  held[i - 1]->table.rows_scanned);
      }
      reads.fetch_add(local_reads, std::memory_order_relaxed);
    });
  }

  core::ObservationStore store;
  for (std::size_t p = 0; p < publishes; ++p) {
    const std::size_t begin = store.size();
    append_day(store, 0x57E55, static_cast<std::int64_t>(p), rows_per_day);
    table.apply(analysis::StoreInput{store, begin, store.size()},
                static_cast<std::int64_t>(p));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(table.versions_published(), publishes);
  EXPECT_EQ(table.reads(), reads.load());
  const auto final_version = table.current();
  ASSERT_NE(final_version, nullptr);
  EXPECT_EQ(final_version->version, publishes);
  EXPECT_EQ(final_version->table.rows_scanned, store.size());
}

TEST(ServeStress, ReadersDuringConcurrentDeltaScans) {
  // The writer runs sharded delta scans (threads > 1) while readers pin
  // and query — the engine's scan threads and the rail's reader threads
  // coexist in one process, which is exactly the serve_tracker shape.
  const std::size_t publishes = kTsan ? 12 : 24;
  const routing::BgpTable bgp = make_bgp();
  ServeOptions options;
  options.bgp = &bgp;
  options.threads = 4;
  ServeTable table{options};

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 2; ++t) {
    readers.emplace_back([&table, &done] {
      while (!done.load(std::memory_order_acquire)) {
        const auto version = table.current();
        if (version == nullptr) continue;
        (void)analysis::allocation_median(*version);
        (void)analysis::sightings_of(
            *version, version->table.devices.empty()
                          ? net::MacAddress{}
                          : version->table.devices.begin()->first);
      }
    });
  }

  core::ObservationStore store;
  for (std::size_t p = 0; p < publishes; ++p) {
    const std::size_t begin = store.size();
    append_day(store, 0x5CA2, static_cast<std::int64_t>(p),
               kTsan ? 200 : 400);
    table.apply(analysis::StoreInput{store, begin, store.size()},
                static_cast<std::int64_t>(p));
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(table.versions_published(), publishes);
}

}  // namespace
}  // namespace scent::serve
