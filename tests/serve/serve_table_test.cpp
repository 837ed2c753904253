// Unit tests for ServeTable's versioning contract: nothing before the
// first apply, 1-based version numbering with day stamps,
// bootstrap-equals-analyze (a full scan IS version 0's delta),
// immutability of held versions across many later publishes, the
// retention rule (an unheld version is freed by the next apply), and the
// implicit TableVersion -> AggregateTable& conversion the derive.h reports
// ride.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "analysis/input.h"
#include "lattice.h"
#include "serve/serve_table.h"

namespace scent::serve {
namespace {

using lattice::append_day;
using lattice::same;
using lattice::table_form;

TEST(ServeTable, NoVersionBeforeFirstApply) {
  const routing::BgpTable bgp = lattice::synthetic_bgp();
  ServeOptions options;
  options.bgp = &bgp;
  const ServeTable table{options};
  EXPECT_EQ(table.current(), nullptr);
  EXPECT_EQ(table.versions_published(), 0u);
  EXPECT_EQ(table.reads(), 0u);
}

TEST(ServeTable, BootstrapFullScanEqualsAnalyze) {
  const routing::BgpTable bgp = lattice::synthetic_bgp();
  core::ObservationStore store;
  for (std::int64_t day = 0; day < 8; ++day) {
    append_day(store, 0xB007, day, 400);
  }

  ServeOptions options;
  options.bgp = &bgp;
  ServeTable table{options};
  table.apply(analysis::StoreInput{store}, 7);

  const auto version = table.current();
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->version, 1u);
  EXPECT_EQ(version->day, 7);
  EXPECT_EQ(version->delta_rows, store.size());

  const analysis::AggregateTable fresh = analysis::analyze(store, &bgp);
  EXPECT_TRUE(same(table_form(fresh), table_form(version->table)));
}

TEST(ServeTable, VersionNumberingAndDayStamps) {
  const routing::BgpTable bgp = lattice::synthetic_bgp();
  core::ObservationStore store;
  ServeOptions options;
  options.bgp = &bgp;
  ServeTable table{options};

  for (std::int64_t day = 0; day < 5; ++day) {
    const std::size_t begin = store.size();
    append_day(store, 0x5E0, day, 300);
    table.apply(analysis::StoreInput{store, begin, store.size()}, day);

    const auto version = table.current();
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(version->version, static_cast<std::uint64_t>(day) + 1);
    EXPECT_EQ(version->day, day);
    EXPECT_EQ(version->delta_rows, store.size() - begin);
  }
  EXPECT_EQ(table.versions_published(), 5u);
}

TEST(ServeTable, EmptyDeltaPublishesUnchangedTable) {
  const routing::BgpTable bgp = lattice::synthetic_bgp();
  core::ObservationStore store;
  append_day(store, 0xE4, 0, 250);

  ServeOptions options;
  options.bgp = &bgp;
  ServeTable table{options};
  table.apply(analysis::StoreInput{store}, 0);
  const auto before = table.current();
  ASSERT_NE(before, nullptr);

  const core::ObservationStore empty;
  table.apply(analysis::StoreInput{empty}, 1);
  const auto after = table.current();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->version, 2u);
  EXPECT_EQ(after->day, 1);
  EXPECT_EQ(after->delta_rows, 0u);
  EXPECT_TRUE(same(table_form(before->table), table_form(after->table)));
}

TEST(ServeTable, HeldVersionSurvivesSlotRingLaps) {
  const routing::BgpTable bgp = lattice::synthetic_bgp();
  core::ObservationStore store;
  ServeOptions options;
  options.bgp = &bgp;
  ServeTable table{options};

  const std::size_t first_begin = store.size();
  append_day(store, 0x1A9, 0, 200);
  table.apply(analysis::StoreInput{store, first_begin, store.size()}, 0);
  const std::shared_ptr<const TableVersion> held = table.current();
  ASSERT_NE(held, nullptr);
  const std::size_t held_devices = held->table.devices.size();
  const std::uint64_t held_rows = held->table.rows_scanned;

  // Publish twenty more versions while we keep version 1's shared_ptr:
  // the table replaces it as current on the first of them, and our copy
  // alone must keep it alive and unchanged.
  for (std::int64_t day = 1; day <= 20; ++day) {
    const std::size_t begin = store.size();
    append_day(store, 0x1A9, day, 200);
    table.apply(analysis::StoreInput{store, begin, store.size()}, day);
  }

  EXPECT_EQ(held->version, 1u);
  EXPECT_EQ(held->table.devices.size(), held_devices);
  EXPECT_EQ(held->table.rows_scanned, held_rows);
  const auto latest = table.current();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, 21u);
  EXPECT_GT(latest->table.rows_scanned, held->table.rows_scanned);
}

TEST(ServeTable, UnheldVersionIsFreedByTheNextApply) {
  const routing::BgpTable bgp = lattice::synthetic_bgp();
  core::ObservationStore store;
  ServeOptions options;
  options.bgp = &bgp;
  ServeTable table{options};

  append_day(store, 0xF4EE, 0, 150);
  table.apply(analysis::StoreInput{store}, 0);
  std::shared_ptr<const TableVersion> version = table.current();
  ASSERT_NE(version, nullptr);
  const std::weak_ptr<const TableVersion> watch = version;
  version.reset();
  EXPECT_FALSE(watch.expired());  // still current

  const std::size_t begin = store.size();
  append_day(store, 0xF4EE, 1, 150);
  table.apply(analysis::StoreInput{store, begin, store.size()}, 1);
  // Version 1 is neither current nor held: the table keeps no older
  // versions, so the apply that replaced it freed it.
  EXPECT_TRUE(watch.expired());
  const auto latest = table.current();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, 2u);
}

TEST(ServeTable, TableVersionConvertsForDeriveReports) {
  const routing::BgpTable bgp = lattice::synthetic_bgp();
  core::ObservationStore store;
  for (std::int64_t day = 0; day < 6; ++day) {
    append_day(store, 0xDE4, day, 350);
  }

  ServeOptions options;
  options.bgp = &bgp;
  ServeTable table{options};
  table.apply(analysis::StoreInput{store}, 5);
  const auto version = table.current();
  ASSERT_NE(version, nullptr);

  const analysis::AggregateTable fresh = analysis::analyze(store, &bgp);
  EXPECT_EQ(analysis::allocation_median(*version),
            analysis::allocation_median(fresh));
  EXPECT_EQ(analysis::pool_median(*version), analysis::pool_median(fresh));
  EXPECT_EQ(analysis::allocation_medians_by_as(*version),
            analysis::allocation_medians_by_as(fresh));
  ASSERT_FALSE(version->table.devices.empty());
  const net::MacAddress mac = version->table.devices.begin()->first;
  EXPECT_EQ(analysis::pool_length_for(*version, mac),
            analysis::pool_length_for(fresh, mac));
  const auto sightings = analysis::sightings_of(*version, mac);
  const auto fresh_sightings = analysis::sightings_of(fresh, mac);
  ASSERT_EQ(sightings.size(), fresh_sightings.size());
  for (std::size_t i = 0; i < sightings.size(); ++i) {
    EXPECT_EQ(sightings[i].day, fresh_sightings[i].day);
    EXPECT_EQ(sightings[i].network, fresh_sightings[i].network);
  }
}

TEST(ServeTable, ReadsCounterTracksAcquisitions) {
  const routing::BgpTable bgp = lattice::synthetic_bgp();
  core::ObservationStore store;
  append_day(store, 0xC0, 0, 100);

  ServeOptions options;
  options.bgp = &bgp;
  ServeTable table{options};
  table.apply(analysis::StoreInput{store}, 0);
  EXPECT_EQ(table.reads(), 0u);
  for (int i = 0; i < 5; ++i) ASSERT_NE(table.current(), nullptr);
  EXPECT_EQ(table.reads(), 5u);
}

}  // namespace
}  // namespace scent::serve
