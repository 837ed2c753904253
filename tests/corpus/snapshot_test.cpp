// Tests for the binary columnar snapshot format: round trips, byte
// stability, lazy column reads, the derived EUI-pair section, and — most
// importantly — corrupt-input handling: truncations, flipped bytes, wrong
// magic/version and disk-full writes must all be clean errors, never UB.
#include "corpus/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/rotation_detector.h"
#include "core/tracker.h"
#include "corpus/crc32c.h"
#include "netbase/eui64.h"

namespace scent::corpus {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* tag) {
    path = std::string{::testing::TempDir()} + "/scent_snap_" + tag + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".snap";
  }
  ~TempFile() { std::remove(path.c_str()); }
};

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<unsigned char> bytes;
  unsigned char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void dump(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// A store mixing EUI-64 and opaque responses, with repeats (so the
/// EUI-pair dedup and the classification memo both get exercised).
core::ObservationStore make_store(std::size_t rows) {
  core::ObservationStore store;
  for (std::size_t i = 0; i < rows; ++i) {
    core::Observation obs;
    obs.target = net::Ipv6Address{0x20010db800000000ULL | ((i % 64) << 16),
                                  0xbeef0000 + i};
    const std::uint64_t network = 0x2003e20000000000ULL | ((i % 16) << 8);
    if (i % 3 != 0) {
      const net::MacAddress mac{0x3a10d5000000ULL + (i % 24)};
      obs.response = net::Ipv6Address{network, net::mac_to_eui64(mac)};
    } else {
      obs.response = net::Ipv6Address{network, 0x0123456789abULL + i};
    }
    obs.type = i % 2 == 0 ? wire::Icmpv6Type::kDestinationUnreachable
                          : wire::Icmpv6Type::kEchoReply;
    obs.code = static_cast<std::uint8_t>(i % 4);
    obs.time = sim::days(static_cast<std::int64_t>(i % 5)) +
               static_cast<std::int64_t>(i);
    store.add(obs);
  }
  return store;
}

void expect_same_rows(const core::ObservationStore& a,
                      const core::ObservationStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.target(i), b.target(i)) << "row " << i;
    EXPECT_EQ(a.response(i), b.response(i)) << "row " << i;
    EXPECT_EQ(a.type_code(i), b.type_code(i)) << "row " << i;
    EXPECT_EQ(a.time(i), b.time(i)) << "row " << i;
  }
  // The loaded store's indexes are rebuilt by replay: same uniqueness
  // accounting, same per-MAC index sizes.
  EXPECT_EQ(a.unique_responses(), b.unique_responses());
  EXPECT_EQ(a.unique_eui64_responses(), b.unique_eui64_responses());
  EXPECT_EQ(a.unique_eui64_iids(), b.unique_eui64_iids());
}

TEST(Crc32c, MatchesKnownVectorAndChunksFreely) {
  // RFC 3720 test vector: crc32c("123456789") == 0xe3069283.
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xe3069283u);

  Crc32c chunked;
  chunked.update(digits, 3);
  chunked.update(digits + 3, 1);
  chunked.update(digits + 4, 5);
  EXPECT_EQ(chunked.value(), 0xe3069283u);

  EXPECT_EQ(crc32c(digits, 0), 0u);
}

TEST(Snapshot, RoundTripPreservesRowsAndIndexes) {
  TempFile file{"roundtrip"};
  const auto store = make_store(500);
  SnapshotWriter writer;
  writer.append(store);
  EXPECT_EQ(writer.rows(), 500u);
  ASSERT_TRUE(writer.write(file.path));

  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path)) << to_string(reader.error());
  EXPECT_EQ(reader.rows(), 500u);
  auto loaded = reader.read_store();
  ASSERT_TRUE(loaded.has_value()) << to_string(reader.error());
  expect_same_rows(store, *loaded);
}

TEST(Snapshot, EmptyStoreRoundTrips) {
  TempFile file{"empty"};
  SnapshotWriter writer;
  ASSERT_TRUE(writer.write(file.path));
  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path));
  EXPECT_EQ(reader.rows(), 0u);
  EXPECT_EQ(reader.eui_pair_count(), 0u);
  const auto loaded = reader.read_store();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST(Snapshot, WriteReadRewriteIsByteStable) {
  TempFile first{"stable_a"};
  TempFile second{"stable_b"};
  const auto store = make_store(300);
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(first.path));

  SnapshotReader reader;
  ASSERT_TRUE(reader.open(first.path));
  const auto loaded = reader.read_store();
  ASSERT_TRUE(loaded.has_value());

  SnapshotWriter rewriter;
  rewriter.append(*loaded);
  ASSERT_TRUE(rewriter.write(second.path));
  EXPECT_EQ(slurp(first.path), slurp(second.path));
}

TEST(Snapshot, ViewAppendMatchesStoreAppend) {
  TempFile by_store{"via_store"};
  TempFile by_view{"via_view"};
  const auto store = make_store(200);

  SnapshotWriter store_writer;
  store_writer.append(store);
  ASSERT_TRUE(store_writer.write(by_store.path));

  // Two disjoint views covering the store — the engine's per-shard slices.
  SnapshotWriter view_writer;
  view_writer.append(store.view(0, 120));
  view_writer.append(store.view(120, 200));
  ASSERT_TRUE(view_writer.write(by_view.path));

  EXPECT_EQ(slurp(by_store.path), slurp(by_view.path));
}

TEST(Snapshot, LazyColumnReadsReturnExactColumns) {
  TempFile file{"lazy"};
  const auto store = make_store(250);
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));

  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path));
  std::vector<net::Ipv6Address> responses;
  std::vector<sim::TimePoint> times;
  ASSERT_TRUE(reader.read_responses(responses));
  ASSERT_TRUE(reader.read_times(times));
  ASSERT_EQ(responses.size(), 250u);
  ASSERT_EQ(times.size(), 250u);
  for (std::size_t i = 0; i < 250; ++i) {
    EXPECT_EQ(responses[i], store.response(i));
    EXPECT_EQ(times[i], store.time(i));
  }
}

TEST(Snapshot, EuiPairSectionHasSnapshotSemantics) {
  TempFile file{"pairs"};
  const auto store = make_store(400);
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));

  // Reference: an in-memory rotation Snapshot recorded over the same rows
  // (dedup by target, last response wins, first-recording order).
  core::Snapshot reference;
  for (std::size_t i = 0; i < store.size(); ++i) {
    reference.record(store.target(i), store.response(i));
  }

  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path));
  EXPECT_EQ(reader.eui_pair_count(), reference.map().size());
  std::vector<std::pair<net::Ipv6Address, net::Ipv6Address>> streamed;
  ASSERT_TRUE(reader.for_each_eui_pair(
      [&](net::Ipv6Address target, net::Ipv6Address response) {
        streamed.emplace_back(target, response);
      }));
  std::size_t i = 0;
  for (const auto& [target, response] : reference.map()) {
    ASSERT_LT(i, streamed.size());
    EXPECT_EQ(streamed[i].first, target);
    EXPECT_EQ(streamed[i].second, response);
    ++i;
  }
  EXPECT_EQ(i, streamed.size());
}

TEST(Snapshot, IncrementalRotationDiffMatchesFullDiff) {
  // Two "days": half the devices move networks, some disappear, some
  // appear. The incremental diff against the persisted day-1 snapshot
  // must produce exactly detect_rotation(day1, day2).
  core::ObservationStore day1;
  core::ObservationStore day2;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const net::Ipv6Address target{0x20010db800000000ULL | ((i % 32) << 16),
                                  i};
    const net::MacAddress mac{0x3a10d5000000ULL + i};
    core::Observation obs;
    obs.target = target;
    obs.time = 1;
    obs.response = net::Ipv6Address{0x2003e20000000000ULL + i * 256,
                                    net::mac_to_eui64(mac)};
    if (i % 5 != 4) day1.add(obs);  // i%5==4: appears only on day 2
    if (i % 3 == 0) {               // a third of the fleet rotates
      obs.response = net::Ipv6Address{0x2003e2000000ff00ULL + i * 256,
                                      net::mac_to_eui64(mac)};
    }
    if (i % 7 != 6) day2.add(obs);  // i%7==6: disappears on day 2
  }

  core::Snapshot snap1;
  core::Snapshot snap2;
  for (std::size_t i = 0; i < day1.size(); ++i) {
    snap1.record(day1.target(i), day1.response(i));
  }
  for (std::size_t i = 0; i < day2.size(); ++i) {
    snap2.record(day2.target(i), day2.response(i));
  }
  const auto full = core::detect_rotation(snap1, snap2);

  TempFile file{"incremental"};
  SnapshotWriter writer;
  writer.append(day1);
  ASSERT_TRUE(writer.write(file.path));
  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path));
  const auto incremental = core::detect_rotation_incremental(reader, snap2);
  ASSERT_TRUE(incremental.has_value());

  ASSERT_EQ(incremental->size(), full.size());
  ASSERT_FALSE(full.empty());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ((*incremental)[i].prefix, full[i].prefix);
    EXPECT_EQ((*incremental)[i].eui_targets, full[i].eui_targets);
    EXPECT_EQ((*incremental)[i].changed, full[i].changed);
    EXPECT_EQ((*incremental)[i].rotating, full[i].rotating);
  }
}

TEST(Snapshot, TrackerFollowsMacAcrossDaySnapshots) {
  // The Tracker's lazy cross-day follow: scan a snapshot chain for one
  // MAC's sightings, reading only the response and time columns.
  const net::MacAddress victim{0x3a10d5aabbccULL};
  TempFile day0{"follow_d0"};
  TempFile day1{"follow_d1"};
  for (int day = 0; day < 2; ++day) {
    core::ObservationStore store;
    core::Observation obs;
    // The victim, seen twice in the same /64 (collapses to one sighting).
    obs.target = net::Ipv6Address{0x20010db800000000ULL, 1};
    obs.response = net::Ipv6Address{0x2003e20000001000ULL + day * 256,
                                    net::mac_to_eui64(victim)};
    obs.type = wire::Icmpv6Type::kEchoReply;
    obs.time = sim::days(day) + 100;
    store.add(obs);
    store.add(obs);
    // A different device the scan must ignore.
    obs.response = net::Ipv6Address{
        0x2003e20000009900ULL, net::mac_to_eui64(net::MacAddress{0x1ULL})};
    store.add(obs);
    SnapshotWriter writer;
    writer.append(store);
    ASSERT_TRUE(writer.write(day == 0 ? day0.path : day1.path));
  }

  std::size_t failed = 0;
  const auto sightings = core::sightings_from_snapshots(
      {day0.path, "/nonexistent/missing.snap", day1.path}, victim, &failed);
  EXPECT_EQ(failed, 1u);  // the missing file is skipped and counted
  ASSERT_EQ(sightings.size(), 2u);
  EXPECT_EQ(sightings[0].day, 0);
  EXPECT_EQ(sightings[0].network, 0x2003e20000001000ULL);
  EXPECT_EQ(sightings[1].day, 1);
  EXPECT_EQ(sightings[1].network, 0x2003e20000001100ULL);
}

TEST(SnapshotErrors, MissingFileIsOpenFailed) {
  SnapshotReader reader;
  EXPECT_FALSE(reader.open("/nonexistent/dir/nope.snap"));
  EXPECT_EQ(reader.error(), SnapshotError::kOpenFailed);
}

TEST(SnapshotErrors, TruncationsAtEveryLayerFailCleanly) {
  TempFile file{"trunc"};
  const auto store = make_store(64);
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));
  const auto bytes = slurp(file.path);

  // Cut points: empty file, mid-magic, mid-fixed-header, mid-table,
  // header boundary minus one, mid-section, one byte short of complete.
  const std::size_t cuts[] = {0, 4, 20, 60, 147, 200, bytes.size() - 1};
  for (const std::size_t cut : cuts) {
    TempFile chopped{"trunc_cut"};
    dump(chopped.path,
         std::vector<unsigned char>(bytes.begin(), bytes.begin() + cut));
    SnapshotReader reader;
    EXPECT_FALSE(reader.open(chopped.path)) << "cut at " << cut;
    EXPECT_TRUE(reader.error() == SnapshotError::kTruncated ||
                reader.error() == SnapshotError::kCorruptSection)
        << "cut at " << cut << ": " << to_string(reader.error());
  }
}

TEST(SnapshotErrors, FlippedSectionByteFailsThatRead) {
  // Pinned to v1 — a copy of the committed v1 fixture — where byte 160 is
  // data inside the targets section (in a v2 file that offset lands in the
  // block directory, which open() itself rejects — covered in
  // snapshot_v2_test.cpp).
  TempFile file{"flip"};
  auto bytes = slurp(std::string{SCENT_TEST_DATA_DIR} + "/v1_fixture.snap");
  ASSERT_GT(bytes.size(), 160u);
  ASSERT_EQ(bytes[8], kSnapshotFormatV1);  // low byte of the version field

  // Flip one byte inside the targets section (just past the header).
  bytes[160] ^= 0x40;
  dump(file.path, bytes);

  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path));  // header is intact
  std::vector<net::Ipv6Address> targets;
  EXPECT_FALSE(reader.read_targets(targets));
  EXPECT_EQ(reader.error(), SnapshotError::kCorruptSection);
  EXPECT_TRUE(targets.empty());

  // The whole-store path reports the same failure.
  SnapshotReader again;
  ASSERT_TRUE(again.open(file.path));
  EXPECT_FALSE(again.read_store().has_value());
  EXPECT_EQ(again.error(), SnapshotError::kCorruptSection);
}

TEST(SnapshotErrors, FlippedEuiPairByteFailsIncrementalDiff) {
  TempFile file{"flip_pairs"};
  const auto store = make_store(64);
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));
  auto bytes = slurp(file.path);
  bytes[bytes.size() - 5] ^= 0x01;  // inside the trailing eui_pairs section
  dump(file.path, bytes);

  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path));
  const core::Snapshot empty_day;
  EXPECT_FALSE(
      core::detect_rotation_incremental(reader, empty_day).has_value());
  EXPECT_EQ(reader.error(), SnapshotError::kCorruptSection);
}

TEST(SnapshotErrors, FlippedHeaderByteFailsOpen) {
  TempFile file{"flip_header"};
  SnapshotWriter writer;
  writer.append(make_store(16));
  ASSERT_TRUE(writer.write(file.path));
  auto bytes = slurp(file.path);
  bytes[44] ^= 0x20;  // inside the section table
  dump(file.path, bytes);

  SnapshotReader reader;
  EXPECT_FALSE(reader.open(file.path));
  EXPECT_TRUE(reader.error() == SnapshotError::kCorruptSection ||
              reader.error() == SnapshotError::kTruncated)
      << to_string(reader.error());
}

TEST(SnapshotErrors, BadMagicRejected) {
  TempFile file{"magic"};
  SnapshotWriter writer;
  ASSERT_TRUE(writer.write(file.path));
  auto bytes = slurp(file.path);
  bytes[0] = 'X';
  dump(file.path, bytes);
  SnapshotReader reader;
  EXPECT_FALSE(reader.open(file.path));
  EXPECT_EQ(reader.error(), SnapshotError::kBadMagic);
}

TEST(SnapshotErrors, UnsupportedVersionRejected) {
  TempFile file{"version"};
  SnapshotWriter writer;
  ASSERT_TRUE(writer.write(file.path));
  auto bytes = slurp(file.path);
  bytes[8] = 99;  // version checked before the header CRC, so no re-CRC
  dump(file.path, bytes);
  SnapshotReader reader;
  EXPECT_FALSE(reader.open(file.path));
  EXPECT_EQ(reader.error(), SnapshotError::kBadVersion);
}

TEST(SnapshotErrors, ReadsAfterFailedOpenStayFailed) {
  SnapshotReader reader;
  EXPECT_FALSE(reader.open("/nonexistent/dir/nope.snap"));
  std::vector<net::Ipv6Address> out;
  EXPECT_FALSE(reader.read_targets(out));
  EXPECT_FALSE(reader.read_store().has_value());
  EXPECT_EQ(reader.error(), SnapshotError::kOpenFailed);
}

#ifdef __linux__
TEST(SnapshotErrors, DiskFullIsReportedNotSwallowed) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full not available";
  std::fclose(probe);

  SnapshotWriter writer;
  writer.append(make_store(4096));
  EXPECT_FALSE(writer.write("/dev/full"));
}
#endif

}  // namespace
}  // namespace scent::corpus
