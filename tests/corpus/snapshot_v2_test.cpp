// Tests for snapshot format v2: multi-block round trips, byte stability at
// any thread count, block-skipping row-window reads, block min/max stats,
// the committed frozen-v1 fixture, mixed-version chains — and the corrupt-
// input matrix (truncation mid-block, flipped compressed bytes, forged
// block indexes, disk-full writes), which must all be typed SnapshotErrors,
// never UB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analysis/input.h"
#include "core/rotation_detector.h"
#include "corpus/crc32c.h"
#include "corpus/snapshot.h"
#include "netbase/eui64.h"

namespace scent::corpus {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* tag) {
    path = std::string{::testing::TempDir()} + "/scent_snapv2_" + tag + "_" +
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

std::uint32_t load_u32(const std::vector<unsigned char>& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) |
         static_cast<std::uint32_t>(b[at + 1]) << 8 |
         static_cast<std::uint32_t>(b[at + 2]) << 16 |
         static_cast<std::uint32_t>(b[at + 3]) << 24;
}

std::uint64_t load_u64(const std::vector<unsigned char>& b, std::size_t at) {
  return static_cast<std::uint64_t>(load_u32(b, at)) |
         static_cast<std::uint64_t>(load_u32(b, at + 4)) << 32;
}

void store_u32(std::vector<unsigned char>& b, std::size_t at,
               std::uint32_t v) {
  b[at] = static_cast<unsigned char>(v);
  b[at + 1] = static_cast<unsigned char>(v >> 8);
  b[at + 2] = static_cast<unsigned char>(v >> 16);
  b[at + 3] = static_cast<unsigned char>(v >> 24);
}

/// Locates section `id` in a snapshot's raw bytes via the header table.
/// Returns {table entry offset, section offset, section size}.
struct SectionLoc {
  std::size_t entry = 0;
  std::size_t offset = 0;
  std::size_t size = 0;
};
SectionLoc locate_section(const std::vector<unsigned char>& bytes,
                          std::uint32_t id) {
  const std::uint32_t count = load_u32(bytes, 20);
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::size_t entry = 24 + std::size_t{24} * k;
    if (load_u32(bytes, entry) == id) {
      return SectionLoc{entry, static_cast<std::size_t>(load_u64(bytes, entry + 4)),
                        static_cast<std::size_t>(load_u64(bytes, entry + 12))};
    }
  }
  ADD_FAILURE() << "section " << id << " not found";
  return {};
}

/// Same recipe as snapshot_test.cpp (and the committed v1 fixture, which
/// was generated from exactly this function at rows=1000 — keep them in
/// sync or the fixture test below will tell you).
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

/// Shared multi-block corpus: 150k rows = 3 blocks per column section
/// (and, since every target is distinct, 3 blocks of EUI pairs too).
constexpr std::size_t kBigRows = 150000;
const core::ObservationStore& big_store() {
  static const core::ObservationStore store = make_store(kBigRows);
  return store;
}

/// The committed v2 golden fixture's store (v2_fixture.snap): two full
/// blocks plus a partial one, shaped to reach every branch of the address
/// dictionary builder. Block 0's targets are 64Ki distinct networks in
/// shuffled order; block 1's targets and responses each sit in one network;
/// block 2's target networks differ only in bit 63 or only in bit 0, and its
/// responses are EUI-64, with every target answered twice (the EUI-pair
/// section keeps the later response). The fixture was generated once from
/// this function — changing it breaks the fixture test, by design.
constexpr std::size_t kV2FixtureRows = 2 * kSnapshotBlockElements + 1000;
core::ObservationStore make_v2_fixture_store() {
  core::ObservationStore store;
  for (std::size_t i = 0; i < kV2FixtureRows; ++i) {
    const std::size_t block = i / kSnapshotBlockElements;
    const std::uint64_t j = i % kSnapshotBlockElements;
    core::Observation obs;
    if (block == 0) {
      // A bijection on 16 bits (odd multiplies and xorshifts): every
      // network distinct, in no sorted order.
      std::uint64_t x = (j * 0x9e37) & 0xffff;
      x ^= x >> 7;
      x = (x * 0x2c1b) & 0xffff;
      x ^= x >> 9;
      obs.target = net::Ipv6Address{0x20010db800000000ULL | (x << 4), 0x1};
      obs.response = net::Ipv6Address{
          0x2003e20000000000ULL | ((j % 16) << 8), 0x0123456789abULL + j};
    } else if (block == 1) {
      obs.target = net::Ipv6Address{0x2a02058000070000ULL, 3 * j};
      obs.response = net::Ipv6Address{0x2a02058000070000ULL, 1 + (j % 7)};
    } else {
      std::uint64_t network = 0x2003e20000000100ULL;
      if ((j & 1) != 0) network ^= std::uint64_t{1} << 63;
      if ((j & 2) != 0) network ^= 1;
      obs.target = net::Ipv6Address{network, 0xbeef0000 + (j % 500)};
      const net::MacAddress mac{0x3a10d5000000ULL + (j % 24)};
      obs.response = net::Ipv6Address{0x2003e20000000000ULL | ((j % 16) << 8),
                                      net::mac_to_eui64(mac)};
    }
    if ((i / 97) % 3 == 0) {
      obs.type = wire::Icmpv6Type::kDestinationUnreachable;
      obs.code = static_cast<std::uint8_t>(1 + (i / 97) % 4);
    } else {
      obs.type = wire::Icmpv6Type::kEchoReply;
      obs.code = 0;
    }
    obs.time = sim::hours(12) + static_cast<std::int64_t>(i) * 100 +
               static_cast<std::int64_t>(i / 1000) * 7;
    store.add(obs);
  }
  return store;
}

void expect_same_rows(const core::ObservationStore& a,
                      const core::ObservationStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.target(i), b.target(i)) << "row " << i;
    ASSERT_EQ(a.response(i), b.response(i)) << "row " << i;
    ASSERT_EQ(a.type_code(i), b.type_code(i)) << "row " << i;
    ASSERT_EQ(a.time(i), b.time(i)) << "row " << i;
  }
  EXPECT_EQ(a.unique_responses(), b.unique_responses());
  EXPECT_EQ(a.unique_eui64_responses(), b.unique_eui64_responses());
  EXPECT_EQ(a.unique_eui64_iids(), b.unique_eui64_iids());
}

TEST(SnapshotV2, MultiBlockRoundTripPreservesRows) {
  TempFile file{"roundtrip"};
  const auto& store = big_store();
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));

  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path)) << to_string(reader.error());
  EXPECT_EQ(reader.version(), kSnapshotFormatV2);
  EXPECT_EQ(reader.rows(), kBigRows);
  auto loaded = reader.read_store();
  ASSERT_TRUE(loaded.has_value()) << to_string(reader.error());
  expect_same_rows(store, *loaded);
}

TEST(SnapshotV2, BytesIdenticalAtAnyThreadCountBothDirections) {
  TempFile serial{"stable_t1"};
  TempFile parallel{"stable_t8"};
  SnapshotWriter one;
  one.set_threads(1);
  one.append(big_store());
  ASSERT_TRUE(one.write(serial.path));

  SnapshotWriter eight;
  eight.set_threads(8);
  eight.append(big_store());
  ASSERT_TRUE(eight.write(parallel.path));
  EXPECT_EQ(slurp(serial.path), slurp(parallel.path));

  // And the reader decodes the same rows at any thread count.
  SnapshotReader serial_reader;
  serial_reader.set_threads(1);
  ASSERT_TRUE(serial_reader.open(serial.path));
  const auto from_one = serial_reader.read_store();
  ASSERT_TRUE(from_one.has_value());

  SnapshotReader parallel_reader;
  parallel_reader.set_threads(8);
  ASSERT_TRUE(parallel_reader.open(parallel.path));
  const auto from_eight = parallel_reader.read_store();
  ASSERT_TRUE(from_eight.has_value());
  expect_same_rows(*from_one, *from_eight);
}

TEST(SnapshotV2, CompressesWellBelowV1) {
  TempFile v2{"cmp_v2"};
  SnapshotWriter w2;
  w2.append(big_store());
  ASSERT_TRUE(w2.write(v2.path));

  // The frozen v1 layout's size is a closed form (pinned against the
  // committed fixture by CommittedV1FixtureLoadsForever): header + 42 B/row
  // + 32 B/pair.
  const std::uint64_t v1_bytes =
      148u + std::uint64_t{kBigRows} * 42u + w2.eui_pair_count() * 32u;
  const std::uint64_t v2_bytes = w2.encoded_size();
  EXPECT_EQ(v2_bytes, slurp(v2.path).size());
  // The hard >= 3x floor lives in bench_micro on the campaign-shaped bench
  // corpus; this synthetic store still must compress at least 2x.
  EXPECT_LT(v2_bytes * 2, v1_bytes)
      << "v2 " << v2_bytes << " vs v1 " << v1_bytes;
}

TEST(SnapshotV2, EncodedSizeMatchesFileAndInvalidatesOnAppend) {
  TempFile first{"size_a"};
  TempFile second{"size_b"};
  SnapshotWriter writer;
  writer.append(big_store());
  // Dry-run encode before any write...
  const std::uint64_t before = writer.encoded_size();
  ASSERT_TRUE(writer.write(first.path));
  EXPECT_EQ(before, slurp(first.path).size());
  // ...the post-write cached answer...
  EXPECT_EQ(writer.encoded_size(), before);

  // ...and the cache is invalidated by append: the new size matches the
  // new file, not the stale one.
  core::Observation extra;
  extra.target = net::Ipv6Address{0x20010db800000000ULL, 0x1};
  extra.response = net::Ipv6Address{0x2003e20000000000ULL, 0x2};
  extra.time = 7;
  writer.append(extra);
  const std::uint64_t after = writer.encoded_size();
  ASSERT_TRUE(writer.write(second.path));
  EXPECT_EQ(after, slurp(second.path).size());
}

TEST(SnapshotV2, RangeReadsMatchFullReadSlices) {
  TempFile file{"ranges"};
  SnapshotWriter writer;
  writer.append(big_store());
  ASSERT_TRUE(writer.write(file.path));

  SnapshotReader full;
  ASSERT_TRUE(full.open(file.path));
  std::vector<net::Ipv6Address> targets, responses;
  std::vector<std::uint16_t> type_codes;
  std::vector<sim::TimePoint> times;
  ASSERT_TRUE(full.read_targets(targets));
  ASSERT_TRUE(full.read_responses(responses));
  ASSERT_TRUE(full.read_type_codes(type_codes));
  ASSERT_TRUE(full.read_times(times));

  // Windows: everything, a block-boundary straddle, strictly inside one
  // block, a clamped tail overhang, and an empty window.
  const std::pair<std::uint64_t, std::uint64_t> windows[] = {
      {0, kBigRows},
      {kSnapshotBlockElements - 10, 20},
      {70000, 1000},
      {kBigRows - 5, 100},
      {40, 0},
  };
  for (const auto& [first, count] : windows) {
    SCOPED_TRACE(testing::Message() << "window [" << first << ", +" << count
                                    << ")");
    const std::uint64_t clamped =
        std::min<std::uint64_t>(count, kBigRows - first);
    SnapshotReader reader;
    ASSERT_TRUE(reader.open(file.path));
    std::vector<net::Ipv6Address> wt, wr;
    std::vector<std::uint16_t> wtc;
    std::vector<sim::TimePoint> wtm;
    ASSERT_TRUE(reader.read_targets(wt, first, count));
    ASSERT_TRUE(reader.read_responses(wr, first, count));
    ASSERT_TRUE(reader.read_type_codes(wtc, first, count));
    ASSERT_TRUE(reader.read_times(wtm, first, count));
    ASSERT_EQ(wt.size(), clamped);
    const auto b = static_cast<std::ptrdiff_t>(first);
    const auto e = b + static_cast<std::ptrdiff_t>(clamped);
    EXPECT_TRUE(std::equal(wt.begin(), wt.end(), targets.begin() + b,
                           targets.begin() + e));
    EXPECT_TRUE(std::equal(wr.begin(), wr.end(), responses.begin() + b,
                           responses.begin() + e));
    EXPECT_TRUE(std::equal(wtc.begin(), wtc.end(), type_codes.begin() + b,
                           type_codes.begin() + e));
    EXPECT_TRUE(std::equal(wtm.begin(), wtm.end(), times.begin() + b,
                           times.begin() + e));
    if (clamped > 0 && clamped < kBigRows) {
      // A proper sub-window must have skipped the non-overlapping blocks.
      EXPECT_GT(reader.blocks_skipped(), 0u);
    }
  }
}

TEST(SnapshotV2, TimeRangeComesFromBlockStats) {
  TempFile file{"times"};
  const auto& store = big_store();
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));

  sim::TimePoint lo = store.time(0);
  sim::TimePoint hi = store.time(0);
  for (std::size_t i = 1; i < store.size(); ++i) {
    lo = std::min(lo, store.time(i));
    hi = std::max(hi, store.time(i));
  }
  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path));
  const auto range = reader.time_range();
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, lo);
  EXPECT_EQ(range->second, hi);
  // The day predicate costs no payload decode: nothing read, nothing
  // counted as skipped either (no window predicate ran).
  EXPECT_EQ(reader.blocks_read(), 0u);
}

TEST(SnapshotV2, EmptySnapshotRoundTrips) {
  TempFile file{"empty"};
  SnapshotWriter writer;
  ASSERT_TRUE(writer.write(file.path));
  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path)) << to_string(reader.error());
  EXPECT_EQ(reader.version(), kSnapshotFormatV2);
  EXPECT_EQ(reader.rows(), 0u);
  EXPECT_EQ(reader.eui_pair_count(), 0u);
  EXPECT_FALSE(reader.time_range().has_value());
  std::vector<net::Ipv6Address> out;
  EXPECT_TRUE(reader.read_targets(out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(reader.read_targets(out, 0, 10));  // clamps to nothing
  EXPECT_TRUE(out.empty());
  const auto loaded = reader.read_store();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST(SnapshotV2, MultiBlockEuiPairStreamKeepsSnapshotSemantics) {
  TempFile file{"pairs"};
  const auto& store = big_store();
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));

  core::Snapshot reference;
  for (std::size_t i = 0; i < store.size(); ++i) {
    reference.record(store.target(i), store.response(i));
  }
  std::vector<std::pair<net::Ipv6Address, net::Ipv6Address>> want;
  for (const auto& [target, response] : reference.map()) {
    want.emplace_back(target, response);
  }

  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path));
  ASSERT_EQ(reader.eui_pair_count(), want.size());
  std::size_t i = 0;
  bool mismatch = false;
  ASSERT_TRUE(reader.for_each_eui_pair(
      [&](net::Ipv6Address target, net::Ipv6Address response) {
        if (i >= want.size() || target != want[i].first ||
            response != want[i].second) {
          mismatch = true;
        }
        ++i;
      }));
  EXPECT_EQ(i, want.size());
  EXPECT_FALSE(mismatch);
}

TEST(SnapshotV2, CommittedV1FixtureLoadsForever) {
  // The frozen-v1 compatibility fixture: generated once (from this exact
  // make_store recipe at 1000 rows), committed, and never regenerated. If
  // this test fails, the v1 read path broke — fix the reader, not the
  // fixture.
  const std::string path =
      std::string{SCENT_TEST_DATA_DIR} + "/v1_fixture.snap";
  SnapshotReader reader;
  ASSERT_TRUE(reader.open(path)) << to_string(reader.error());
  EXPECT_EQ(reader.version(), kSnapshotFormatV1);
  EXPECT_EQ(reader.rows(), 1000u);
  EXPECT_FALSE(reader.time_range().has_value());  // v1 has no block stats

  const auto expected = make_store(1000);
  auto loaded = reader.read_store();
  ASSERT_TRUE(loaded.has_value()) << to_string(reader.error());
  expect_same_rows(expected, *loaded);

  // The frozen layout is a closed-form size: header + 42 B/row + 32 B/pair.
  EXPECT_EQ(slurp(path).size(),
            148u + 1000u * 42u + reader.eui_pair_count() * 32u);

  // v1 row-window reads slice the full section — correct, no block math.
  SnapshotReader window_reader;
  ASSERT_TRUE(window_reader.open(path));
  std::vector<net::Ipv6Address> window;
  ASSERT_TRUE(window_reader.read_responses(window, 100, 50));
  ASSERT_EQ(window.size(), 50u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i], expected.response(100 + i));
  }
  EXPECT_EQ(window_reader.blocks_read(), 0u);
  EXPECT_EQ(window_reader.blocks_skipped(), 0u);
}

TEST(SnapshotV2, CommittedV2FixtureIsReproducedByteForByte) {
  // The v2 golden fixture: generated once (by the sort-and-search
  // dictionary encoder, from make_v2_fixture_store), committed, and never
  // regenerated. Today's encoder must reproduce it exactly at any thread
  // count — if this fails, the writer changed the format; fix the writer,
  // not the fixture.
  const std::string path =
      std::string{SCENT_TEST_DATA_DIR} + "/v2_fixture.snap";
  const auto fixture = slurp(path);
  const auto store = make_v2_fixture_store();
  for (const unsigned threads : {1u, 4u}) {
    TempFile out{"v2_fixture"};
    SnapshotWriter writer;
    writer.set_threads(threads);
    writer.append(store);
    ASSERT_TRUE(writer.write(out.path));
    // EXPECT_TRUE, not EXPECT_EQ: a mismatch must not print 700 KB.
    EXPECT_TRUE(slurp(out.path) == fixture) << "threads=" << threads;
  }

  SnapshotReader reader;
  ASSERT_TRUE(reader.open(path)) << to_string(reader.error());
  EXPECT_EQ(reader.version(), kSnapshotFormatV2);
  EXPECT_EQ(reader.rows(), kV2FixtureRows);
  EXPECT_EQ(reader.eui_pair_count(), 500u);
  auto loaded = reader.read_store();
  ASSERT_TRUE(loaded.has_value()) << to_string(reader.error());
  expect_same_rows(store, *loaded);
}

TEST(SnapshotV2, MixedVersionChainScansLikeTheStore) {
  // A checkpoint chain written partly before v2 existed: the committed v1
  // fixture, then a multi-block v2 file, then the v1 fixture again.
  // ChainInput must not care.
  const std::string v1_path =
      std::string{SCENT_TEST_DATA_DIR} + "/v1_fixture.snap";
  const auto v1_store = make_store(1000);
  const auto v2_store = big_store().view(60000, 130000);
  TempFile middle{"chain_v2"};
  {
    SnapshotWriter writer;
    writer.append(v2_store);
    ASSERT_TRUE(writer.write(middle.path));
  }
  const std::string paths[3] = {v1_path, middle.path, v1_path};

  // The expected chain, row by row: fixture rows, v2 rows, fixture rows.
  std::vector<net::Ipv6Address> want_targets, want_responses;
  std::vector<sim::TimePoint> want_times;
  const auto expect_rows = [&](const core::ObservationStore::View& view) {
    for (std::size_t i = 0; i < view.size(); ++i) {
      want_targets.push_back(view.target(i));
      want_responses.push_back(view.response(i));
      want_times.push_back(view.time(i));
    }
  };
  expect_rows(v1_store.all());
  expect_rows(v2_store);
  expect_rows(v1_store.all());
  const std::size_t total_rows = want_targets.size();

  analysis::ChainInput chain{{paths[0], paths[1], paths[2]}};
  ASSERT_EQ(chain.rows(), total_rows);
  EXPECT_EQ(chain.failed_files(), 0u);

  // Full scan: every row, in order, identical to the in-memory columns.
  std::vector<net::Ipv6Address> targets, responses;
  std::vector<sim::TimePoint> times;
  chain.scan(0, total_rows, true,
             [&](std::size_t first_row,
                 std::span<const net::Ipv6Address> t,
                 std::span<const net::Ipv6Address> r,
                 std::span<const sim::TimePoint> tm) {
               ASSERT_EQ(first_row, targets.size());
               targets.insert(targets.end(), t.begin(), t.end());
               responses.insert(responses.end(), r.begin(), r.end());
               times.insert(times.end(), tm.begin(), tm.end());
             });
  ASSERT_EQ(targets.size(), total_rows);
  EXPECT_TRUE(targets == want_targets);
  EXPECT_TRUE(responses == want_responses);
  EXPECT_TRUE(times == want_times);

  // A window inside the v2 file's first block: chain rows 6000..7000 are
  // file rows 5000..6000 of the 70000-row middle file, so its second block
  // is skipped for every column the scan materializes.
  analysis::ChainInput windowed{{paths[0], paths[1], paths[2]}};
  std::vector<net::Ipv6Address> wr;
  windowed.scan(6000, 7000, false,
                [&](std::size_t, std::span<const net::Ipv6Address>,
                    std::span<const net::Ipv6Address> r,
                    std::span<const sim::TimePoint>) {
                  wr.insert(wr.end(), r.begin(), r.end());
                });
  ASSERT_EQ(wr.size(), 1000u);
  for (std::size_t i = 0; i < wr.size(); ++i) {
    ASSERT_EQ(wr[i], want_responses[6000 + i]) << "row " << i;
  }
  EXPECT_GT(windowed.blocks_read(), 0u);
  EXPECT_GT(windowed.blocks_skipped(), 0u);
}

// ---- Corrupt-input matrix --------------------------------------------

TEST(SnapshotV2Errors, TruncationMidBlockFailsCleanly) {
  TempFile file{"trunc"};
  SnapshotWriter writer;
  writer.append(big_store());
  ASSERT_TRUE(writer.write(file.path));
  const auto bytes = slurp(file.path);

  // Cuts land mid-directory, mid-block-payload, and one byte short; every
  // section size is in the (CRC-protected) header, so all are caught at
  // open before any payload is trusted.
  const std::size_t cuts[] = {150, 200, bytes.size() / 2, bytes.size() - 1};
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

TEST(SnapshotV2Errors, FlippedBlockByteFailsOnlyOverlappingReads) {
  TempFile file{"flip_block"};
  SnapshotWriter writer;
  writer.append(big_store());
  ASSERT_TRUE(writer.write(file.path));
  auto bytes = slurp(file.path);

  // Flip one bit inside block 0 of the targets section (just past its
  // block directory).
  const SectionLoc sec = locate_section(bytes, 1);
  const std::size_t dir_bytes = 4 + std::size_t{36} * load_u32(bytes, sec.offset);
  bytes[sec.offset + dir_bytes + 10] ^= 0x04;
  dump(file.path, bytes);

  // The directory is intact, so open succeeds; a full targets read must
  // CRC-fail...
  SnapshotReader full;
  ASSERT_TRUE(full.open(file.path)) << to_string(full.error());
  std::vector<net::Ipv6Address> targets;
  EXPECT_FALSE(full.read_targets(targets));
  EXPECT_EQ(full.error(), SnapshotError::kCorruptSection);
  EXPECT_TRUE(targets.empty());

  // ...other columns are untouched...
  SnapshotReader other;
  ASSERT_TRUE(other.open(file.path));
  std::vector<net::Ipv6Address> responses;
  EXPECT_TRUE(other.read_responses(responses));
  EXPECT_EQ(responses.size(), kBigRows);

  // ...and a window that never touches the damaged block reads fine:
  // per-block CRC means damage is only seen by reads that overlap it.
  SnapshotReader window;
  ASSERT_TRUE(window.open(file.path));
  std::vector<net::Ipv6Address> tail;
  ASSERT_TRUE(window.read_targets(tail, 70000, 1000));
  ASSERT_EQ(tail.size(), 1000u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    ASSERT_EQ(tail[i], big_store().target(70000 + i));
  }

  // But any window overlapping block 0 fails with the same typed error.
  SnapshotReader overlap;
  ASSERT_TRUE(overlap.open(file.path));
  std::vector<net::Ipv6Address> head;
  EXPECT_FALSE(overlap.read_targets(head, 0, 10));
  EXPECT_EQ(overlap.error(), SnapshotError::kCorruptSection);
}

TEST(SnapshotV2Errors, DamagedBlockDirectoryFailsOpen) {
  TempFile file{"flip_dir"};
  SnapshotWriter writer;
  writer.append(big_store());
  ASSERT_TRUE(writer.write(file.path));
  auto bytes = slurp(file.path);

  // A flipped byte inside the block directory of section 1: the section-
  // table CRC covers the directory, so the forged index never survives
  // open — no payload is ever sized or read from it.
  const SectionLoc sec = locate_section(bytes, 1);
  bytes[sec.offset + 9] ^= 0x10;  // inside block 0's directory entry
  dump(file.path, bytes);
  SnapshotReader reader;
  EXPECT_FALSE(reader.open(file.path));
  EXPECT_EQ(reader.error(), SnapshotError::kCorruptSection);
}

TEST(SnapshotV2Errors, ForgedButCrcValidBlockIndexIsBadLayout) {
  TempFile file{"forged_dir"};
  SnapshotWriter writer;
  writer.append(big_store());
  ASSERT_TRUE(writer.write(file.path));
  auto bytes = slurp(file.path);

  // An adversarial (or bit-rotted-then-rehashed) directory whose CRCs all
  // check out but whose element counts no longer sum to the row count:
  // bump block 0's element count, then recompute the directory CRC in the
  // section table and the header CRC over it. The structural validator
  // must still reject it — as kBadLayout, not a crash or overread.
  const SectionLoc sec = locate_section(bytes, 1);
  const std::uint32_t block_count = load_u32(bytes, sec.offset);
  ASSERT_GE(block_count, 2u);
  const std::size_t dir_bytes = 4 + std::size_t{36} * block_count;
  const std::size_t elements_at = sec.offset + 4 + 8;
  store_u32(bytes, elements_at, load_u32(bytes, elements_at) + 1);
  store_u32(bytes, sec.entry + 20,
            crc32c(bytes.data() + sec.offset, dir_bytes));
  store_u32(bytes, 144, crc32c(bytes.data(), 144));
  dump(file.path, bytes);

  SnapshotReader reader;
  EXPECT_FALSE(reader.open(file.path));
  EXPECT_EQ(reader.error(), SnapshotError::kBadLayout);
}

#ifdef __linux__
TEST(SnapshotV2Errors, DiskFullDuringCompressedWriteIsReported) {
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
