// Tests for the block-compressed snapshot format: multi-block round trips,
// byte stability at any thread count, block-skipping row-window reads,
// block min/max stats, the committed golden sections, the EUI pairs derived
// on read — and the corrupt-input matrix (truncation mid-block, flipped
// compressed bytes, forged block indexes, disk-full writes), which must all
// be typed FileErrors, never UB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/rotation_detector.h"
#include "corpus/snapshot.h"
#include "corpus/snapshot_layout.h"
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

using layout::get_u32;
using layout::get_u64;

/// Locates section `id` of a committed format-2 fixture via its header
/// table. Returns {section offset, section size}.
struct SectionLoc {
  std::size_t offset = 0;
  std::size_t size = 0;
};
SectionLoc locate_section(const std::vector<unsigned char>& bytes,
                          std::uint32_t id) {
  const std::uint32_t count = get_u32(bytes, 20);
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::size_t entry = 24 + std::size_t{24} * k;
    if (get_u32(bytes, entry) == id) {
      return SectionLoc{static_cast<std::size_t>(get_u64(bytes, entry + 4)),
                        static_cast<std::size_t>(get_u64(bytes, entry + 12))};
    }
  }
  ADD_FAILURE() << "section " << id << " not found";
  return {};
}

/// Same recipe as snapshot_test.cpp.
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

/// Shared multi-block corpus: 150k rows = 3 blocks per column section.
constexpr std::size_t kBigRows = 150000;
const core::ObservationStore& big_store() {
  static const core::ObservationStore store = make_store(kBigRows);
  return store;
}

/// The committed golden fixture's store (v2_fixture.snap): two full
/// blocks plus a partial one, shaped to reach every branch of the address
/// dictionary builder. Block 0's targets are 64Ki distinct networks in
/// shuffled order; block 1's targets and responses each sit in one network;
/// block 2's target networks differ only in bit 63 or only in bit 0, and its
/// responses are EUI-64, with every target answered twice (the EUI pairs
/// keep the later response). The fixture was generated once from this
/// function — changing it breaks the fixture test, by design.
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

/// The committed campaign-shaped golden fixture's store
/// (v2_campaign_fixture.snap): two full blocks plus a partial one, shaped
/// like a sweep day. Block b probes each /64 of the b-th /48 once (the
/// partial block, 1,000 of them), in a shuffled order, so every target is
/// distinct and the blocks' network ranges strictly increase; every
/// response is EUI-64, from one of 64 networks and 24 MACs. Every row is
/// therefore its own EUI pair, in row order. The fixture was generated once
/// from this function — changing it breaks the fixture test, by design.
constexpr std::size_t kCampaignFixtureRows = 2 * kSnapshotBlockElements + 1000;
core::ObservationStore make_campaign_fixture_store() {
  core::ObservationStore store;
  for (std::size_t i = 0; i < kCampaignFixtureRows; ++i) {
    const std::uint64_t unit = i / kSnapshotBlockElements;
    const std::uint64_t j = i % kSnapshotBlockElements;
    // A bijection on 16 bits (odd multiplies and xorshifts).
    std::uint64_t x = (j * 0x9e37) & 0xffff;
    x ^= x >> 7;
    x = (x * 0x2c1b) & 0xffff;
    x ^= x >> 9;
    core::Observation obs;
    obs.target =
        net::Ipv6Address{0x2a02058000000000ULL | (unit << 16) | x, 0x1};
    const net::MacAddress mac{0x3a10d5000000ULL + (j % 24)};
    obs.response = net::Ipv6Address{0x2003e20000000000ULL | ((j % 64) << 8),
                                    net::mac_to_eui64(mac)};
    obs.type = wire::Icmpv6Type::kEchoReply;
    obs.code = 0;
    obs.time = sim::hours(6) + static_cast<std::int64_t>(i) * 250;
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

  // The retired flat v1 layout's size is a closed form: header + 42 B/row
  // + 32 B per deduplicated EUI pair.
  core::Snapshot pairs;
  pairs.record_rows(big_store().target_column(),
                    big_store().response_column());
  const std::uint64_t v1_bytes =
      148u + std::uint64_t{kBigRows} * 42u + pairs.map().size() * 32u;
  const std::uint64_t v2_bytes = w2.encoded_size();
  EXPECT_EQ(v2_bytes, slurp(v2.path).size());
  // The hard >= 3x floor lives in bench_micro on the campaign-shaped bench
  // corpus; this synthetic store still must compress at least 2x.
  EXPECT_LT(v2_bytes * 2, v1_bytes)
      << "v2 " << v2_bytes << " vs v1 " << v1_bytes;
}

TEST(SnapshotV2, EncodedSizeIsTheLastWrittenFileSize) {
  TempFile first{"size_a"};
  TempFile second{"size_b"};
  core::ObservationStore store = big_store();
  SnapshotWriter writer;
  writer.append(store);
  EXPECT_EQ(writer.encoded_size(), 0u);  // nothing written yet
  ASSERT_TRUE(writer.write(first.path));
  const std::uint64_t before = writer.encoded_size();
  EXPECT_EQ(before, slurp(first.path).size());

  // The store grows by a row the writer's rows then continue into: the
  // size changes nothing until the next write, whose file it describes.
  core::Observation extra;
  extra.target = net::Ipv6Address{0x20010db800000000ULL, 0x1};
  extra.response = net::Ipv6Address{0x2003e20000000000ULL, 0x2};
  extra.time = 7;
  store.add(extra);
  writer.append(store.view(kBigRows, store.size()));
  EXPECT_EQ(writer.rows(), kBigRows + 1);
  EXPECT_EQ(writer.encoded_size(), before);
  ASSERT_TRUE(writer.write(second.path));
  EXPECT_EQ(writer.encoded_size(), slurp(second.path).size());
  EXPECT_NE(writer.encoded_size(), before);
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
  EXPECT_EQ(reader.rows(), 0u);
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
  std::size_t i = 0;
  bool mismatch = false;
  ASSERT_TRUE(reader.for_each_eui_pair(
      [&](net::Ipv6Address target, net::Ipv6Address response) {
        if (i >= want.size() || target != want[i].first ||
            response != want[i].second) {
          mismatch = true;
        }
        ++i;
        return true;
      }));
  EXPECT_EQ(i, want.size());
  EXPECT_FALSE(mismatch);
}

/// One row fed to the pair tests, in the writer's column terms.
struct PairRow {
  net::Ipv6Address target;
  net::Ipv6Address response;
  std::uint16_t type_code = 0;
  sim::TimePoint time = 0;
};

core::ObservationStore store_of(const std::vector<PairRow>& rows) {
  core::ObservationStore store;
  for (const PairRow& row : rows) {
    store.add_packed(row.target, row.response, row.type_code, row.time);
  }
  return store;
}

/// Writes `rows` from one store through both append forms — three
/// continuing Views, and the whole store — at `threads` writer threads,
/// checks that both write the same bytes, and checks the pairs the reader
/// derives against a core::Snapshot recorded row by row. Returns the file
/// bytes.
std::vector<unsigned char> write_pairs_and_check(
    const std::vector<PairRow>& rows, unsigned threads) {
  const std::size_t a = rows.size() / 5;
  const std::size_t b = rows.size() / 2;
  const core::ObservationStore store = store_of(rows);

  SnapshotWriter writer;
  writer.set_threads(threads);
  writer.append(store.view(0, a));
  writer.append(store.view(a, b));
  writer.append(store.view(b, rows.size()));
  EXPECT_EQ(writer.rows(), rows.size());

  SnapshotWriter whole;
  whole.set_threads(threads);
  whole.append(store);
  TempFile whole_file{"pairs_whole"};
  EXPECT_TRUE(whole.write(whole_file.path));

  core::Snapshot reference;
  for (const PairRow& row : rows) reference.record(row.target, row.response);
  std::vector<std::pair<net::Ipv6Address, net::Ipv6Address>> want;
  for (const auto& [target, response] : reference.map()) {
    want.emplace_back(target, response);
  }
  TempFile file{"pairs_forms"};
  EXPECT_TRUE(writer.write(file.path));

  SnapshotReader reader;
  EXPECT_TRUE(reader.open(file.path)) << to_string(reader.error());
  EXPECT_EQ(reader.rows(), rows.size());
  std::size_t i = 0;
  std::size_t mismatches = 0;
  EXPECT_TRUE(reader.for_each_eui_pair(
      [&](net::Ipv6Address target, net::Ipv6Address response) {
        if (i >= want.size() || target != want[i].first ||
            response != want[i].second) {
          ++mismatches;
        }
        ++i;
        return true;
      }));
  EXPECT_EQ(i, want.size());
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(slurp(whole_file.path), slurp(file.path));
  return slurp(file.path);
}

/// Repeated targets (last EUI response wins, first sighting keeps its
/// slot), non-EUI replies interleaved with EUI ones for the same target,
/// and one target answered on both sides of the 64Ki block boundary.
std::vector<PairRow> make_pair_rows() {
  constexpr std::size_t kRows = kSnapshotBlockElements + 9000;
  std::vector<PairRow> rows(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::uint64_t t = (i * 7919) % 30011;
    rows[i].target =
        net::Ipv6Address{0x20010db800000000ULL | ((t % 97) << 16), t};
    const std::uint64_t network = 0x2003e20000000000ULL | ((i % 13) << 8);
    if (i % 5 == 0) {
      rows[i].response = net::Ipv6Address{network, 0x0123456789abULL + i};
    } else {
      const net::MacAddress mac{0x3a10d5000000ULL + (i % 4099)};
      rows[i].response = net::Ipv6Address{network, net::mac_to_eui64(mac)};
    }
    rows[i].type_code = i % 7 == 0 ? 0x0103 : 0x8100;
    rows[i].time = sim::hours(3) + static_cast<std::int64_t>(i) * 50;
  }
  const net::Ipv6Address straddler{0x2a02058000070000ULL, 0x42};
  for (const std::size_t at :
       {std::size_t{17}, kSnapshotBlockElements - 1, kSnapshotBlockElements,
        kSnapshotBlockElements + 4000}) {
    rows[at].target = straddler;
    const net::MacAddress mac{0x0c0ffe000000ULL + at};
    rows[at].response =
        net::Ipv6Address{0x2a02058000070000ULL, net::mac_to_eui64(mac)};
  }
  return rows;
}

TEST(SnapshotV2Pairs, AllAppendFormsMatchRowByRowSnapshotAtAnyThreadCount) {
  const std::vector<PairRow> rows = make_pair_rows();
  const std::vector<unsigned char> serial = write_pairs_and_check(rows, 1);
  for (const unsigned threads : {2u, 4u, 7u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    EXPECT_EQ(write_pairs_and_check(rows, threads), serial);
  }
}

TEST(SnapshotV2Pairs, EmptyAndEuiFreeStoresWriteNoPairs) {
  std::vector<PairRow> no_eui = make_pair_rows();
  for (std::size_t i = 0; i < no_eui.size(); ++i) {
    no_eui[i].response =
        net::Ipv6Address{0x2003e20000000000ULL, 0x0123456789abULL + i};
  }
  for (const std::vector<PairRow>& input : {no_eui, std::vector<PairRow>{}}) {
    SCOPED_TRACE(testing::Message() << "rows=" << input.size());
    const std::vector<unsigned char> serial = write_pairs_and_check(input, 1);
    for (const unsigned threads : {2u, 4u, 7u}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      EXPECT_EQ(write_pairs_and_check(input, threads), serial);
    }
  }
}

/// Writes `rows` at `threads` and checks the reader's pair stream against
/// core::Snapshot::record_rows over the file's own two columns: the whole
/// stream, then streams that `fn` stops after half the pairs (plus one) and
/// after the first, which must make no further call and still succeed.
void expect_pairs_are_record_rows(const std::vector<PairRow>& rows,
                                  unsigned threads) {
  TempFile file{"pair_columns"};
  const core::ObservationStore store = store_of(rows);
  SnapshotWriter writer;
  writer.set_threads(threads);
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));
  SnapshotReader columns;
  std::vector<net::Ipv6Address> targets;
  std::vector<net::Ipv6Address> responses;
  ASSERT_TRUE(columns.open(file.path));
  ASSERT_TRUE(columns.read_targets(targets));
  ASSERT_TRUE(columns.read_responses(responses));
  core::Snapshot reference;
  reference.record_rows(targets, responses);
  std::vector<std::pair<net::Ipv6Address, net::Ipv6Address>> want;
  for (const auto& [target, response] : reference.map()) {
    want.emplace_back(target, response);
  }

  for (const std::size_t stop_after :
       {want.size() + 1, want.size() / 2 + 1, std::size_t{1}}) {
    SCOPED_TRACE(testing::Message() << "stop after " << stop_after);
    SnapshotReader reader;
    reader.set_threads(threads);
    ASSERT_TRUE(reader.open(file.path));
    std::vector<std::pair<net::Ipv6Address, net::Ipv6Address>> got;
    EXPECT_TRUE(reader.for_each_eui_pair(
        [&](net::Ipv6Address target, net::Ipv6Address response) {
          got.emplace_back(target, response);
          return got.size() < stop_after;
        }));
    want.resize(std::min(want.size(), stop_after));
    // EXPECT_TRUE, not EXPECT_EQ: a mismatch must not print a megabyte.
    EXPECT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want);
  }
}

std::vector<PairRow> rows_of(const core::ObservationStore& store) {
  std::vector<PairRow> rows(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    rows[i] = PairRow{store.target(i), store.response(i), store.type_code(i),
                      store.time(i)};
  }
  return rows;
}

TEST(SnapshotV2Pairs, PairBlocksAreTheColumnEncodingOfTheDedupedPairs) {
  // The reader derives the pairs from the target and response blocks. The
  // campaign shape, where the target blocks prove that no target repeats
  // and the pairs stream block by block, then four near misses: each
  // breaks one clause of that proof (or has a row with no pair), and a
  // proof that ignored the clause would stream wrong pairs.
  const std::vector<PairRow> campaign =
      rows_of(make_campaign_fixture_store());
  constexpr std::size_t kBlock = kSnapshotBlockElements;

  // A block-1 row re-probes a block-0 target: the blocks' network ranges
  // now overlap, though each block's networks stay distinct.
  std::vector<PairRow> repeat_across = campaign;
  repeat_across[kBlock + 500].target = campaign[100].target;

  // One reply is not EUI-64, so its row has no pair.
  std::vector<PairRow> one_non_eui = campaign;
  one_non_eui[kBlock + 7000].response =
      net::Ipv6Address{0x2003e20000000000ULL, 0x0123456789abULL};

  // Sweep units (/48s of 64Ki /64s) offset by 30,000 rows, so one unit
  // straddles each block boundary and adjacent blocks' ranges overlap;
  // one target of the straddling unit is answered on both sides.
  std::vector<PairRow> straddle = campaign;
  for (std::size_t i = 0; i < straddle.size(); ++i) {
    const std::uint64_t k = i + 30000;
    straddle[i].target = net::Ipv6Address{
        campaign[k % kBlock].target.network() | ((k / kBlock) << 16), 0x1};
  }
  straddle[kBlock + 10].target = straddle[kBlock - 10].target;

  // A target repeated inside one block: its dictionary has fewer networks
  // than rows, though the blocks' ranges still increase.
  std::vector<PairRow> repeat_within = campaign;
  repeat_within[200].target = campaign[100].target;

  const std::pair<const char*, const std::vector<PairRow>*> cases[] = {
      {"campaign", &campaign},
      {"repeat_across_blocks", &repeat_across},
      {"one_non_eui_response", &one_non_eui},
      {"unit_straddles_block_boundary", &straddle},
      {"repeat_within_block", &repeat_within}};
  // The mixed corpus: repeats, non-EUI replies and a block straddler.
  const std::vector<PairRow> mixed = make_pair_rows();
  for (const auto& [name, rows] : cases) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << name << " threads=" << threads);
      expect_pairs_are_record_rows(*rows, threads);
    }
  }
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "mixed threads=" << threads);
    expect_pairs_are_record_rows(mixed, threads);
  }
}

/// Checks that today's writer reproduces every block of sections 1-4 of
/// the committed golden file `name` at 1 and 4 threads: each block's
/// payload bytes, and its elements, CRC and min/max stats, in the
/// envelope's directory. The golden files were written once by format 2,
/// whose header, section table, per-section directories and section 5
/// (the EUI pairs) the current format drops; the reader refuses them (see
/// SnapshotErrors.UnsupportedVersionRejected). If this fails, the writer
/// changed the column encoding; fix the writer, not the fixture.
void expect_golden_sections(const char* name,
                            const core::ObservationStore& store) {
  const auto fixture = slurp(std::string{SCENT_TEST_DATA_DIR} + "/" + name);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << name << " threads=" << threads);
    TempFile out{"golden"};
    SnapshotWriter writer;
    writer.set_threads(threads);
    writer.append(store);
    ASSERT_TRUE(writer.write(out.path));

    BlockFileReader file{kSnapshotFormat};
    ASSERT_TRUE(file.open(out.path)) << to_string(file.error());
    const std::vector<BlockEntry>& dir = file.directory();
    std::size_t next = 0;  // blocks go column after column
    std::vector<unsigned char> payload;
    for (std::uint32_t id = 1; id <= 4; ++id) {
      SCOPED_TRACE(testing::Message() << "section " << id);
      // Format 2's section: block count, 36 B per block (payload offset
      // after the directory, elements, payload bytes, CRC, min, max), then
      // the payloads.
      const SectionLoc sec = locate_section(fixture, id);
      const std::uint32_t blocks = get_u32(fixture, sec.offset);
      const std::size_t base = sec.offset + 4 + std::size_t{36} * blocks;
      for (std::uint32_t b = 0; b < blocks; ++b, ++next) {
        SCOPED_TRACE(testing::Message() << "block " << b);
        ASSERT_LT(next, dir.size());
        const std::size_t e = sec.offset + 4 + std::size_t{36} * b;
        EXPECT_EQ(dir[next].elements, get_u32(fixture, e + 8));
        EXPECT_EQ(dir[next].payload_bytes, get_u32(fixture, e + 12));
        EXPECT_EQ(dir[next].crc, get_u32(fixture, e + 16));
        EXPECT_EQ(dir[next].key_min, get_u64(fixture, e + 20));
        EXPECT_EQ(dir[next].key_max, get_u64(fixture, e + 28));
        ASSERT_TRUE(file.read_block(next, payload));
        const auto at = static_cast<std::ptrdiff_t>(
            base + static_cast<std::size_t>(get_u64(fixture, e)));
        ASSERT_EQ(payload.size(), get_u32(fixture, e + 12));
        // EXPECT_TRUE, not EXPECT_EQ: a mismatch must not print 700 KB.
        EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                               fixture.begin() + at));
      }
    }
    EXPECT_EQ(next, dir.size());  // no block past section 4's
    EXPECT_EQ(writer.encoded_size(), slurp(out.path).size());

    SnapshotReader reader;
    ASSERT_TRUE(reader.open(out.path)) << to_string(reader.error());
    EXPECT_EQ(reader.rows(), store.size());
    auto loaded = reader.read_store();
    ASSERT_TRUE(loaded.has_value()) << to_string(reader.error());
    expect_same_rows(store, *loaded);
  }
}

TEST(SnapshotV2, CommittedV2FixtureIsReproducedByteForByte) {
  // Written by the sort-and-search dictionary encoder, from
  // make_v2_fixture_store.
  expect_golden_sections("v2_fixture.snap", make_v2_fixture_store());
}

TEST(SnapshotV2, CommittedCampaignFixtureIsReproducedByteForByte) {
  // Written by the writer that always ran the pair dedupe, from
  // make_campaign_fixture_store.
  expect_golden_sections("v2_campaign_fixture.snap",
                         make_campaign_fixture_store());
}

// ---- Corrupt-input matrix --------------------------------------------

TEST(SnapshotV2Errors, TruncationMidBlockFailsCleanly) {
  TempFile file{"trunc"};
  SnapshotWriter writer;
  writer.append(big_store());
  ASSERT_TRUE(writer.write(file.path));
  const auto bytes = slurp(file.path);

  // Cuts land mid-block-payload, mid-directory and one byte short; the
  // footer is written last, so all are caught at open before any payload
  // is trusted.
  const std::size_t cuts[] = {150, 200, bytes.size() / 2,
                              bytes.size() - layout::kFooterBytes - 5,
                              bytes.size() - 1};
  for (const std::size_t cut : cuts) {
    TempFile chopped{"trunc_cut"};
    dump(chopped.path,
         std::vector<unsigned char>(bytes.begin(), bytes.begin() + cut));
    SnapshotReader reader;
    EXPECT_FALSE(reader.open(chopped.path)) << "cut at " << cut;
    EXPECT_EQ(reader.error(), FileError::kTruncated)
        << "cut at " << cut << ": " << to_string(reader.error());
  }
}

TEST(SnapshotV2Errors, FlippedBlockByteFailsOnlyOverlappingReads) {
  TempFile file{"flip_block"};
  SnapshotWriter writer;
  writer.append(big_store());
  ASSERT_TRUE(writer.write(file.path));
  auto bytes = slurp(file.path);

  // Flip one bit inside block 0 of the targets column, the file's first
  // block.
  bytes[layout::block_at(bytes, 0).payload + 10] ^= 0x04;
  dump(file.path, bytes);

  // The directory is intact, so open succeeds; a full targets read must
  // CRC-fail...
  SnapshotReader full;
  ASSERT_TRUE(full.open(file.path)) << to_string(full.error());
  std::vector<net::Ipv6Address> targets;
  EXPECT_FALSE(full.read_targets(targets));
  EXPECT_EQ(full.error(), FileError::kCorrupt);
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
  EXPECT_EQ(overlap.error(), FileError::kCorrupt);
}

TEST(SnapshotV2Errors, DamagedBlockDirectoryFailsOpen) {
  TempFile file{"flip_dir"};
  SnapshotWriter writer;
  writer.append(big_store());
  ASSERT_TRUE(writer.write(file.path));
  auto bytes = slurp(file.path);

  // A flipped byte inside the block directory: the footer's directory CRC
  // covers it, so the forged index never survives open — no payload is
  // ever sized or read from it.
  bytes[layout::entry_at(bytes, 0) + 9] ^= 0x10;  // block 0's CRC field
  dump(file.path, bytes);
  SnapshotReader reader;
  EXPECT_FALSE(reader.open(file.path));
  EXPECT_EQ(reader.error(), FileError::kCorrupt);
}

TEST(SnapshotV2Errors, ForgedButCrcValidBlockIndexIsBadLayout) {
  TempFile file{"forged_dir"};
  SnapshotWriter writer;
  writer.append(big_store());
  ASSERT_TRUE(writer.write(file.path));
  const auto good = slurp(file.path);
  ASSERT_GE(layout::block_count(good), 8u);

  // An adversarial (or bit-rotted-then-rehashed) directory whose CRC checks
  // out: bump block 0's element count and re-seal the directory. The
  // element total no longer matches the footer's record count — and, with
  // the footer patched to match, the four columns no longer split at the
  // same rows. The structural validators must still reject both — as
  // kBadLayout, not a crash or overread.
  for (const bool patch_records : {false, true}) {
    SCOPED_TRACE(testing::Message() << "records patched: " << patch_records);
    auto bytes = good;
    const std::size_t elements_at = layout::entry_at(bytes, 0);
    layout::put_u32(bytes, elements_at, get_u32(bytes, elements_at) + 1);
    if (patch_records) {
      const std::size_t records_at = bytes.size() - layout::kFooterBytes;
      layout::put_u64(bytes, records_at, get_u64(bytes, records_at) + 1);
    }
    layout::reseal_directory(bytes);
    dump(file.path, bytes);

    SnapshotReader reader;
    EXPECT_FALSE(reader.open(file.path));
    EXPECT_EQ(reader.error(), FileError::kBadLayout);
  }
}

TEST(SnapshotV2Errors, BlockClaimingMoreElementsThanItsPayloadIsBadLayout) {
  // A hand-built file whose CRCs all check out: 4Mi rows, every column one
  // block of 4Mi elements over a 1-byte payload. Each entry is within the
  // absolute element cap, and the run-length columns have no per-element
  // floor, but an address element needs at least 2 payload bytes, so the
  // 1-byte target block is a forged index — and, repeated over many
  // blocks, one that would size a column allocation thousands of times the
  // file.
  constexpr std::uint32_t kRows = std::uint32_t{1} << 22;
  TempFile file{"payload_bound"};
  BlockFileWriter forged{kSnapshotFormat};
  ASSERT_TRUE(forged.open(file.path));
  const unsigned char payload[1] = {0};
  for (int column = 0; column < 4; ++column) {
    forged.write_block(payload, kRows, 0, 0);
  }
  ASSERT_TRUE(forged.finish());

  BlockFileReader envelope{kSnapshotFormat};
  ASSERT_TRUE(envelope.open(file.path));  // only the snapshot's floor fails
  SnapshotReader reader;
  EXPECT_FALSE(reader.open(file.path));
  EXPECT_EQ(reader.error(), FileError::kBadLayout);
}

// ---- read_into: one bulk append, all or nothing ------------------------

/// Everything a store exposes: every column, row by row, and the distinct
/// sets in their first-seen order.
struct StoreState {
  std::size_t rows = 0;
  std::uint64_t row_digest = 0;
  std::vector<net::Ipv6Address> distinct;
  std::size_t eui_responses = 0;
  std::size_t eui_iids = 0;

  friend bool operator==(const StoreState&, const StoreState&) = default;
};

StoreState state_of(const core::ObservationStore& store) {
  StoreState st;
  st.rows = store.size();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (std::size_t i = 0; i < store.size(); ++i) {
    mix(store.target(i).bits().hi());
    mix(store.target(i).bits().lo());
    mix(store.response(i).bits().hi());
    mix(store.response(i).bits().lo());
    mix(store.type_code(i));
    mix(static_cast<std::uint64_t>(store.time(i)));
  }
  st.row_digest = h;
  const auto distinct = store.distinct_responses();
  st.distinct.assign(distinct.begin(), distinct.end());
  st.eui_responses = store.unique_eui64_responses();
  st.eui_iids = store.unique_eui64_iids();
  return st;
}

/// big_store() written out: 3 blocks per column.
std::vector<unsigned char> big_store_bytes() {
  TempFile file{"read_into_src"};
  SnapshotWriter writer;
  writer.append(big_store());
  EXPECT_TRUE(writer.write(file.path));
  return slurp(file.path);
}

/// A copy of `good` whose block `b` of column `column` fails: with `forged`
/// its payload becomes 0xff bytes (no varint ends) under a recomputed block
/// CRC and a re-sealed directory, so only the decode can reject it;
/// otherwise one payload bit flips and its CRC fails.
std::vector<unsigned char> break_block(std::vector<unsigned char> bytes,
                                       std::size_t column, std::size_t b,
                                       bool forged) {
  const layout::Block blk =
      layout::block_at(bytes, column * layout::block_count(bytes) / 4 + b);
  if (!forged) {
    bytes[blk.payload + blk.bytes / 2] ^= 0x20;
    return bytes;
  }
  std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(blk.payload),
              blk.bytes, 0xff);
  layout::put_u32(bytes, blk.entry + 8,
                  crc32c(bytes.data() + blk.payload, blk.bytes));
  layout::reseal_directory(bytes);
  return bytes;
}

TEST(SnapshotV2Errors, FailedReadIntoLeavesTheStoreAsItWas) {
  const std::vector<unsigned char> good = big_store_bytes();
  // Damage in the type+code or time column: at one thread every address
  // block has already decoded into the store's new rows when it is met.
  for (const std::size_t column : {2u, 3u}) {
    for (const bool forged : {false, true}) {
      for (const unsigned threads : {1u, 4u}) {
        for (const bool empty : {true, false}) {
          SCOPED_TRACE(testing::Message()
                       << "column " << column
                       << (forged ? " forged" : " flipped")
                       << ", " << threads << " threads, "
                       << (empty ? "empty" : "non-empty") << " store");
          TempFile file{"read_into_bad"};
          dump(file.path, break_block(good, column, 2, forged));
          core::ObservationStore store;
          if (!empty) store = make_store(5000);
          const StoreState before = state_of(store);

          SnapshotReader reader;
          reader.set_threads(threads);
          ASSERT_TRUE(reader.open(file.path)) << to_string(reader.error());
          EXPECT_FALSE(reader.read_into(store));
          EXPECT_EQ(reader.error(), FileError::kCorrupt);
          EXPECT_TRUE(state_of(store) == before);
          EXPECT_FALSE(reader.read_into(store));  // the reader stays failed
          EXPECT_TRUE(state_of(store) == before);

          // The store still takes a good file afterwards, as if the
          // failed read had never happened.
          TempFile ok_file{"read_into_good"};
          dump(ok_file.path, good);
          SnapshotReader again;
          ASSERT_TRUE(again.open(ok_file.path));
          ASSERT_TRUE(again.read_into(store));
          core::ObservationStore want;
          if (!empty) want = make_store(5000);
          const core::ObservationStore& src = big_store();
          for (std::size_t i = 0; i < src.size(); ++i) {
            want.add_packed(src.target(i), src.response(i), src.type_code(i),
                            src.time(i));
          }
          EXPECT_TRUE(state_of(store) == state_of(want));
        }
      }
    }
  }
}

TEST(SnapshotV2, ReadIntoMatchesAnAddPackedReplay) {
  // Two files into one store, at one and at four decode threads: the bulk
  // append gives the columns and the distinct sets' first-seen order that
  // replaying every row through add_packed gives.
  const std::vector<unsigned char> bytes = big_store_bytes();
  TempFile file{"read_into_replay"};
  dump(file.path, bytes);
  const core::ObservationStore head = make_store(5000);
  TempFile head_file{"read_into_head"};
  SnapshotWriter writer;
  writer.append(head);
  ASSERT_TRUE(writer.write(head_file.path));

  core::ObservationStore want;
  for (const core::ObservationStore* src : {&head, &big_store()}) {
    for (std::size_t i = 0; i < src->size(); ++i) {
      want.add_packed(src->target(i), src->response(i), src->type_code(i),
                      src->time(i));
    }
  }
  for (const unsigned threads : {1u, 4u}) {
    core::ObservationStore store;
    for (const std::string* path : {&head_file.path, &file.path}) {
      SnapshotReader reader;
      reader.set_threads(threads);
      ASSERT_TRUE(reader.open(*path));
      ASSERT_TRUE(reader.read_into(store)) << to_string(reader.error());
    }
    expect_same_rows(want, store);
    EXPECT_TRUE(state_of(store) == state_of(want)) << threads << " threads";
  }
}

#ifdef __linux__
TEST(SnapshotV2Errors, DiskFullDuringCompressedWriteIsReported) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full not available";
  std::fclose(probe);

  const auto store = make_store(4096);

  SnapshotWriter writer;

  writer.append(store);
  EXPECT_FALSE(writer.write("/dev/full"));
}
#endif

}  // namespace
}  // namespace scent::corpus
