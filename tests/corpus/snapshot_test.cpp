// Tests for the binary columnar snapshot format: round trips, byte
// stability, lazy column reads, the EUI pairs derived on read, and — most
// importantly — corrupt-input handling: truncations, flipped bytes, wrong
// magic/version and disk-full writes must all be clean errors, never UB.
#include "corpus/snapshot.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "analysis/input.h"
#include "core/rotation_detector.h"
#include "corpus/snapshot_layout.h"
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
/// EUI-pair dedupe and the classification memo both get exercised).
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
  // The loaded store's distinct sets are rebuilt by replay: same
  // uniqueness accounting.
  EXPECT_EQ(a.unique_responses(), b.unique_responses());
  EXPECT_EQ(a.unique_eui64_responses(), b.unique_eui64_responses());
  EXPECT_EQ(a.unique_eui64_iids(), b.unique_eui64_iids());
}

/// CRC-32C straight from its definition, one bit at a time: the reference
/// both kernels are held to.
std::uint32_t bitwise_crc32c(const unsigned char* p, std::size_t n) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82f63b78u : 0u);
    }
  }
  return crc ^ 0xffffffffu;
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

  // Both kernels: the portable one always, the SSE4.2 one where the CPU
  // has it. update() dispatches to one of them, so it is checked too.
  std::vector<std::pair<const char*, Crc32cKernel>> kernels{
      {"portable", &crc32c_portable}};
  if (crc32c_hardware() != nullptr) {
    kernels.emplace_back("hardware", crc32c_hardware());
  }
  const auto run = [](Crc32cKernel kernel, const unsigned char* p,
                      std::size_t n) {
    return kernel(0xffffffffu, p, n) ^ 0xffffffffu;
  };

  // RFC 3720 §B.4: 32 bytes of zeros, of ones, ascending and descending.
  std::array<unsigned char, 32> zeros{};
  std::array<unsigned char, 32> ones{};
  std::array<unsigned char, 32> ascending{};
  std::array<unsigned char, 32> descending{};
  for (std::size_t i = 0; i < 32; ++i) {
    ones[i] = 0xff;
    ascending[i] = static_cast<unsigned char>(i);
    descending[i] = static_cast<unsigned char>(31 - i);
  }
  const std::pair<const std::array<unsigned char, 32>*, std::uint32_t>
      vectors[] = {{&zeros, 0x8a9136aau},
                   {&ones, 0x62a8ab43u},
                   {&ascending, 0x46dd794eu},
                   {&descending, 0x113fdb5cu}};
  for (const auto& [bytes, want] : vectors) {
    EXPECT_EQ(bitwise_crc32c(bytes->data(), 32), want);
    EXPECT_EQ(crc32c(bytes->data(), 32), want);
    for (const auto& [name, kernel] : kernels) {
      EXPECT_EQ(run(kernel, bytes->data(), 32), want) << name;
    }
  }

  // Every length 0..256 at every start offset 0..7 (unaligned heads and
  // every tail length), against the bitwise reference.
  std::vector<unsigned char> buf(256 + 8);
  std::uint32_t x = 0x12345678u;
  for (unsigned char& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 256; ++n) {
      const unsigned char* p = buf.data() + offset;
      const std::uint32_t want = bitwise_crc32c(p, n);
      ASSERT_EQ(crc32c(p, n), want) << "offset " << offset << " n " << n;
      for (const auto& [name, kernel] : kernels) {
        ASSERT_EQ(run(kernel, p, n), want)
            << name << " offset " << offset << " n " << n;
      }
      // Chunked: a split at every point, and a CRC continued from the
      // first part's value, both equal the one-shot CRC.
      for (std::size_t cut = 0; cut <= n; cut += 1 + n / 16) {
        Crc32c parts;
        parts.update(p, cut);
        parts.update(p + cut, n - cut);
        ASSERT_EQ(parts.value(), want) << "cut " << cut << " n " << n;
        Crc32c continued{crc32c(p, cut)};
        continued.update(p + cut, n - cut);
        ASSERT_EQ(continued.value(), want) << "cut " << cut << " n " << n;
      }
    }
  }
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
  EXPECT_TRUE(reader.for_each_eui_pair(
      [](net::Ipv6Address, net::Ipv6Address) { return false; }));
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

  // Two continuing views of one store, the first of which is held while
  // the store grows past its capacity: the writer reads the store's
  // columns at write(), so the rows it encodes are the views' rows.
  auto grown = make_store(120);
  SnapshotWriter view_writer;
  view_writer.append(grown.view(0, 120));
  for (std::size_t i = 120; i < 200; ++i) grown.add(store.at(i));
  view_writer.append(grown.view(120, 200));
  for (std::size_t i = 0; i < 4096; ++i) grown.add(store.at(i % 200));
  EXPECT_EQ(view_writer.rows(), 200u);
  ASSERT_TRUE(view_writer.write(by_view.path));

  EXPECT_EQ(slurp(by_store.path), slurp(by_view.path));
}

/// Whether SnapshotWriter::append accepts an argument of type `Store`
/// (a non-reference type is an rvalue).
template <typename Store>
constexpr bool kAppends = requires(SnapshotWriter writer, Store&& store) {
  writer.append(std::forward<Store>(store));
};

TEST(Snapshot, AppendTakesOnlyViewsThatContinueTheHeldRows) {
  const auto store = make_store(200);
  const auto other = make_store(200);
  SnapshotWriter writer;
  writer.append(store.view(50, 50));  // empty: ignored
  writer.append(store.view(0, 120));
  EXPECT_THROW(writer.append(store.view(121, 200)), std::invalid_argument);
  EXPECT_THROW(writer.append(store.view(100, 200)), std::invalid_argument);
  EXPECT_THROW(writer.append(other.view(120, 200)), std::invalid_argument);
  EXPECT_THROW(writer.append(store), std::invalid_argument);
  writer.append(other.view(7, 7));  // empty: ignored, whatever the store
  EXPECT_EQ(writer.rows(), 120u);
  writer.append(store.view(120, 200));
  EXPECT_EQ(writer.rows(), 200u);

  // A temporary store would leave the writer pointing at freed rows.
  static_assert(kAppends<const core::ObservationStore&>);
  static_assert(kAppends<core::ObservationStore&>);
  static_assert(!kAppends<core::ObservationStore>);
  static_assert(!kAppends<const core::ObservationStore>);
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
  std::vector<std::pair<net::Ipv6Address, net::Ipv6Address>> streamed;
  ASSERT_TRUE(reader.for_each_eui_pair(
      [&](net::Ipv6Address target, net::Ipv6Address response) {
        streamed.emplace_back(target, response);
        return true;
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

TEST(Snapshot, TrackerFollowsMacAcrossDaySnapshots) {
  // Following one MAC across days from disk: a fused pass over the
  // snapshot chain that reads only the response and time columns, then
  // that device's sightings from the table.
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

  analysis::AnalysisOptions options;
  options.collect_targets = false;
  options.attribute = false;
  const analysis::AggregateTable table = analysis::analyze(
      analysis::ChainInput{{day0.path, "/nonexistent/missing.snap",
                            day1.path}},
      nullptr, options);
  // The missing file is skipped and counted.
  EXPECT_EQ(table.failed_files, 1u);
  const auto sightings = analysis::sightings_of(table, victim);
  ASSERT_EQ(sightings.size(), 2u);
  EXPECT_EQ(sightings[0].day, 0);
  EXPECT_EQ(sightings[0].network, 0x2003e20000001000ULL);
  EXPECT_EQ(sightings[1].day, 1);
  EXPECT_EQ(sightings[1].network, 0x2003e20000001100ULL);
}

TEST(SnapshotErrors, MissingFileIsOpenFailed) {
  SnapshotReader reader;
  EXPECT_FALSE(reader.open("/nonexistent/dir/nope.snap"));
  EXPECT_EQ(reader.error(), FileError::kOpenFailed);
}

TEST(SnapshotErrors, TruncationsAtEveryLayerFailCleanly) {
  TempFile file{"trunc"};
  const auto store = make_store(64);
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));
  const auto bytes = slurp(file.path);

  // Cut points: empty file, mid-magic, mid-header, the header alone, one
  // byte short of a header plus footer, mid-block, one byte short of
  // complete. The footer's end magic is written last, so every cut that
  // keeps the header loses it.
  const std::size_t cuts[] = {0,  4,  15,  16, 39, bytes.size() / 2,
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

/// File offset of the first payload byte of column `column`'s first block:
/// the columns' blocks are stored column after column.
std::size_t first_block_payload(const std::vector<unsigned char>& bytes,
                                std::size_t column) {
  return layout::block_at(bytes, column * layout::block_count(bytes) / 4)
      .payload;
}

TEST(SnapshotErrors, FlippedSectionByteFailsThatRead) {
  TempFile file{"flip"};
  const auto store = make_store(250);
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));
  auto bytes = slurp(file.path);

  // Flip one byte inside the targets column's first block payload (a flip
  // in the directory fails open() itself — covered in
  // snapshot_v2_test.cpp).
  bytes[first_block_payload(bytes, 0) + 3] ^= 0x40;
  dump(file.path, bytes);

  SnapshotReader reader;
  ASSERT_TRUE(reader.open(file.path));  // the directory is intact
  std::vector<net::Ipv6Address> targets;
  EXPECT_FALSE(reader.read_targets(targets));
  EXPECT_EQ(reader.error(), FileError::kCorrupt);
  EXPECT_TRUE(targets.empty());

  // The whole-store path reports the same failure.
  SnapshotReader again;
  ASSERT_TRUE(again.open(file.path));
  EXPECT_FALSE(again.read_store().has_value());
  EXPECT_EQ(again.error(), FileError::kCorrupt);
}

TEST(SnapshotErrors, FlippedEuiPairByteFailsIncrementalDiff) {
  // The pairs derive from the target and response columns, so a flipped
  // byte in either one's block fails the pair stream.
  const auto store = make_store(64);
  SnapshotWriter writer;
  writer.append(store);
  TempFile good{"pairs_good"};
  ASSERT_TRUE(writer.write(good.path));
  const auto bytes = slurp(good.path);
  for (const std::size_t column : {0u, 1u}) {
    SCOPED_TRACE(testing::Message() << "column " << column);
    TempFile file{"flip_pairs"};
    auto flipped = bytes;
    flipped[first_block_payload(flipped, column) + 5] ^= 0x01;
    dump(file.path, flipped);

    SnapshotReader reader;
    ASSERT_TRUE(reader.open(file.path));
    EXPECT_FALSE(reader.for_each_eui_pair(
        [](net::Ipv6Address, net::Ipv6Address) { return true; }));
    EXPECT_EQ(reader.error(), FileError::kCorrupt);
  }
}

TEST(SnapshotErrors, FlippedHeaderByteFailsOpen) {
  TempFile file{"flip_header"};
  const auto store = make_store(16);
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));
  const auto bytes = slurp(file.path);
  // Every header byte: the magic, then the envelope version and the
  // snapshot format version.
  for (std::size_t at = 0; at < layout::kHeaderBytes; ++at) {
    auto flipped = bytes;
    flipped[at] ^= 0x20;
    dump(file.path, flipped);
    SnapshotReader reader;
    EXPECT_FALSE(reader.open(file.path)) << "byte " << at;
    EXPECT_EQ(reader.error(),
              at < 8 ? FileError::kBadMagic : FileError::kBadVersion)
        << "byte " << at << ": " << to_string(reader.error());
  }
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
  EXPECT_EQ(reader.error(), FileError::kBadMagic);
}

TEST(SnapshotErrors, UnsupportedVersionRejected) {
  // The committed format-2 files (their blocks are today's, byte for byte;
  // see snapshot_v2_test.cpp) are refused, not migrated.
  for (const char* name : {"/v2_fixture.snap", "/v2_campaign_fixture.snap"}) {
    SnapshotReader old;
    EXPECT_FALSE(old.open(std::string{SCENT_TEST_DATA_DIR} + name)) << name;
    EXPECT_EQ(old.error(), FileError::kBadVersion) << name;
  }

  TempFile file{"version"};
  const auto store = make_store(300);
  SnapshotWriter writer;
  writer.append(store);
  ASSERT_TRUE(writer.write(file.path));
  const auto bytes = slurp(file.path);

  // The same rows in the format-3 container: its version word sits where
  // the envelope keeps its own.
  TempFile format3{"format3"};
  dump(format3.path, layout::as_format3(bytes));
  SnapshotReader old;
  EXPECT_FALSE(old.open(format3.path));
  EXPECT_EQ(old.error(), FileError::kBadVersion);

  // An unknown envelope version, and an unknown snapshot format version.
  for (const std::size_t at : {std::size_t{8}, std::size_t{12}}) {
    auto patched = bytes;
    patched[at] = 99;
    dump(file.path, patched);
    SnapshotReader reader;
    EXPECT_FALSE(reader.open(file.path)) << "byte " << at;
    EXPECT_EQ(reader.error(), FileError::kBadVersion) << "byte " << at;
  }
}

TEST(SnapshotErrors, ReadsAfterFailedOpenStayFailed) {
  SnapshotReader reader;
  EXPECT_FALSE(reader.open("/nonexistent/dir/nope.snap"));
  std::vector<net::Ipv6Address> out;
  EXPECT_FALSE(reader.read_targets(out));
  EXPECT_FALSE(reader.read_store().has_value());
  EXPECT_EQ(reader.error(), FileError::kOpenFailed);
}

#ifdef __linux__
TEST(SnapshotErrors, DiskFullIsReportedNotSwallowed) {
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
