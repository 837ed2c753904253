// Tests shared by every block file (corpus/block_file.h): the day snapshot,
// the keyed spill run, the geolocation feed and the dossier spool. Golden
// fixtures pin the three join formats' bytes (the snapshot's are pinned in
// tests/corpus/snapshot_v2_test.cpp); one corruption matrix runs against
// all four formats, and each case must fail cleanly with a typed FileError
// (false from open() or a read), never crash or allocate from a forged
// count. Suite names start with "Join" or "Snapshot" for the TSan leg of
// scripts/check.sh.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/block_file.h"
#include "corpus/crc32c.h"
#include "corpus/encoding.h"
#include "corpus/geo_feed.h"
#include "corpus/keyed_run.h"
#include "corpus/snapshot.h"
#include "join/spool.h"
#include "sim/geo_feed.h"
#include "sim/rng.h"

namespace scent::corpus {
namespace {

// Footer: records u64 | blocks u32 | dir crc u32 | end magic (8).
constexpr std::size_t kFooterBytes = 24;
constexpr std::size_t kDirEntryBytes = 28;

/// The records behind tests/corpus/data/keyed_run_fixture.krun: 100 records
/// in 32-record blocks, so three full blocks and a partial fourth.
std::vector<KeyedRecord> keyed_fixture_records() {
  sim::Rng rng{2023};
  std::vector<KeyedRecord> records;
  for (std::size_t i = 0; i < 100; ++i) {
    records.push_back(KeyedRecord{.key = rng.next(),
                                  .c0 = rng.next(),
                                  .c1 = rng.below(1 << 20),
                                  .c2 = rng.below(365)});
  }
  return records;
}

/// The records behind tests/corpus/data/geo_feed_fixture.gfd: 200
/// MAC-ascending rows in 64-record blocks (three full, one partial).
std::vector<sim::GeoRecord> geo_fixture_records() {
  sim::GeoFeedSpec spec;
  spec.seed = 2023;
  spec.ouis = {0x3810d5, 0x00259e};
  spec.devices_per_oui = 100;
  spec.serial_stride = 7;
  spec.first_day = 3;
  spec.last_day = 40;
  return sim::GeoFeedGenerator{spec}.generate();
}

struct KeyedRunFormat {
  using Record = KeyedRecord;
  /// The scratch base is constructed before the writer that encodes into it.
  struct Scratch {
    std::vector<unsigned char> bytes;
  };
  struct Writer : private Scratch, KeyedRunWriter {
    explicit Writer(std::size_t block_elements)
        : KeyedRunWriter{bytes, block_elements} {}
  };
  using Reader = KeyedRunReader;
  static constexpr const char* kFixture = "keyed_run_fixture.krun";
  static constexpr std::size_t kBlockElements = 32;
  static std::vector<Record> records() { return keyed_fixture_records(); }
};

struct GeoFeedFormat {
  using Record = sim::GeoRecord;
  using Writer = GeoFeedWriter;
  using Reader = GeoFeedReader;
  static constexpr const char* kFixture = "geo_feed_fixture.gfd";
  static constexpr std::size_t kBlockElements = 64;
  static std::vector<Record> records() { return geo_fixture_records(); }
};

/// MAC-ascending dossiers with up to three sightings and two anchors each,
/// some with none, spanning at least two spool frames.
std::vector<analysis::DeviceDossier> spool_records() {
  sim::Rng rng{2024};
  const auto draw = [&rng](std::uint64_t n) {
    return static_cast<std::int32_t>(rng.below(n));
  };
  std::vector<analysis::DeviceDossier> records;
  std::vector<unsigned char> scratch;
  std::size_t encoded = 0;
  for (std::uint64_t i = 0; encoded < 2 * join::kSpoolFlushBytes; ++i) {
    analysis::DeviceDossier d;
    d.mac = net::MacAddress{0x3810d5000000ULL + i * 7};
    for (std::uint64_t k = rng.below(4); k > 0; --k) {
      d.sightings.push_back({draw(40), rng.next(),
                             static_cast<std::uint32_t>(draw(70000))});
    }
    for (std::uint64_t k = rng.below(3); k > 0; --k) {
      d.anchors.push_back({draw(40), draw(180000000) - 90000000,
                           draw(360000000) - 180000000,
                           static_cast<std::uint32_t>(draw(70000))});
    }
    scratch.resize(join::max_dossier_bytes(d));
    encoded += static_cast<std::size_t>(
        join::encode_dossier(scratch.data(), d) - scratch.data());
    records.push_back(d);
  }
  return records;
}

/// The dossiers behind tests/corpus/data/spool_fixture.spool: 48
/// MAC-ascending dossiers in one frame with zero to three sightings and
/// zero to two anchors each, every field drawn at a random width, then one
/// dossier holding each field's widest value (ten-byte varints for the
/// days and the network).
std::vector<analysis::DeviceDossier> spool_fixture_records() {
  sim::Rng rng{2025};
  const auto bits = [&rng](unsigned max_width) {
    return rng.next() >> (64 - 1 - rng.below(max_width));
  };
  std::vector<analysis::DeviceDossier> records;
  for (std::uint64_t i = 0; i < 48; ++i) {
    analysis::DeviceDossier d;
    d.mac = net::MacAddress{0x3810d5000000ULL + i * 131};
    for (std::uint64_t k = i % 4; k > 0; --k) {
      d.sightings.push_back({static_cast<std::int64_t>(bits(20)) - 40000,
                             bits(64), static_cast<std::uint32_t>(bits(32))});
    }
    for (std::uint64_t k = i % 3; k > 0; --k) {
      d.anchors.push_back(
          {static_cast<std::int64_t>(rng.below(80)) - 40,
           static_cast<std::int32_t>(rng.below(180000001)) - 90000000,
           static_cast<std::int32_t>(rng.below(360000001)) - 180000000,
           static_cast<std::uint32_t>(bits(32))});
    }
    records.push_back(std::move(d));
  }
  analysis::DeviceDossier extremes;
  extremes.mac = net::MacAddress{0xffffffffffffULL};
  extremes.sightings.push_back(
      {std::numeric_limits<std::int64_t>::min(), ~std::uint64_t{0},
       std::numeric_limits<std::uint32_t>::max()});
  extremes.anchors.push_back({std::numeric_limits<std::int64_t>::max(),
                              std::numeric_limits<std::int32_t>::min(),
                              std::numeric_limits<std::int32_t>::max(),
                              std::numeric_limits<std::uint32_t>::max()});
  records.push_back(std::move(extremes));
  return records;
}

/// The spool's cursor behind the reader interface the matrix drives.
struct SpoolReader {
  join::SpoolCursor cursor;
  bool open(const std::string& path) { return cursor.open(path); }
  [[nodiscard]] FileError error() const { return cursor.error(); }
  bool for_each(
      const std::function<void(const analysis::DeviceDossier&)>& fn) {
    analysis::DeviceDossier d;
    while (cursor.next(d)) fn(d);
    return cursor.ok();
  }
};

struct SpoolFormat {
  using Record = analysis::DeviceDossier;
  /// Frames flush at kSpoolFlushBytes; the block size is not a knob.
  struct Writer : join::SpoolWriter {
    explicit Writer(std::size_t /*block_elements*/) {}
  };
  using Reader = SpoolReader;
  static constexpr std::size_t kBlockElements = 0;
  static std::vector<Record> records() { return spool_records(); }
};

/// The snapshot writer and reader behind the matrix's interfaces. Blocks
/// hold kSnapshotBlockElements rows; the block size is not a knob.
struct SnapshotFormat {
  using Record = core::Observation;
  struct Writer {
    explicit Writer(std::size_t /*block_elements*/) {}
    bool open(const std::string& path) {
      path_ = path;
      return true;
    }
    void append(const Record& r) { store_.add(r); }
    bool finish() {
      SnapshotWriter writer;
      writer.append(store_);
      return writer.write(path_);
    }

   private:
    core::ObservationStore store_;
    std::string path_;
  };
  struct Reader {
    SnapshotReader reader;
    bool open(const std::string& path) { return reader.open(path); }
    [[nodiscard]] FileError error() const { return reader.error(); }
    bool for_each(const std::function<void(const Record&)>& fn) {
      const std::optional<core::ObservationStore> store = reader.read_store();
      if (!store) return false;
      for (std::size_t i = 0; i < store->size(); ++i) fn(store->at(i));
      return true;
    }
  };
  static constexpr std::size_t kBlockElements = 0;
  /// Two blocks per column, the second partial.
  static std::vector<Record> records() {
    sim::Rng rng{2026};
    std::vector<Record> records(kSnapshotBlockElements + 700);
    for (std::size_t i = 0; i < records.size(); ++i) {
      records[i].target =
          net::Ipv6Address{0x20010db800000000ULL | (i << 8), 0x1};
      records[i].response =
          net::Ipv6Address{0x2003e20000000000ULL | rng.below(1 << 12),
                           rng.next()};
      records[i].type = wire::Icmpv6Type::kEchoReply;
      records[i].time = static_cast<sim::TimePoint>(1000 + 3 * i);
    }
    return records;
  }
};

struct TempFile {
  std::string path;
  explicit TempFile(const char* tag) {
    path = std::string{::testing::TempDir()} + "/scent_blockfile_" + tag +
           "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this));
  }
  ~TempFile() { std::remove(path.c_str()); }
};

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// The forgeries below frame bytes with their own little-endian helpers, not
// the library's, so a framing bug cannot forge and accept in step.
std::uint32_t get_u32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

std::uint64_t get_u64(const unsigned char* p) {
  return std::uint64_t{get_u32(p)} | std::uint64_t{get_u32(p + 4)} << 32;
}

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

/// The directory of an encoded block file and its footer, for forging.
struct Trailer {
  std::vector<unsigned char>& bytes;
  [[nodiscard]] unsigned char* footer() const {
    return bytes.data() + bytes.size() - kFooterBytes;
  }
  [[nodiscard]] std::uint32_t blocks() const { return get_u32(footer() + 8); }
  [[nodiscard]] unsigned char* entry(std::size_t i) const {
    return footer() - std::size_t{blocks()} * kDirEntryBytes +
           i * kDirEntryBytes;
  }
  /// Re-signs the directory so only the forged field can fail open().
  void reseal() const {
    put_u32(footer() + 12,
            crc32c(entry(0), std::size_t{blocks()} * kDirEntryBytes));
  }
};

template <typename Format>
void write_file(const std::string& path,
                const std::vector<typename Format::Record>& records) {
  typename Format::Writer writer{Format::kBlockElements};
  ASSERT_TRUE(writer.open(path));
  for (const auto& r : records) writer.append(r);
  ASSERT_TRUE(writer.finish());
}

template <typename Format>
std::vector<unsigned char> encoded_fixture() {
  TempFile file{"encode"};
  write_file<Format>(file.path, Format::records());
  return read_bytes(file.path);
}

// ---------------------------------------------------------------------------
// Golden fixtures: the writers reproduce the committed bytes, and the readers
// decode them back to the generating records.

template <typename Format>
void check_fixture() {
  const std::string fixture =
      std::string{SCENT_TEST_DATA_DIR} + "/" + Format::kFixture;
  const std::vector<unsigned char> committed = read_bytes(fixture);
  ASSERT_FALSE(committed.empty()) << fixture;
  EXPECT_EQ(encoded_fixture<Format>(), committed);

  typename Format::Reader reader;
  ASSERT_TRUE(reader.open(fixture));
  EXPECT_GE(reader.blocks(), 4u);
  std::vector<typename Format::Record> got;
  ASSERT_TRUE(reader.for_each(
      [&](const typename Format::Record& r) { got.push_back(r); }));
  EXPECT_EQ(got, Format::records());
}

TEST(JoinKeyedRun, GoldenFixtureBytes) { check_fixture<KeyedRunFormat>(); }
TEST(JoinGeoFeed, GoldenFixtureBytes) { check_fixture<GeoFeedFormat>(); }

TEST(JoinSpool, GoldenFixtureBytes) {
  // One frame is enough to pin encode_dossier; the frame cut is pinned by
  // RoundTripsAcrossFrames.
  const std::string fixture =
      std::string{SCENT_TEST_DATA_DIR} + "/spool_fixture.spool";
  const std::vector<unsigned char> committed = read_bytes(fixture);
  ASSERT_FALSE(committed.empty()) << fixture;
  TempFile file{"spool_golden"};
  write_file<SpoolFormat>(file.path, spool_fixture_records());
  EXPECT_EQ(read_bytes(file.path), committed);

  SpoolReader reader;
  ASSERT_TRUE(reader.open(fixture));
  std::vector<analysis::DeviceDossier> got;
  ASSERT_TRUE(reader.for_each(
      [&](const analysis::DeviceDossier& d) { got.push_back(d); }));
  EXPECT_EQ(got, spool_fixture_records());
}

// ---------------------------------------------------------------------------
// Corruption matrix.

/// Opens `bytes` as a file of `Format`; the reader outlives the call via
/// the caller's TempFile.
template <typename Format>
bool opens(const TempFile& file, const std::vector<unsigned char>& bytes,
           typename Format::Reader& reader) {
  write_bytes(file.path, bytes);
  return reader.open(file.path);
}

template <typename Format>
void corrupt_payload_fails_read() {
  // Flip one payload byte (just past the 16-byte header): open still
  // succeeds — the directory is intact — but the block read must fail its
  // CRC, never return wrong records.
  std::vector<unsigned char> bytes = encoded_fixture<Format>();
  bytes[40] ^= 0xff;
  TempFile file{"corrupt"};
  typename Format::Reader reader;
  ASSERT_TRUE(opens<Format>(file, bytes, reader));
  EXPECT_FALSE(reader.for_each([](const typename Format::Record&) {}));
  EXPECT_EQ(reader.error(), FileError::kCorrupt);
}

template <typename Format>
void truncated_file_fails_open() {
  TempFile file{"truncated"};
  write_file<Format>(file.path, Format::records());
  const std::size_t size = read_bytes(file.path).size();
  ASSERT_EQ(truncate(file.path.c_str(), static_cast<off_t>(size - 10)), 0);
  typename Format::Reader reader;
  EXPECT_FALSE(reader.open(file.path));
  EXPECT_EQ(reader.error(), FileError::kTruncated);
}

template <typename Format>
void bad_magic_fails_open() {
  const std::string text = "NOTAKRUNXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX";
  TempFile file{"magic"};
  typename Format::Reader reader;
  EXPECT_FALSE(opens<Format>(
      file, std::vector<unsigned char>(text.begin(), text.end()), reader));
  EXPECT_EQ(reader.error(), FileError::kBadMagic);
}

template <typename Format>
void flipped_directory_byte_fails_open() {
  // One flipped bit in every field of the first directory entry: the
  // directory CRC catches it at open, before any field is trusted.
  const std::vector<unsigned char> good = encoded_fixture<Format>();
  for (std::size_t offset = 0; offset < kDirEntryBytes; ++offset) {
    std::vector<unsigned char> bytes = good;
    Trailer{bytes}.entry(0)[offset] ^= 0x08;
    TempFile file{"dir_flip"};
    typename Format::Reader reader;
    EXPECT_FALSE(opens<Format>(file, bytes, reader)) << offset;
    EXPECT_EQ(reader.error(), FileError::kCorrupt) << offset;
  }
}

template <typename Format>
void forged_block_count_fails_open() {
  // A footer claiming more directory entries than were written: one more
  // fails the directory CRC; more than the file can hold must fail before
  // the directory is read into an allocation of that size.
  std::vector<unsigned char> bytes = encoded_fixture<Format>();
  const Trailer trailer{bytes};
  const std::pair<std::uint32_t, FileError> cases[] = {
      {trailer.blocks() + 1, FileError::kCorrupt},
      {std::uint32_t{1} << 20, FileError::kBadLayout},
      {~std::uint32_t{0}, FileError::kBadLayout}};
  for (const auto& [blocks, error] : cases) {
    put_u32(trailer.footer() + 8, blocks);
    TempFile file{"blocks"};
    typename Format::Reader reader;
    EXPECT_FALSE(opens<Format>(file, bytes, reader)) << blocks;
    EXPECT_EQ(reader.error(), error) << blocks;
  }
}

template <typename Format>
void forged_element_count_fails_open() {
  // The first entry claims 2^20 elements, with the footer's record total
  // and the directory CRC recomputed to match: only the cap on elements
  // per payload byte can reject it, before any block read sizes an
  // allocation from it.
  std::vector<unsigned char> bytes = encoded_fixture<Format>();
  const Trailer trailer{bytes};
  const std::uint32_t forged = std::uint32_t{1} << 20;
  const std::uint64_t records =
      get_u64(trailer.footer()) - get_u32(trailer.entry(0)) + forged;
  put_u32(trailer.entry(0), forged);
  put_u64(trailer.footer(), records);
  trailer.reseal();
  TempFile file{"elements"};
  typename Format::Reader reader;
  EXPECT_FALSE(opens<Format>(file, bytes, reader));
  EXPECT_EQ(reader.error(), FileError::kBadLayout);
}

template <typename Format>
void inverted_block_stats_fail_open() {
  // The first block's key_min and key_max swapped under a re-sealed
  // directory: the skip predicate reads them as an unsigned range, so a
  // format that serves it refuses an inverted one.
  std::vector<unsigned char> bytes = encoded_fixture<Format>();
  const Trailer trailer{bytes};
  unsigned char* stats = trailer.entry(0) + 12;
  ASSERT_LT(get_u64(stats), get_u64(stats + 8));
  std::swap_ranges(stats, stats + 8, stats + 8);
  trailer.reseal();
  TempFile file{"inverted"};
  typename Format::Reader reader;
  EXPECT_FALSE(opens<Format>(file, bytes, reader));
  EXPECT_EQ(reader.error(), FileError::kBadLayout);
}

TEST(JoinKeyedRun, CorruptPayloadFailsRead) {
  corrupt_payload_fails_read<KeyedRunFormat>();
}
TEST(JoinGeoFeed, CorruptPayloadFailsRead) {
  corrupt_payload_fails_read<GeoFeedFormat>();
}
TEST(JoinKeyedRun, TruncatedFileFailsOpen) {
  truncated_file_fails_open<KeyedRunFormat>();
}
TEST(JoinGeoFeed, TruncatedFileFailsOpen) {
  truncated_file_fails_open<GeoFeedFormat>();
}
TEST(JoinKeyedRun, BadMagicFailsOpen) {
  bad_magic_fails_open<KeyedRunFormat>();
}
TEST(JoinGeoFeed, BadMagicFailsOpen) { bad_magic_fails_open<GeoFeedFormat>(); }
TEST(JoinKeyedRun, ForgedBlockCountFailsOpen) {
  forged_block_count_fails_open<KeyedRunFormat>();
}
TEST(JoinGeoFeed, ForgedBlockCountFailsOpen) {
  forged_block_count_fails_open<GeoFeedFormat>();
}
TEST(JoinKeyedRun, FlippedDirectoryByteFailsOpen) {
  flipped_directory_byte_fails_open<KeyedRunFormat>();
}
TEST(JoinGeoFeed, FlippedDirectoryByteFailsOpen) {
  flipped_directory_byte_fails_open<GeoFeedFormat>();
}
TEST(JoinKeyedRun, InvertedBlockStatsFailOpen) {
  inverted_block_stats_fail_open<KeyedRunFormat>();
}
TEST(JoinGeoFeed, InvertedBlockStatsFailOpen) {
  inverted_block_stats_fail_open<GeoFeedFormat>();
}
TEST(JoinKeyedRun, ForgedElementCountFailsOpen) {
  forged_element_count_fails_open<KeyedRunFormat>();
}
TEST(JoinGeoFeed, ForgedElementCountFailsOpen) {
  forged_element_count_fails_open<GeoFeedFormat>();
}

TEST(JoinSpool, RoundTripsAcrossFrames) {
  TempFile file{"spool"};
  write_file<SpoolFormat>(file.path, spool_records());
  BlockFileReader frames{join::kSpoolFormat};
  ASSERT_TRUE(frames.open(file.path));
  EXPECT_GE(frames.directory().size(), 2u);
  SpoolReader reader;
  ASSERT_TRUE(reader.open(file.path));
  std::vector<analysis::DeviceDossier> got;
  ASSERT_TRUE(reader.for_each(
      [&](const analysis::DeviceDossier& d) { got.push_back(d); }));
  EXPECT_EQ(got, spool_records());

  const std::vector<unsigned char> bytes = read_bytes(file.path);
  EXPECT_EQ(bytes.size(), 524387u);
  EXPECT_EQ(crc32c(bytes.data(), bytes.size()), 0x9b126a7fu);
}
TEST(JoinSpool, CorruptPayloadFailsRead) {
  corrupt_payload_fails_read<SpoolFormat>();
}
TEST(JoinSpool, TruncatedFileFailsOpen) {
  truncated_file_fails_open<SpoolFormat>();
}
TEST(JoinSpool, BadMagicFailsOpen) { bad_magic_fails_open<SpoolFormat>(); }
TEST(JoinSpool, ForgedBlockCountFailsOpen) {
  forged_block_count_fails_open<SpoolFormat>();
}
TEST(JoinSpool, FlippedDirectoryByteFailsOpen) {
  flipped_directory_byte_fails_open<SpoolFormat>();
}
TEST(JoinSpool, ForgedElementCountFailsOpen) {
  forged_element_count_fails_open<SpoolFormat>();
}

TEST(SnapshotBlockFile, CorruptPayloadFailsRead) {
  corrupt_payload_fails_read<SnapshotFormat>();
}
TEST(SnapshotBlockFile, TruncatedFileFailsOpen) {
  truncated_file_fails_open<SnapshotFormat>();
}
TEST(SnapshotBlockFile, BadMagicFailsOpen) {
  bad_magic_fails_open<SnapshotFormat>();
}
TEST(SnapshotBlockFile, FlippedDirectoryByteFailsOpen) {
  flipped_directory_byte_fails_open<SnapshotFormat>();
}
TEST(SnapshotBlockFile, ForgedBlockCountFailsOpen) {
  forged_block_count_fails_open<SnapshotFormat>();
}
TEST(SnapshotBlockFile, ForgedElementCountFailsOpen) {
  forged_element_count_fails_open<SnapshotFormat>();
}

TEST(SnapshotBlockFile, ZeroFloorFormatOpensRunLengthBlocks) {
  // One 64Ki-row block per column of identical rows: the type+code and
  // time blocks each encode 64Ki elements in a few bytes, which only a
  // format with no per-element floor admits — and which the envelope must
  // bound without dividing by that zero floor.
  std::vector<core::Observation> rows(kSnapshotBlockElements);
  for (core::Observation& obs : rows) {
    obs.target = net::Ipv6Address{0x20010db800000000ULL, 0x1};
    obs.response = net::Ipv6Address{0x2003e20000000000ULL, 0x2};
    obs.type = wire::Icmpv6Type::kEchoReply;
    obs.time = 5000;
  }
  TempFile file{"zero_floor"};
  write_file<SnapshotFormat>(file.path, rows);

  BlockFileReader envelope{kSnapshotFormat};
  ASSERT_TRUE(envelope.open(file.path)) << to_string(envelope.error());
  ASSERT_EQ(envelope.directory().size(), 4u);
  for (const std::size_t column : {2u, 3u}) {
    const BlockEntry& run_length = envelope.directory()[column];
    EXPECT_EQ(run_length.elements, kSnapshotBlockElements);
    EXPECT_LT(run_length.payload_bytes, 8u) << column;
  }
  SnapshotFormat::Reader reader;
  ASSERT_TRUE(reader.open(file.path)) << to_string(reader.error());
  std::size_t seen = 0;
  ASSERT_TRUE(reader.for_each([&](const core::Observation& obs) {
    seen += obs.time == 5000 && obs.target == rows[0].target ? 1 : 0;
  }));
  EXPECT_EQ(seen, rows.size());
}

TEST(JoinSpool, ListCountBeyondFrameFailsCleanly) {
  // One CRC-valid frame holding one dossier whose sighting (then anchor)
  // count claims far more entries than the frame's remaining bytes can
  // encode: the decoder must refuse it before sizing anything from it.
  for (const bool anchors : {false, true}) {
    std::vector<unsigned char> payload;
    corpus::put_varint(payload, 0x3810d5000001ULL);  // MAC
    if (anchors) corpus::put_varint(payload, 0);     // no sightings
    corpus::put_varint(payload, std::uint64_t{1} << 40);
    payload.insert(payload.end(), 6, 0x01);
    TempFile file{"spool_count"};
    corpus::BlockFileWriter writer{join::kSpoolFormat};
    ASSERT_TRUE(writer.open(file.path));
    writer.write_block(payload, 1, 0x3810d5000001ULL, 0x3810d5000001ULL);
    ASSERT_TRUE(writer.finish());

    join::SpoolCursor cursor;
    ASSERT_TRUE(cursor.open(file.path)) << anchors;
    analysis::DeviceDossier d;
    EXPECT_FALSE(cursor.next(d)) << anchors;
    EXPECT_FALSE(cursor.ok()) << anchors;
    EXPECT_EQ(cursor.error(), FileError::kCorrupt) << anchors;
  }
}

TEST(JoinGeoFeed, OutOfOrderDirectoryFailsOpen) {
  // Swap the stats of the first two blocks: each entry stays self-
  // consistent (min <= max) and the directory CRC is recomputed, so only
  // the feed's cross-block MAC-order check can reject it.
  std::vector<unsigned char> bytes = encoded_fixture<GeoFeedFormat>();
  const Trailer trailer{bytes};
  ASSERT_GE(trailer.blocks(), 2u);
  for (std::size_t offset = 12; offset < kDirEntryBytes; ++offset) {
    std::swap(trailer.entry(0)[offset], trailer.entry(1)[offset]);
  }
  trailer.reseal();
  TempFile file{"order"};
  GeoFeedReader reader;
  EXPECT_FALSE(opens<GeoFeedFormat>(file, bytes, reader));
}

}  // namespace
}  // namespace scent::corpus
