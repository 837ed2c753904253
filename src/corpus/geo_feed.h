// geo_feed.h - block-compressed on-disk format for the geolocation feed.
//
// The IPvSeeYou-style feed (sim/geo_feed.h) is the join's second input: a
// MAC-keyed table of geolocated device sightings. Its file format follows
// the v2-snapshot design (DESIGN.md §5j) — fixed element partitions encoded
// into independently decodable blocks, per-block CRC-32C verified only when
// a block is actually read, per-block min/max stats over the MAC key — in
// the join's block-file envelope (block_file.h), because a feed is not a
// snapshot: one row kind (mac, lat, lon, asn, last_day), MAC-sorted by
// contract, and written strictly forward so a 100M-row feed streams from
// the generator without ever materializing.
//
// MAC-sortedness is what the stats buy pruning with: every block covers a
// contiguous MAC range, so the join's partition scan hands shards disjoint
// block windows, and the merge phase skips — unread, undecoded — every
// block whose range cannot intersect the corpus side of its partition. The
// reader rejects a directory whose blocks are out of MAC order.
//
// Layout: block_file.h's envelope with magic "SCNTGEOF", end magic
// "GEOFDONE" and header word 0; per block, columns concatenated as varint
// streams: mac deltas (sorted, plain varints) | lat zigzag deltas | lon
// zigzag deltas | asn zigzag deltas | day zigzag deltas. Five columns, so a
// block holds at most payload_bytes / 5 rows.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "corpus/block_file.h"
#include "sim/geo_feed.h"

namespace scent::corpus {

/// Elements per block, matching the snapshot format's partition grain.
inline constexpr std::size_t kGeoFeedBlockElements = 1 << 16;

/// Forward-only feed writer: open(), append() in ascending MAC order,
/// finish(). Out-of-order appends are rejected (finish() fails) — sorted
/// blocks are the format's pruning contract, not a hint.
class GeoFeedWriter {
 public:
  explicit GeoFeedWriter(
      std::size_t block_elements = kGeoFeedBlockElements) noexcept;

  [[nodiscard]] bool open(const std::string& path);
  void append(const sim::GeoRecord& record);
  [[nodiscard]] bool finish();

  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return file_.bytes_written();
  }

 private:
  void flush_block();

  std::size_t block_elements_;
  BlockFileWriter file_;
  bool sorted_ok_ = true;
  std::uint64_t last_mac_ = 0;
  std::vector<sim::GeoRecord> buffer_;
  std::vector<unsigned char> payload_;
  std::uint64_t records_ = 0;
};

/// Feed reader: validates the trailer-anchored directory at open, then
/// serves block-granular streams. Shards scan disjoint block windows via
/// for_each_block_range; MAC-window scans skip non-overlapping blocks
/// without reading them.
class GeoFeedReader {
 public:
  GeoFeedReader() noexcept;

  /// Validates the block-file envelope (block_file.h) and that blocks are
  /// in MAC order. False (reader unusable, error() set) on any mismatch.
  [[nodiscard]] bool open(const std::string& path);
  void close() { file_.close(); }

  [[nodiscard]] bool is_open() const noexcept { return file_.is_open(); }
  [[nodiscard]] FileError error() const noexcept { return file_.error(); }
  [[nodiscard]] std::uint64_t records() const noexcept {
    return file_.records();
  }
  [[nodiscard]] std::size_t blocks() const noexcept {
    return file_.directory().size();
  }

  /// [min, max] over the MAC key, from block stats alone.
  [[nodiscard]] std::optional<std::pair<std::uint64_t, std::uint64_t>>
  mac_range() const noexcept;

  /// Streams blocks [first_block, first_block + count) in stored order —
  /// the contiguous slice a partition-scan shard owns.
  [[nodiscard]] bool for_each_block_range(
      std::size_t first_block, std::size_t count,
      const std::function<void(const sim::GeoRecord&)>& fn);

  [[nodiscard]] bool for_each(
      const std::function<void(const sim::GeoRecord&)>& fn);

  /// Streams only records with MAC in [mac_lo, mac_hi], skipping every
  /// block whose stats exclude the window.
  [[nodiscard]] bool for_each_overlapping(
      std::uint64_t mac_lo, std::uint64_t mac_hi,
      const std::function<void(const sim::GeoRecord&)>& fn);

  [[nodiscard]] std::uint64_t blocks_read() const noexcept {
    return file_.blocks_read();
  }
  [[nodiscard]] std::uint64_t blocks_skipped() const noexcept {
    return file_.blocks_skipped();
  }

 private:
  BlockFileReader file_;
};

}  // namespace scent::corpus
