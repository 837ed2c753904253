// keyed_run.h - streaming block format for MAC-keyed join spill runs.
//
// The cross-dataset join (src/join/, DESIGN.md §5l) radix-partitions both
// input sides by MAC and spills every partition to disk so the working set
// is bounded by one partition, never by the input. This is the run format:
// fixed-width records (one 64-bit key plus three 64-bit payload columns)
// packed into independently decodable blocks, each column zigzag-delta
// varint encoded with the encoding.h codecs the snapshot format uses,
// each block carrying a CRC-32C and min/max stats over the key column.
//
// The stats are what make partition pruning free: a reader handed a key
// window skips — without reading, let alone CRC-checking or decoding — every
// block whose [key_min, key_max] cannot intersect it, exactly the §5j
// block-skip predicate contract. Because the join's feed side arrives
// MAC-sorted, its spilled blocks have tight key ranges and a MAC-disjoint
// fixture genuinely prunes.
//
// Runs are block files (block_file.h): written strictly forward — open,
// append, finish — so a spill never holds more than one block buffer, with
// the block directory and footer at the end of the file. The header word is
// the payload column count (3); every record costs at least one varint byte
// per column, so a block holds at most payload_bytes / 4 records.
//
// Layout: block_file.h's envelope with magic "SCNTKRUN", end magic
// "KRUNDONE", and per block the key column then c0, c1, c2, each a zigzag-
// delta varint stream whose running value resets at the block start.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "corpus/block_file.h"

namespace scent::corpus {

/// One join record: the MAC key plus three opaque payload columns (the join
/// layers assign meaning — network/asn/day on the rotation side, packed
/// lat·lon/asn/day on the geo side).
struct KeyedRecord {
  std::uint64_t key = 0;
  std::uint64_t c0 = 0;
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;

  friend constexpr bool operator==(const KeyedRecord&,
                                   const KeyedRecord&) = default;
};

/// Records per block. Small enough that a partition pass holding one open
/// writer per (shard, partition) stays at a few hundred KB per writer.
inline constexpr std::size_t kKeyedRunBlockElements = 8192;

/// Forward-only run writer: open(), append() in input order, finish().
/// Records are buffered one block at a time; every full block is encoded
/// and flushed immediately, so memory stays O(block) no matter the run size.
class KeyedRunWriter {
 public:
  /// A block encodes into `scratch`, grown to the block's worst case (ten
  /// bytes per value). Writers that never flush at the same time — one
  /// join shard's cells — share one, so the buffer is paid once per shard
  /// rather than once per writer. It must outlive the writer.
  explicit KeyedRunWriter(
      std::vector<unsigned char>& scratch,
      std::size_t block_elements = kKeyedRunBlockElements) noexcept;

  [[nodiscard]] bool open(const std::string& path);

  void append(const KeyedRecord& record);

  /// Flushes the tail block, writes the directory and footer, closes the
  /// file. False on any I/O failure (including buffered writes surfacing at
  /// close). The writer is unusable afterwards.
  [[nodiscard]] bool finish();

  [[nodiscard]] bool is_open() const noexcept { return file_.is_open(); }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

  /// Total file bytes finish() produced (valid after finish()).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return file_.bytes_written();
  }

 private:
  void flush_block();

  std::size_t block_elements_;
  BlockFileWriter file_;
  std::vector<KeyedRecord> buffer_;
  std::vector<unsigned char>& scratch_;
  std::uint64_t records_ = 0;
};

/// Run reader: validates the trailer-anchored directory at open, then
/// streams records block by block. Key-window scans skip non-overlapping
/// blocks without reading them, counted in blocks_skipped().
class KeyedRunReader {
 public:
  KeyedRunReader() noexcept;

  /// Validates the block-file envelope (block_file.h) and that every
  /// block's key_min <= key_max. False (reader unusable, error() set) on
  /// any mismatch.
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

  /// [min, max] over the key column, from block stats alone. nullopt for an
  /// empty run.
  [[nodiscard]] std::optional<std::pair<std::uint64_t, std::uint64_t>>
  key_range() const noexcept;

  /// Streams every record in stored order. False on CRC mismatch, decode
  /// error or I/O failure.
  [[nodiscard]] bool for_each(
      const std::function<void(const KeyedRecord&)>& fn);

  /// Streams only records with key in [key_lo, key_hi], skipping (not
  /// reading) every block whose stats exclude the window. Records inside a
  /// surviving block are still filtered exactly.
  [[nodiscard]] bool for_each_overlapping(
      std::uint64_t key_lo, std::uint64_t key_hi,
      const std::function<void(const KeyedRecord&)>& fn);

  [[nodiscard]] std::uint64_t blocks_read() const noexcept {
    return file_.blocks_read();
  }
  [[nodiscard]] std::uint64_t blocks_skipped() const noexcept {
    return file_.blocks_skipped();
  }

 private:
  BlockFileReader file_;
  std::vector<KeyedRecord> records_;  ///< The block being decoded.
};

}  // namespace scent::corpus
