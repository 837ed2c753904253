// block_file.h - the forward-only block-file envelope under every binary
// file the library writes.
//
// Day snapshots (snapshot.h), keyed spill runs (keyed_run.h), the
// geolocation feed (geo_feed.h) and the dossier spool (join/spool.h) are
// one container: a header, independently decodable block payloads written
// back to back, then a directory of per-block stats and a fixed-size footer
// the reader finds from the end of the file. Writing is strictly forward
// (open, write_block, finish), so a writer never holds more than the block
// its format is encoding; the directory and footer land at the end.
//
// The envelope owns everything but the payload codec: the header, the
// directory and footer, the CRC-32C of every block and of the directory,
// validation at open, CRC-checked block reads, the min/max skip predicate
// (§5j's block-stat contract) with its read/skip counters, and the one
// typed error vocabulary (FileError) every binary decoder fails with. Each
// format supplies a BlockFileFormat — its magics, its header word and its
// minimum encoded bytes per element — and its own column codec; checks
// specific to a format run after open() and report through fail().
//
// Layout (all integers little-endian):
//   header   magic (8) | version u32 (= 1) | header word u32
//   blocks   concatenated payloads, back to back
//   dir      per block: elements u32 | payload_bytes u32 | crc u32 |
//            key_min u64 | key_max u64                       (28 B/block)
//   footer   records u64 | blocks u32 | dir crc u32 | end magic (8)
//
// A directory is untrusted input: open() rejects any entry claiming more
// elements than its payload can encode at the format's minimum bytes per
// element, so no block read can size an allocation from a forged count.
// A format whose columns have no such floor (snapshots' run-length
// columns) bounds its counts itself. The envelope does not interpret the
// stats at open: a format that serves the skip predicate checks their
// order (keyed runs, the geo feed); snapshots store signed time stats.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "corpus/file.h"

namespace scent::corpus {

/// Why an open or a read failed. Never UB on corrupt input: every failure
/// mode of every binary decoder maps to one of these.
enum class FileError {
  kNone,
  kOpenFailed,  ///< fopen failed (missing file, permissions).
  kBadMagic,    ///< Not a file of this format.
  kBadVersion,  ///< Unsupported envelope version or format header word.
  kTruncated,   ///< Shorter than its header, or cut before its footer.
  kBadLayout,   ///< The directory does not describe the file, or breaks a
                ///< format's own structural rule.
  kCorrupt,     ///< The directory or a block failed its CRC, or a CRC-valid
                ///< block decoded to inconsistent content.
  kReadFailed,  ///< I/O error mid-read.
};

[[nodiscard]] const char* to_string(FileError error) noexcept;

/// What distinguishes one block-file format from another.
struct BlockFileFormat {
  char magic[8];
  char end_magic[8];
  /// Third header word, checked verbatim at open.
  std::uint32_t header_word = 0;
  /// Fewest payload bytes one element can encode to: one varint byte per
  /// column. Bounds a directory entry's element count by its payload size;
  /// 0 when a run-length column has no floor.
  std::uint32_t min_bytes_per_element = 1;
};

/// One validated directory entry.
struct BlockEntry {
  std::uint64_t payload_offset = 0;  ///< Absolute file offset.
  std::uint32_t elements = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t crc = 0;
  std::uint64_t key_min = 0;
  std::uint64_t key_max = 0;
};

/// Forward-only writer: open(), write_block() per encoded block, finish().
class BlockFileWriter {
 public:
  explicit BlockFileWriter(const BlockFileFormat& format) noexcept
      : format_(format) {}

  [[nodiscard]] bool open(const std::string& path);

  /// Appends one block of `elements` (>= 1) encoded elements whose keys
  /// span [key_min, key_max].
  void write_block(std::span<const unsigned char> payload,
                   std::uint32_t elements, std::uint64_t key_min,
                   std::uint64_t key_max);

  /// Writes the directory and footer and closes the file. False on any I/O
  /// failure, including buffered writes surfacing at close. The writer is
  /// unusable afterwards.
  [[nodiscard]] bool finish();

  [[nodiscard]] bool is_open() const noexcept { return bool{file_}; }

  /// Total file bytes finish() produced (valid after finish()).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }

 private:
  BlockFileFormat format_;
  File file_;
  bool io_ok_ = true;
  std::vector<unsigned char> dir_;  ///< Encoded directory entries.
  std::uint32_t blocks_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_written_ = 0;
};

/// Reader: validates the header, footer and directory at open, then reads
/// CRC-checked blocks on demand. Any failure closes the reader and sets
/// error(); later reads fail and keep that error.
class BlockFileReader {
 public:
  /// Called with each block read and its verified payload; returning false
  /// (a decode error) stops the scan and fails it.
  using BlockVisitor = std::function<bool(
      const BlockEntry& entry, std::span<const unsigned char> payload)>;

  explicit BlockFileReader(const BlockFileFormat& format) noexcept
      : format_(format) {}

  /// Validates magic, version, header word, footer, directory CRC, that
  /// the blocks tile the file between header and directory, the element
  /// total, and every entry's elements against its payload size. False
  /// (reader closed, error() set) on any mismatch. Resets the counters.
  [[nodiscard]] bool open(const std::string& path);
  void close();

  /// Closes the reader with `error` — a format's own check or decoder
  /// failed. Always false.
  bool fail(FileError error);

  [[nodiscard]] bool is_open() const noexcept { return bool{file_}; }
  [[nodiscard]] FileError error() const noexcept { return error_; }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  [[nodiscard]] const std::vector<BlockEntry>& directory() const noexcept {
    return dir_;
  }

  /// Reads block `index` into `payload` and verifies its CRC. False on a
  /// closed reader, an I/O failure or a CRC mismatch.
  [[nodiscard]] bool read_block(std::size_t index,
                                std::vector<unsigned char>& payload);

  /// Visits blocks [first, first + count) in stored order. A visitor's
  /// false fails the reader with kCorrupt.
  [[nodiscard]] bool for_each_block(std::size_t first, std::size_t count,
                                    const BlockVisitor& visit);

  /// Visits only blocks whose [key_min, key_max] meets [key_lo, key_hi];
  /// every other block is skipped unread and counted in blocks_skipped().
  [[nodiscard]] bool for_each_overlapping(std::uint64_t key_lo,
                                          std::uint64_t key_hi,
                                          const BlockVisitor& visit);

  [[nodiscard]] std::uint64_t blocks_read() const noexcept {
    return blocks_read_;
  }
  [[nodiscard]] std::uint64_t blocks_skipped() const noexcept {
    return blocks_skipped_;
  }

 private:
  [[nodiscard]] bool visit_block(std::size_t index, const BlockVisitor& visit);

  BlockFileFormat format_;
  File file_;
  FileError error_ = FileError::kNone;
  std::uint64_t records_ = 0;
  std::vector<BlockEntry> dir_;
  std::vector<unsigned char> payload_;
  std::uint64_t blocks_read_ = 0;
  std::uint64_t blocks_skipped_ = 0;
};

}  // namespace scent::corpus
