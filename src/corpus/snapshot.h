// snapshot.h - versioned binary columnar snapshots of an observation corpus.
//
// The campaign's durable unit of work is one day's observations. This module
// persists an ObservationStore slice as a binary columnar file — the default
// persistence format (the CSV in core/io.h remains as a debug/export path) —
// and reads it back whole, column by column, as row-window slices that touch
// only the blocks they overlap, or as a stream of deduplicated EUI pairs
// derived from the target and response columns.
//
// Layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic "SCNTSNAP"
//   8       4     format version (u32) = 3
//   12      8     row count (u64)
//   20      4     section count (u32) = 4
//   24      96    section table: id (u32), offset (u64), size (u64),
//                 crc32c (u32) per section, ids 1-4 in order
//   120     4     header CRC-32C over every preceding header byte
//   124           section payloads, at their recorded offsets
//
// The four sections are the store's columns, nothing else:
//
//   id  section    element
//   1   targets    address (network u64, iid u64)
//   2   responses  address (network u64, iid u64)
//   3   type_code  (icmp type << 8) | code (u16)
//   4   times      send time, microseconds (i64)
//
// Every section is block-compressed. A section payload is a block directory
// followed by independently decodable blocks of up to 64Ki elements, split
// at the same rows in all four sections:
//
//   u32   block count
//   36 B  per block: payload offset (u64, relative to directory end),
//         element count (u32), payload bytes (u32), payload CRC-32C (u32),
//         min stat (u64), max stat (u64)
//   ...   block payloads, contiguous, in order
//
// The section-table crc field covers the directory (validated at open, so a
// damaged block index is caught before any payload is touched); each block
// carries its own CRC, verified when — and only when — that block is read.
// Per-column encodings and the min/max stat semantics are specified in
// DESIGN.md §5j: sorted-dictionary networks + delta iids for the address
// sections, run-length deltas for times, run-length values for type+code.
// Blocks reset all decoder state, so any block decodes alone — that is what
// makes row-window reads skip non-overlapping blocks entirely and lets
// save/load fan blocks across threads while the bytes stay identical at any
// thread count.
//
// The <target, EUI-64 response> pairs the rotation detector and the join
// read are not stored: for_each_eui_pair derives them from sections 1-2
// with core::Snapshot::record_rows's semantics (first-sighting order, the
// last EUI-64 response wins). When the target blocks prove that no target
// repeats across blocks, it streams one block at a time (DESIGN.md §5j).
//
// Versioning: the magic never changes; readers reject any other version and
// any other section table (there is no cross-version migration — snapshots
// are campaign artifacts, regenerable from a re-run, not archival
// interchange). Any layout change bumps the version.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/observation.h"
#include "corpus/file.h"
#include "netbase/ipv6_address.h"
#include "sim/sim_time.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::corpus {

inline constexpr std::uint32_t kSnapshotFormatVersion = 3;
/// Elements per block — the skip/parallelism granule.
inline constexpr std::size_t kSnapshotBlockElements = std::size_t{1} << 16;

/// Why an open or read failed. Never UB on corrupt input: every failure
/// mode maps to one of these.
enum class SnapshotError {
  kNone,
  kOpenFailed,      ///< fopen failed (missing file, permissions).
  kBadMagic,        ///< Not a snapshot file.
  kBadVersion,      ///< Unsupported format version.
  kTruncated,       ///< Header or a section extends past end of file.
  kBadLayout,       ///< Bad section table or block index.
  kCorruptSection,  ///< A block or directory failed its CRC, or a CRC-valid
                    ///< block decoded to inconsistent content.
  kReadFailed,      ///< I/O error mid-read.
};

[[nodiscard]] const char* to_string(SnapshotError error) noexcept;

/// Accumulates observations and writes them as one snapshot file. Rows can
/// arrive one at a time, as whole stores, or as store Views (the sweep's
/// new rows); the store forms copy column ranges. write() encodes every
/// block of the four columns in one task list that workers claim
/// dynamically (DESIGN.md §5j).
class SnapshotWriter {
 public:
  void append(net::Ipv6Address target, net::Ipv6Address response,
              std::uint16_t type_code, sim::TimePoint time);

  void append(const core::Observation& obs) {
    append(obs.target, obs.response,
           static_cast<std::uint16_t>(
               (static_cast<std::uint16_t>(obs.type) << 8) | obs.code),
           obs.time);
  }

  /// Column-wise append of a whole store.
  void append(const core::ObservationStore& store) { append(store.all()); }

  /// Column-wise append of a store window (e.g. one sweep's new rows).
  void append(const core::ObservationStore::View& view);

  /// Worker threads for block compression (0 = hardware concurrency).
  /// Purely a wall-clock knob: the emitted bytes are identical at any
  /// value, because blocks are fixed row partitions encoded independently.
  void set_threads(unsigned threads) noexcept { threads_ = threads; }

  [[nodiscard]] std::uint64_t rows() const noexcept {
    return targets_.size();
  }

  /// Exact size in bytes of the file write() would produce for the current
  /// contents. Runs the (deterministic) encoder and caches the answer, so
  /// calling this right after write() is free.
  [[nodiscard]] std::uint64_t encoded_size() const;

  /// Writes the snapshot. False on any I/O failure, including
  /// buffered writes that only surface at flush/close time (disk full).
  [[nodiscard]] bool write(const std::string& path) const;

  /// Optional instrumentation: write() times encoding as one
  /// "snapshot.encode" span and each section's file write as a
  /// "snapshot.section_write" span, in `registry`'s path tree and as
  /// begin/end pairs in `recorder`. Either may be null; both default off.
  void set_trace(telemetry::Registry* registry,
                 telemetry::TraceRecorder* recorder) noexcept {
    trace_registry_ = registry;
    trace_recorder_ = recorder;
  }

  void clear();

 private:
  struct Encoded;  // defined in snapshot.cpp

  void encode(Encoded& out) const;

  std::vector<net::Ipv6Address> targets_;
  std::vector<net::Ipv6Address> responses_;
  std::vector<std::uint16_t> type_codes_;
  std::vector<sim::TimePoint> times_;
  unsigned threads_ = 1;
  /// Cached total size; invalidated by append/clear.
  mutable std::optional<std::uint64_t> cached_size_;
  telemetry::Registry* trace_registry_ = nullptr;
  telemetry::TraceRecorder* trace_recorder_ = nullptr;
};

/// Opens a snapshot and serves columns lazily: each read touches only that
/// column's section, and only the blocks overlapping the requested row
/// window, so consumers that need one column (the tracker reads responses
/// + times) never pay for the full corpus, and windowed scans never pay for
/// rows outside their window.
class SnapshotReader {
 public:
  /// Validates magic, version, header CRC and section layout (each
  /// section's block directory against its table CRC — a damaged block
  /// index never survives open). On failure returns false with error()
  /// set; the reader stays unusable.
  [[nodiscard]] bool open(const std::string& path);

  /// Optional section-I/O instrumentation, mirroring SnapshotWriter: each
  /// section read is a "snapshot.section_read" span. Either sink may be
  /// null; both default off.
  void set_trace(telemetry::Registry* registry,
                 telemetry::TraceRecorder* recorder) noexcept {
    trace_registry_ = registry;
    trace_recorder_ = recorder;
  }

  /// Worker threads for block decode on full-column reads (0 = hardware
  /// concurrency). A wall-clock knob only; decoded rows are identical.
  void set_threads(unsigned threads) noexcept { threads_ = threads; }

  [[nodiscard]] bool is_open() const noexcept { return bool{file_}; }
  [[nodiscard]] SnapshotError error() const noexcept { return error_; }
  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }

  // Lazy per-column reads. Each replaces `out`; false (with error() set)
  // on CRC mismatch or I/O error.
  [[nodiscard]] bool read_targets(std::vector<net::Ipv6Address>& out);
  [[nodiscard]] bool read_responses(std::vector<net::Ipv6Address>& out);
  [[nodiscard]] bool read_type_codes(std::vector<std::uint16_t>& out);
  [[nodiscard]] bool read_times(std::vector<sim::TimePoint>& out);

  // Row-window column reads: exactly rows [first, first + count) of the
  // column land in `out`. The window is clamped to the snapshot's rows.
  // Only the blocks overlapping the window are read (and CRC-verified);
  // the rest count into blocks_skipped() (DESIGN.md §5j).
  [[nodiscard]] bool read_targets(std::vector<net::Ipv6Address>& out,
                                  std::uint64_t first, std::uint64_t count);
  [[nodiscard]] bool read_responses(std::vector<net::Ipv6Address>& out,
                                    std::uint64_t first, std::uint64_t count);
  [[nodiscard]] bool read_type_codes(std::vector<std::uint16_t>& out,
                                     std::uint64_t first, std::uint64_t count);
  [[nodiscard]] bool read_times(std::vector<sim::TimePoint>& out,
                                std::uint64_t first, std::uint64_t count);

  /// Blocks decoded / blocks skipped by row-window predicates since open().
  [[nodiscard]] std::uint64_t blocks_read() const noexcept {
    return blocks_read_;
  }
  [[nodiscard]] std::uint64_t blocks_skipped() const noexcept {
    return blocks_skipped_;
  }

  /// [min, max] send time across all rows, from the time-section block
  /// stats — the day predicate: a whole file (or block) outside a day
  /// window can be skipped without decoding anything. nullopt for empty
  /// snapshots.
  [[nodiscard]] std::optional<std::pair<sim::TimePoint, sim::TimePoint>>
  time_range() const noexcept;

  /// Streams the deduplicated <target, EUI-64 response> pairs, derived
  /// from the target and response columns with core::Snapshot::
  /// record_rows's semantics: first-sighting order, the last EUI-64
  /// response wins. When every target block's dictionary has one network
  /// per row and the blocks' [min, max] network ranges strictly increase,
  /// no target repeats and the pairs stream one block at a time, with no
  /// map; otherwise record_rows runs over the whole file's two columns.
  /// `fn` returns false to stop the stream; stopping is not a failure.
  [[nodiscard]] bool for_each_eui_pair(
      const std::function<bool(net::Ipv6Address target,
                               net::Ipv6Address response)>& fn);

  /// Appends every row to `store` in one ObservationStore::append_columns:
  /// each column decodes straight into the store's new rows (every block
  /// of the four sections in one fan-out over set_threads() workers), then the store indexes the new rows in row order, so its
  /// distinct sets carry the original insertion history. All or nothing:
  /// on any failure (error() set) the store keeps exactly its old rows and
  /// distinct sets.
  [[nodiscard]] bool read_into(core::ObservationStore& store);

  /// The whole snapshot as a fresh store; nullopt on any failure.
  [[nodiscard]] std::optional<core::ObservationStore> read_store();

 private:
  /// One block-directory entry, plus the running element offset.
  struct BlockEntry {
    std::uint64_t payload_offset = 0;  ///< Relative to the directory end.
    std::uint64_t first_element = 0;   ///< Within the section.
    std::uint32_t elements = 0;
    std::uint32_t payload_bytes = 0;
    std::uint32_t crc = 0;
    std::uint64_t min_stat = 0;
    std::uint64_t max_stat = 0;
  };

  struct BlockDir {
    std::vector<BlockEntry> entries;
    std::uint64_t payload_base = 0;  ///< Absolute file offset of block 0.
  };

  [[nodiscard]] bool fail(SnapshotError error) noexcept;
  /// Reads and validates the block directory of section `id` (1-4), which
  /// occupies [offset, offset + size) and whose directory CRC is `crc`.
  [[nodiscard]] bool parse_block_dir(std::uint32_t id, std::uint64_t offset,
                                     std::uint64_t size, std::uint32_t crc);
  [[nodiscard]] const BlockDir& directory(std::uint32_t id) const noexcept {
    return dirs_[id - 1];
  }

  /// Reads + verifies + decodes exactly the blocks of section `id`
  /// overlapping elements [first, first + count), appending the window to
  /// `out` through the column-typed decoder.
  template <typename T, typename DecodeBlock>
  [[nodiscard]] bool read_blocks(std::uint32_t id, std::uint64_t first,
                                 std::uint64_t count, std::vector<T>& out,
                                 DecodeBlock&& decode);

  /// Reads block `b` of section `id` into `buf` and checks its CRC.
  [[nodiscard]] bool read_block(std::uint32_t id, std::size_t b,
                                std::vector<unsigned char>& buf);

  /// Decodes every block of the four sections into `out` (rows_ each).
  [[nodiscard]] bool decode_columns(
      const core::ObservationStore::ColumnSlices& out);

  File file_;
  SnapshotError error_ = SnapshotError::kNone;
  std::uint64_t rows_ = 0;
  std::array<BlockDir, 4> dirs_{};
  unsigned threads_ = 1;
  std::uint64_t blocks_read_ = 0;
  std::uint64_t blocks_skipped_ = 0;
  telemetry::Registry* trace_registry_ = nullptr;
  telemetry::TraceRecorder* trace_recorder_ = nullptr;
};

}  // namespace scent::corpus
