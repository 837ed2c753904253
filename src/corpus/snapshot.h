// snapshot.h - versioned binary columnar snapshots of an observation corpus.
//
// The campaign's durable unit of work is one day's observations. This module
// persists an ObservationStore slice as a binary columnar file — the default
// persistence format (the CSV in core/io.h remains as a debug/export path),
// encoded straight from the store's columns without copying them — and
// reads it back whole, column by column, as row-window slices that touch
// only the blocks they overlap, or as a stream of deduplicated EUI pairs
// derived from the target and response columns.
//
// Layout: block_file.h's envelope with magic "SCNTSNAP", end magic
// "SNAPDONE" and the format version (4) as its header word. The blocks are
// the store's four columns, nothing else, section-major: every targets
// block, then every responses block, then every type+code block, then
// every times block:
//
//   column     element                                      floor
//   targets    address (network u64, iid u64)               2 B
//   responses  address (network u64, iid u64)               2 B
//   type_code  (icmp type << 8) | code (u16)                0 B
//   times      send time, microseconds (i64)                0 B
//
// Each column is split into independently decodable blocks of up to 64Ki
// elements, at the same rows in all four, so the envelope's directory holds
// four equal runs of blocks; its entry carries each block's elements, CRC
// and min/max stat. The floor is the fewest payload bytes an element
// encodes to (an address is at least an index and an iid-delta varint; the
// run-length columns have none), and open() checks it per block, the
// four-way split and a per-block element cap after the envelope's own
// validation. Every block's CRC is verified when — and only when — that
// block is read.
// Per-column encodings and the min/max stat semantics are specified in
// DESIGN.md §5j: sorted-dictionary networks + delta iids for the address
// columns, run-length deltas for times, run-length values for type+code.
// Blocks reset all decoder state, so any block decodes alone — that is what
// makes row-window reads skip non-overlapping blocks entirely and lets
// save/load fan blocks across threads while the bytes stay identical at any
// thread count.
//
// The <target, EUI-64 response> pairs the rotation detector and the join
// read are not stored: for_each_eui_pair derives them from the target and
// response columns with core::Snapshot::record_rows's semantics (first-
// sighting order, the last EUI-64 response wins). When the target blocks
// prove that no target repeats across blocks, it streams one block at a
// time (DESIGN.md §5j).
//
// Versioning: the magic never changes; readers reject any other version
// (there is no cross-version migration — snapshots are campaign artifacts,
// regenerable from a re-run, not archival interchange). Any layout change
// bumps the version. A format-3 file, whose version word sits where the
// envelope keeps its own, fails open() as kBadVersion.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/observation.h"
#include "corpus/block_file.h"
#include "netbase/ipv6_address.h"
#include "sim/sim_time.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::corpus {

inline constexpr std::uint32_t kSnapshotFormatVersion = 4;
/// Elements per block — the skip/parallelism granule.
inline constexpr std::size_t kSnapshotBlockElements = std::size_t{1} << 16;

/// The snapshot's block-file envelope. The run-length columns have no
/// per-element floor, so the reader checks the address columns' own.
inline constexpr BlockFileFormat kSnapshotFormat{
    .magic = {'S', 'C', 'N', 'T', 'S', 'N', 'A', 'P'},
    .end_magic = {'S', 'N', 'A', 'P', 'D', 'O', 'N', 'E'},
    .header_word = kSnapshotFormatVersion,
    .min_bytes_per_element = 0,
};

/// Writes a run of a store's rows as one snapshot file. The writer holds
/// an ObservationStore::View — a store pointer and a row range, which stays
/// valid while the store grows — and encodes straight from the store's
/// columns at write(), so the rows are never copied; the store must outlive
/// the writer's last write(). write() encodes every block of the four
/// columns in one task list that workers claim dynamically (DESIGN.md §5j).
class SnapshotWriter {
 public:
  /// Every row of `store`.
  void append(const core::ObservationStore& store) { append(store.all()); }

  /// A temporary store would leave the writer pointing at freed rows.
  void append(const core::ObservationStore&&) = delete;

  /// A store window (e.g. one day's rows). A second non-empty window must
  /// continue the held one: the same store, starting at its last row;
  /// anything else throws std::invalid_argument. Empty windows are ignored.
  void append(const core::ObservationStore::View& view);

  /// Worker threads for block compression (0 = hardware concurrency).
  /// Purely a wall-clock knob: the emitted bytes are identical at any
  /// value, because blocks are fixed row partitions encoded independently.
  void set_threads(unsigned threads) noexcept { threads_ = threads; }

  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_.size(); }

  /// Size in bytes of the file the last write() produced (0 before any).
  [[nodiscard]] std::uint64_t encoded_size() const noexcept {
    return written_bytes_;
  }

  /// Writes the snapshot. False on any I/O failure, including
  /// buffered writes that only surface at flush/close time (disk full).
  [[nodiscard]] bool write(const std::string& path);

  /// Optional instrumentation: write() times encoding as one
  /// "snapshot.encode" span and each column's block writes as a
  /// "snapshot.section_write" span, in `registry`'s path tree and as
  /// begin/end pairs in `recorder`. Either may be null; both default off.
  void set_trace(telemetry::Registry* registry,
                 telemetry::TraceRecorder* recorder) noexcept {
    trace_registry_ = registry;
    trace_recorder_ = recorder;
  }

 private:
  core::ObservationStore::View rows_{nullptr, 0, 0};
  unsigned threads_ = 1;
  std::uint64_t written_bytes_ = 0;
  telemetry::Registry* trace_registry_ = nullptr;
  telemetry::TraceRecorder* trace_recorder_ = nullptr;
};

/// Opens a snapshot and serves columns lazily: each read touches only that
/// column's blocks, and only the blocks overlapping the requested row
/// window, so consumers that need one column (the tracker reads responses
/// + times) never pay for the full corpus, and windowed scans never pay for
/// rows outside their window.
class SnapshotReader {
 public:
  /// Validates the envelope (its directory CRC, so a damaged block index
  /// never survives open), then the snapshot's own layout: four equal runs
  /// of blocks split at the same rows, the address floor and the element
  /// cap per block. On failure returns false with error() set; the reader
  /// stays unusable.
  [[nodiscard]] bool open(const std::string& path);

  /// Optional column-I/O instrumentation, mirroring SnapshotWriter: each
  /// column read is a "snapshot.section_read" span. Either sink may be
  /// null; both default off.
  void set_trace(telemetry::Registry* registry,
                 telemetry::TraceRecorder* recorder) noexcept {
    trace_registry_ = registry;
    trace_recorder_ = recorder;
  }

  /// Worker threads for block decode on full-column reads (0 = hardware
  /// concurrency). A wall-clock knob only; decoded rows are identical.
  void set_threads(unsigned threads) noexcept { threads_ = threads; }

  [[nodiscard]] bool is_open() const noexcept { return file_.is_open(); }
  [[nodiscard]] FileError error() const noexcept { return file_.error(); }
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
    return file_.blocks_read();
  }
  [[nodiscard]] std::uint64_t blocks_skipped() const noexcept {
    return blocks_skipped_;
  }

  /// [min, max] send time across all rows, from the time column's block
  /// stats — the day predicate: a whole file (or block) outside a day
  /// window can be skipped without decoding anything. nullopt for empty
  /// snapshots and failed readers.
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
  /// of the four columns in one fan-out over set_threads() workers), then
  /// the store indexes the new rows in row order, so its
  /// distinct sets carry the original insertion history. All or nothing:
  /// on any failure (error() set) the store keeps exactly its old rows and
  /// distinct sets.
  [[nodiscard]] bool read_into(core::ObservationStore& store);

  /// The whole snapshot as a fresh store; nullopt on any failure.
  [[nodiscard]] std::optional<core::ObservationStore> read_store();

 private:
  /// Directory entry of block `b` of column `column` (0-3).
  [[nodiscard]] const BlockEntry& block(std::size_t column,
                                        std::size_t b) const noexcept {
    return file_.directory()[column * blocks_ + b];
  }

  /// Reads + verifies + decodes exactly the blocks of `column` overlapping
  /// rows [first, first + count), placing the window in `out` through the
  /// column-typed decoder.
  template <typename T, typename DecodeBlock>
  [[nodiscard]] bool read_blocks(std::size_t column, std::uint64_t first,
                                 std::uint64_t count, std::vector<T>& out,
                                 DecodeBlock&& decode);

  /// Decodes every block of the four columns into `out` (rows_ each).
  [[nodiscard]] bool decode_columns(
      const core::ObservationStore::ColumnSlices& out);

  BlockFileReader file_{kSnapshotFormat};
  std::uint64_t rows_ = 0;
  std::size_t blocks_ = 0;  ///< Blocks per column.
  /// First row of each block, then rows_: blocks_ + 1 entries.
  std::vector<std::uint64_t> block_rows_;
  unsigned threads_ = 1;
  std::uint64_t blocks_skipped_ = 0;
  telemetry::Registry* trace_registry_ = nullptr;
  telemetry::TraceRecorder* trace_recorder_ = nullptr;
};

}  // namespace scent::corpus
