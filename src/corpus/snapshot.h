// snapshot.h - versioned binary columnar snapshots of an observation corpus.
//
// The campaign's durable unit of work is one day's observations. This module
// persists an ObservationStore slice as a binary columnar file — the default
// persistence format (the CSV in core/io.h remains as a debug/export path) —
// and reads it back whole, column by column, as row-window slices that touch
// only the blocks they overlap, or as a stream of deduplicated EUI pairs for
// incremental rotation differencing.
//
// Both versions share one envelope (all integers little-endian):
//
//   offset  size  field
//   0       8     magic "SCNTSNAP"
//   8       4     format version (u32) = 1 or 2
//   12      8     row count (u64)
//   20      4     section count (u32) = 5
//   24      24*n  section table: id (u32), offset (u64), size (u64),
//                 crc32c (u32) per section
//   ...     4     header CRC-32C over every preceding header byte
//   ...           section payloads, at their recorded offsets
//
// The five sections carry the store's columns plus one derived section:
//
//   id  section    element                                   v1 width
//   1   targets    address (network u64, iid u64)            16 B/row
//   2   responses  address (network u64, iid u64)            16 B/row
//   3   type_code  (icmp type << 8) | code (u16)              2 B/row
//   4   times      send time, microseconds (i64)              8 B/row
//   5   eui_pairs  <target, EUI-64 response> address pair    32 B/pair
//
// eui_pairs is deduplicated by target (last response wins) in target
// first-sighting order — exactly the rotation detector's Snapshot recorded
// over the rows — so an incremental diff streams it without rebuilding the
// index from raw observations.
//
// v1 stores each section as its raw elements with one whole-section CRC;
// the section-table crc field covers the payload. v1 is read-only: nothing
// writes it any more, its layout never changes, and readers accept it
// forever — checkpoint chains written before v2 existed (and the committed
// fixture) still load and still mix with v2 files in one chain.
//
// v2 is what SnapshotWriter emits. It block-compresses every section. A
// section payload is a block directory followed by independently decodable
// blocks of up to 64Ki elements:
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
// Versioning: the magic never changes; readers reject any other version
// (there is no cross-version migration — snapshots are campaign artifacts,
// regenerable from a re-run, not archival interchange). Any layout change
// bumps the version. Unknown section ids are ignored on read, so a future
// writer may append sections without a version bump as long as sections 1-5
// keep their meaning.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "container/flat_hash.h"
#include "core/observation.h"
#include "netbase/ipv6_address.h"
#include "sim/sim_time.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::corpus {

inline constexpr std::uint32_t kSnapshotFormatV1 = 1;
inline constexpr std::uint32_t kSnapshotFormatV2 = 2;
/// Elements per v2 block — the skip/parallelism granule.
inline constexpr std::size_t kSnapshotBlockElements = std::size_t{1} << 16;

/// Why an open or read failed. Never UB on corrupt input: every failure
/// mode maps to one of these.
enum class SnapshotError {
  kNone,
  kOpenFailed,      ///< fopen failed (missing file, permissions).
  kBadMagic,        ///< Not a snapshot file.
  kBadVersion,      ///< Unsupported format version.
  kTruncated,       ///< Header or a section extends past end of file.
  kBadLayout,       ///< Missing/ill-sized section or a bad v2 block index.
  kCorruptSection,  ///< A section, block or directory failed its CRC, or a
                    ///< CRC-valid v2 block decoded to inconsistent content.
  kReadFailed,      ///< I/O error mid-read.
};

[[nodiscard]] const char* to_string(SnapshotError error) noexcept;

/// Accumulates observations and writes them as one snapshot file. Rows can
/// arrive one at a time, as whole stores (column-copy fast path), or as
/// store Views (the engine's per-shard slices).
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

  /// Column-wise append of a whole store — the shard-merge fast path.
  void append(const core::ObservationStore& store);

  /// Row-wise append of a store window (e.g. one sweep unit's slice).
  void append(const core::ObservationStore::View& view);

  /// Worker threads for v2 block compression (0 = hardware concurrency).
  /// Purely a wall-clock knob: the emitted bytes are identical at any
  /// value, because blocks are fixed row partitions encoded independently.
  void set_threads(unsigned threads) noexcept { threads_ = threads; }

  [[nodiscard]] std::uint64_t rows() const noexcept {
    return targets_.size();
  }
  [[nodiscard]] std::uint64_t eui_pair_count() const noexcept {
    return eui_pairs_.size();
  }

  /// Exact size in bytes of the file write() would produce for the current
  /// contents. Runs the (deterministic) encoder and caches the answer, so
  /// calling this right after write() is free.
  [[nodiscard]] std::uint64_t encoded_size() const;

  /// Writes the snapshot as v2. False on any I/O failure, including
  /// buffered writes that only surface at flush/close time (disk full).
  [[nodiscard]] bool write(const std::string& path) const;

  /// Optional section-I/O instrumentation: write() times each section as
  /// a "snapshot.section_write" span in `registry`'s path tree and as a
  /// begin/end pair in `recorder`. Either may be null; both default off.
  void set_trace(telemetry::Registry* registry,
                 telemetry::TraceRecorder* recorder) noexcept {
    trace_registry_ = registry;
    trace_recorder_ = recorder;
  }

  void clear();

 private:
  struct EncodedV2;  // defined in snapshot.cpp

  void encode_v2(EncodedV2& out) const;

  std::vector<net::Ipv6Address> targets_;
  std::vector<net::Ipv6Address> responses_;
  std::vector<std::uint16_t> type_codes_;
  std::vector<sim::TimePoint> times_;
  /// target -> latest EUI-64 response, target first-sighting order (the
  /// rotation Snapshot semantics, precomputed).
  container::FlatMap<net::Ipv6Address, net::Ipv6Address, net::Ipv6AddressHash>
      eui_pairs_;
  unsigned threads_ = 1;
  /// Cached v2 total size; invalidated by append/clear.
  mutable std::optional<std::uint64_t> cached_v2_size_;
  telemetry::Registry* trace_registry_ = nullptr;
  telemetry::TraceRecorder* trace_recorder_ = nullptr;
};

/// Opens a snapshot (either version, auto-detected) and serves columns
/// lazily: each read touches only that column's section — and, for v2, only
/// the blocks overlapping the requested row window — so consumers that need
/// one column (the tracker reads responses + times, the incremental
/// rotation diff streams only eui_pairs) never pay for the full corpus, and
/// windowed scans never pay for rows outside their window.
class SnapshotReader {
 public:
  SnapshotReader() = default;
  ~SnapshotReader();
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// Validates magic, version, header CRC and section layout (for v2, each
  /// section's block directory against its table CRC — a damaged block
  /// index never survives open). On failure returns false with error()
  /// set; the reader stays unusable.
  [[nodiscard]] bool open(const std::string& path);
  void close();

  /// Optional section-I/O instrumentation, mirroring SnapshotWriter: each
  /// section read is a "snapshot.section_read" span. Either sink may be
  /// null; both default off.
  void set_trace(telemetry::Registry* registry,
                 telemetry::TraceRecorder* recorder) noexcept {
    trace_registry_ = registry;
    trace_recorder_ = recorder;
  }

  /// Worker threads for v2 block decode on full-column reads (0 = hardware
  /// concurrency). A wall-clock knob only; decoded rows are identical.
  void set_threads(unsigned threads) noexcept { threads_ = threads; }

  [[nodiscard]] bool is_open() const noexcept { return file_ != nullptr; }
  [[nodiscard]] SnapshotError error() const noexcept { return error_; }
  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint64_t eui_pair_count() const noexcept;

  // Lazy per-column reads. Each replaces `out`; false (with error() set)
  // on CRC mismatch or I/O error.
  [[nodiscard]] bool read_targets(std::vector<net::Ipv6Address>& out);
  [[nodiscard]] bool read_responses(std::vector<net::Ipv6Address>& out);
  [[nodiscard]] bool read_type_codes(std::vector<std::uint16_t>& out);
  [[nodiscard]] bool read_times(std::vector<sim::TimePoint>& out);

  // Row-window column reads: exactly rows [first, first + count) of the
  // column land in `out`. The window is clamped to the snapshot's rows.
  // v2 reads (and CRC-verifies) only the blocks overlapping the window,
  // counting the rest into blocks_skipped(); v1 has no sub-section
  // integrity unit, so it reads the whole section and slices — correct,
  // just not cheaper (the block-skip predicate contract, DESIGN.md §5j).
  [[nodiscard]] bool read_targets(std::vector<net::Ipv6Address>& out,
                                  std::uint64_t first, std::uint64_t count);
  [[nodiscard]] bool read_responses(std::vector<net::Ipv6Address>& out,
                                    std::uint64_t first, std::uint64_t count);
  [[nodiscard]] bool read_type_codes(std::vector<std::uint16_t>& out,
                                     std::uint64_t first, std::uint64_t count);
  [[nodiscard]] bool read_times(std::vector<sim::TimePoint>& out,
                                std::uint64_t first, std::uint64_t count);

  /// Blocks decoded / blocks skipped by row-window predicates since open().
  /// v1 files report zero for both (no blocks to count).
  [[nodiscard]] std::uint64_t blocks_read() const noexcept {
    return blocks_read_;
  }
  [[nodiscard]] std::uint64_t blocks_skipped() const noexcept {
    return blocks_skipped_;
  }

  /// [min, max] send time across all rows, from the v2 time-section block
  /// stats — the day predicate: a whole file (or block) outside a day
  /// window can be skipped without decoding anything. nullopt for v1 files
  /// and empty snapshots.
  [[nodiscard]] std::optional<std::pair<sim::TimePoint, sim::TimePoint>>
  time_range() const noexcept;

  /// Streams the deduplicated <target, EUI-64 response> pairs in stored
  /// order without materializing them.
  [[nodiscard]] bool for_each_eui_pair(
      const std::function<void(net::Ipv6Address target,
                               net::Ipv6Address response)>& fn);

  /// Replays every row into `store` (appending, through the store's own
  /// add path so its indexes rebuild with the original insertion history).
  [[nodiscard]] bool read_into(core::ObservationStore& store);

  /// The whole snapshot as a fresh store; nullopt on any failure.
  [[nodiscard]] std::optional<core::ObservationStore> read_store();

 private:
  struct Section {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    bool present = false;
  };

  /// One v2 block-directory entry, plus the running element offset.
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
    std::uint64_t total_elements = 0;
  };

  static constexpr std::uint32_t kMaxSectionId = 5;

  [[nodiscard]] bool fail(SnapshotError error) noexcept;
  [[nodiscard]] const Section* section(std::uint32_t id) const noexcept;
  [[nodiscard]] bool parse_block_dir(std::uint32_t id);

  /// Reads one v1 section in chunks (chunk size a multiple of every
  /// element width, so elements never straddle chunks), verifying its CRC;
  /// the visitor decodes each chunk.
  template <typename Visit>
  [[nodiscard]] bool read_section(std::uint32_t id, Visit&& visit);

  /// v2: reads + verifies + decodes exactly the blocks of section `id`
  /// overlapping elements [first, first + count), appending the window to
  /// `out` through the column-typed decoder.
  template <typename T, typename DecodeBlock>
  [[nodiscard]] bool read_blocks(std::uint32_t id, std::uint64_t first,
                                 std::uint64_t count, std::vector<T>& out,
                                 DecodeBlock&& decode);

  template <typename T>
  [[nodiscard]] bool read_column(std::uint32_t id, std::uint64_t first,
                                 std::uint64_t count, std::vector<T>& out);

  std::FILE* file_ = nullptr;
  SnapshotError error_ = SnapshotError::kNone;
  std::uint32_t version_ = 0;
  std::uint64_t rows_ = 0;
  std::array<Section, kMaxSectionId + 1> sections_{};
  std::array<BlockDir, kMaxSectionId + 1> block_dirs_{};
  unsigned threads_ = 1;
  std::uint64_t blocks_read_ = 0;
  std::uint64_t blocks_skipped_ = 0;
  telemetry::Registry* trace_registry_ = nullptr;
  telemetry::TraceRecorder* trace_recorder_ = nullptr;
};

}  // namespace scent::corpus
