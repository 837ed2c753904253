// spool.h - the join's per-partition dossier spool.
//
// Phase 2 of the join (join.h) writes each partition's MAC-ascending
// dossiers to a spool; phase 3 streams every spool back through one
// SpoolCursor apiece for the P-way merge. A spool is a block file
// (corpus/block_file.h) of variable-length dossiers, one CRC'd block per
// ~kSpoolFlushBytes frame with the frame's MAC range as its stats, so a
// cursor reads one bounded frame at a time and varints never straddle a
// read.
// Every dossier costs at least three varint bytes: its MAC and its two
// list counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/dossier.h"
#include "corpus/block_file.h"

namespace scent::join {

inline constexpr corpus::BlockFileFormat kSpoolFormat{
    .magic = {'S', 'C', 'N', 'T', 'D', 'S', 'P', 'L'},
    .end_magic = {'D', 'S', 'P', 'L', 'D', 'O', 'N', 'E'},
    .header_word = 0,
    .min_bytes_per_element = 3,
};

/// Spool frames flush at this size, so the final merge holds one frame per
/// partition — the O(P) buffer term in the join's memory bound.
inline constexpr std::size_t kSpoolFlushBytes = 256 * 1024;

/// The most bytes encode_dossier can write for `d`: kMaxVarintBytes for
/// each of its varints.
[[nodiscard]] std::size_t max_dossier_bytes(
    const analysis::DeviceDossier& d) noexcept;

/// Writes one dossier's varint encoding at `p`, which must have room for
/// max_dossier_bytes(d), and returns the byte past it.
unsigned char* encode_dossier(unsigned char* p,
                              const analysis::DeviceDossier& d) noexcept;

/// Decodes one dossier at `*cursor`, advancing it. False on a truncated
/// varint or a list count the bytes left before `end` cannot hold (a
/// sighting is at least three varint bytes, an anchor four), so a forged
/// count never sizes an allocation.
[[nodiscard]] bool decode_dossier(const unsigned char** cursor,
                                  const unsigned char* end,
                                  analysis::DeviceDossier& d);

class SpoolWriter {
 public:
  SpoolWriter() noexcept : file_(kSpoolFormat) {}

  [[nodiscard]] bool open(const std::string& path) { return file_.open(path); }

  /// Dossiers arrive MAC-ascending, so a frame's first and last MACs are
  /// its stats.
  void append(const analysis::DeviceDossier& d);

  /// Flushes the last frame, writes the directory and footer. False on any
  /// I/O failure or if open() never succeeded.
  [[nodiscard]] bool finish();

  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return file_.bytes_written();
  }

 private:
  void flush();

  corpus::BlockFileWriter file_;
  /// The frame is buffer_[0, used_); buffer_ is sized only upwards.
  std::vector<unsigned char> buffer_;
  std::size_t used_ = 0;
  std::uint32_t count_ = 0;
  std::uint64_t mac_min_ = 0;
  std::uint64_t mac_max_ = 0;
};

/// Streams a spool one dossier at a time, holding one frame in memory.
class SpoolCursor {
 public:
  SpoolCursor() noexcept : file_(kSpoolFormat) {}

  [[nodiscard]] bool open(const std::string& path) { return file_.open(path); }

  /// False at the end of the spool or on error; check ok() to tell them
  /// apart.
  [[nodiscard]] bool next(analysis::DeviceDossier& out);

  [[nodiscard]] bool ok() const noexcept {
    return error() == corpus::FileError::kNone;
  }
  [[nodiscard]] corpus::FileError error() const noexcept {
    return file_.error();
  }

 private:
  corpus::BlockFileReader file_;
  std::vector<unsigned char> frame_;
  std::size_t block_ = 0;
  const unsigned char* cursor_ = nullptr;
  const unsigned char* end_ = nullptr;
  std::uint32_t remaining_ = 0;
};

}  // namespace scent::join
