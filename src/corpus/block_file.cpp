#include "corpus/block_file.h"

#include <algorithm>
#include <cstring>

#include "corpus/crc32c.h"
#include "corpus/encoding.h"

namespace scent::corpus {
namespace {

constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderBytes = 16;
constexpr std::uint64_t kDirEntryBytes = 28;
constexpr std::uint64_t kFooterBytes = 24;

}  // namespace

// ---------------------------------------------------------------------------
// BlockFileWriter

bool BlockFileWriter::open(const std::string& path) {
  if (!file_.open(path, "wb")) return false;
  unsigned char header[kHeaderBytes];
  std::memcpy(header, format_.magic, 8);
  store_u32(header + 8, kVersion);
  store_u32(header + 12, format_.header_word);
  io_ok_ = std::fwrite(header, 1, sizeof header, file_.handle) == sizeof header;
  bytes_written_ = kHeaderBytes;
  return io_ok_;
}

void BlockFileWriter::write_block(std::span<const unsigned char> payload,
                                  std::uint32_t elements,
                                  std::uint64_t key_min,
                                  std::uint64_t key_max) {
  dir_.resize(dir_.size() + kDirEntryBytes);
  unsigned char* e = dir_.data() + dir_.size() - kDirEntryBytes;
  store_u32(e, elements);
  store_u32(e + 4, static_cast<std::uint32_t>(payload.size()));
  store_u32(e + 8, crc32c(payload.data(), payload.size()));
  store_u64(e + 12, key_min);
  store_u64(e + 20, key_max);
  ++blocks_;
  records_ += elements;
  bytes_written_ += payload.size();
  io_ok_ = io_ok_ && file_ &&
           std::fwrite(payload.data(), 1, payload.size(), file_.handle) ==
               payload.size();
}

bool BlockFileWriter::finish() {
  if (!file_) return false;
  unsigned char footer[kFooterBytes];
  store_u64(footer, records_);
  store_u32(footer + 8, blocks_);
  store_u32(footer + 12, crc32c(dir_.data(), dir_.size()));
  std::memcpy(footer + 16, format_.end_magic, 8);
  io_ok_ = std::fwrite(dir_.data(), 1, dir_.size(), file_.handle) ==
               dir_.size() &&
           io_ok_;
  io_ok_ = std::fwrite(footer, 1, sizeof footer, file_.handle) ==
               sizeof footer &&
           io_ok_;
  io_ok_ = file_.close() && io_ok_;
  bytes_written_ += dir_.size() + kFooterBytes;
  return io_ok_;
}

// ---------------------------------------------------------------------------
// BlockFileReader

const char* to_string(FileError error) noexcept {
  switch (error) {
    case FileError::kNone:
      return "none";
    case FileError::kOpenFailed:
      return "open failed";
    case FileError::kBadMagic:
      return "bad magic";
    case FileError::kBadVersion:
      return "unsupported format version";
    case FileError::kTruncated:
      return "truncated file";
    case FileError::kBadLayout:
      return "bad block layout";
    case FileError::kCorrupt:
      return "CRC mismatch or corrupt block";
    case FileError::kReadFailed:
      return "read failed";
  }
  return "unknown";
}

void BlockFileReader::close() {
  file_.close();
  dir_.clear();
  records_ = 0;
}

bool BlockFileReader::fail(FileError error) {
  close();
  error_ = error;
  return false;
}

bool BlockFileReader::open(const std::string& path) {
  close();
  error_ = FileError::kNone;
  blocks_read_ = 0;
  blocks_skipped_ = 0;
  if (!file_.open(path, "rb")) return fail(FileError::kOpenFailed);
  std::FILE* f = file_.handle;
  unsigned char header[kHeaderBytes];
  unsigned char footer[kFooterBytes];
  if (std::fread(header, 1, sizeof header, f) != sizeof header) {
    return fail(FileError::kTruncated);
  }
  if (std::memcmp(header, format_.magic, 8) != 0) {
    return fail(FileError::kBadMagic);
  }
  if (load_u32(header + 8) != kVersion ||
      load_u32(header + 12) != format_.header_word) {
    return fail(FileError::kBadVersion);
  }
  if (std::fseek(f, 0, SEEK_END) != 0) return fail(FileError::kReadFailed);
  const long end = std::ftell(f);
  if (end < static_cast<long>(kHeaderBytes + kFooterBytes)) {
    return fail(FileError::kTruncated);
  }
  if (std::fseek(f, end - static_cast<long>(kFooterBytes), SEEK_SET) != 0 ||
      std::fread(footer, 1, sizeof footer, f) != sizeof footer) {
    return fail(FileError::kReadFailed);
  }
  // The writer puts the end magic last, so a file without it was cut short.
  if (std::memcmp(footer + 16, format_.end_magic, 8) != 0) {
    return fail(FileError::kTruncated);
  }
  // The directory must fit between the header and the footer before its
  // size is trusted with an allocation.
  const auto file_size = static_cast<std::uint64_t>(end);
  const std::uint64_t records = load_u64(footer);
  const std::uint32_t blocks = load_u32(footer + 8);
  const std::uint64_t dir_bytes = std::uint64_t{blocks} * kDirEntryBytes;
  if (dir_bytes > file_size - kHeaderBytes - kFooterBytes) {
    return fail(FileError::kBadLayout);
  }
  const std::uint64_t dir_offset = file_size - kFooterBytes - dir_bytes;
  std::vector<unsigned char> dir(dir_bytes);
  if (std::fseek(f, static_cast<long>(dir_offset), SEEK_SET) != 0 ||
      std::fread(dir.data(), 1, dir.size(), f) != dir.size()) {
    return fail(FileError::kReadFailed);
  }
  if (crc32c(dir.data(), dir.size()) != load_u32(footer + 12)) {
    return fail(FileError::kCorrupt);
  }
  dir_.resize(blocks);
  std::uint64_t offset = kHeaderBytes;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < blocks; ++i) {
    const unsigned char* e = dir.data() + std::size_t{i} * kDirEntryBytes;
    BlockEntry& entry = dir_[i];
    entry.payload_offset = offset;
    entry.elements = load_u32(e);
    entry.payload_bytes = load_u32(e + 4);
    entry.crc = load_u32(e + 8);
    entry.key_min = load_u64(e + 12);
    entry.key_max = load_u64(e + 20);
    if (entry.elements == 0 ||
        std::uint64_t{entry.elements} * format_.min_bytes_per_element >
            entry.payload_bytes) {
      return fail(FileError::kBadLayout);
    }
    offset += entry.payload_bytes;
    total += entry.elements;
  }
  if (offset != dir_offset || total != records) {
    return fail(FileError::kBadLayout);
  }
  records_ = records;
  return true;
}

bool BlockFileReader::read_block(std::size_t index,
                                 std::vector<unsigned char>& payload) {
  if (!file_) return false;  // keeps the error that closed it
  const BlockEntry& entry = dir_[index];
  payload.resize(entry.payload_bytes);
  if (std::fseek(file_.handle, static_cast<long>(entry.payload_offset),
                 SEEK_SET) != 0 ||
      std::fread(payload.data(), 1, payload.size(), file_.handle) !=
          payload.size()) {
    return fail(FileError::kReadFailed);
  }
  if (crc32c(payload.data(), payload.size()) != entry.crc) {
    return fail(FileError::kCorrupt);
  }
  ++blocks_read_;
  return true;
}

bool BlockFileReader::visit_block(std::size_t index,
                                  const BlockVisitor& visit) {
  if (!read_block(index, payload_)) return false;
  return visit(dir_[index], payload_) || fail(FileError::kCorrupt);
}

bool BlockFileReader::for_each_block(std::size_t first, std::size_t count,
                                     const BlockVisitor& visit) {
  if (!file_) return false;
  const std::size_t end = std::min(first + count, dir_.size());
  for (std::size_t i = first; i < end; ++i) {
    if (!visit_block(i, visit)) return false;
  }
  return true;
}

bool BlockFileReader::for_each_overlapping(std::uint64_t key_lo,
                                           std::uint64_t key_hi,
                                           const BlockVisitor& visit) {
  if (!file_) return false;
  for (std::size_t i = 0; i < dir_.size(); ++i) {
    if (dir_[i].key_max < key_lo || dir_[i].key_min > key_hi) {
      ++blocks_skipped_;
      continue;
    }
    if (!visit_block(i, visit)) return false;
  }
  return true;
}

}  // namespace scent::corpus
