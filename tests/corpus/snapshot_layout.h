// snapshot_layout.h - header-only raw-byte views of snapshot files for the
// corruption and compatibility tests: the block-file envelope's directory
// located from the footer (to flip, forge and re-seal entries), and the
// retired format-3 container the reader must refuse. The helpers frame
// bytes with their own little-endian code and the library's CRC-32C only,
// so a framing bug in the library cannot forge and accept in step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "corpus/crc32c.h"

namespace scent::corpus::layout {

/// Envelope sizes (corpus/block_file.h): header, directory entry, footer.
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kDirEntryBytes = 28;
inline constexpr std::size_t kFooterBytes = 24;

inline std::uint32_t get_u32(const std::vector<unsigned char>& b,
                             std::size_t at) {
  return std::uint32_t{b[at]} | std::uint32_t{b[at + 1]} << 8 |
         std::uint32_t{b[at + 2]} << 16 | std::uint32_t{b[at + 3]} << 24;
}

inline std::uint64_t get_u64(const std::vector<unsigned char>& b,
                             std::size_t at) {
  return std::uint64_t{get_u32(b, at)} | std::uint64_t{get_u32(b, at + 4)}
                                             << 32;
}

inline void put_u32(std::vector<unsigned char>& b, std::size_t at,
                    std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<unsigned char>(v >> (8 * i));
}

inline void put_u64(std::vector<unsigned char>& b, std::size_t at,
                    std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[at + i] = static_cast<unsigned char>(v >> (8 * i));
}

/// Blocks in the file's directory (footer: records u64 | blocks u32 | ...).
inline std::size_t block_count(const std::vector<unsigned char>& bytes) {
  return get_u32(bytes, bytes.size() - kFooterBytes + 8);
}

/// File offset of directory entry `index`: elements u32 | payload_bytes u32
/// | crc u32 | key_min u64 | key_max u64.
inline std::size_t entry_at(const std::vector<unsigned char>& bytes,
                            std::size_t index) {
  return bytes.size() - kFooterBytes -
         (block_count(bytes) - index) * kDirEntryBytes;
}

/// Block `index` of a block file: its directory entry's offset, and its
/// payload's offset and size.
struct Block {
  std::size_t entry = 0;
  std::size_t payload = 0;
  std::size_t bytes = 0;
};

inline Block block_at(const std::vector<unsigned char>& bytes,
                      std::size_t index) {
  std::size_t payload = kHeaderBytes;
  for (std::size_t i = 0; i < index; ++i) {
    payload += get_u32(bytes, entry_at(bytes, i) + 4);
  }
  const std::size_t entry = entry_at(bytes, index);
  return Block{entry, payload, get_u32(bytes, entry + 4)};
}

/// Re-signs the directory after a forged entry, so only the forged field
/// can fail open().
inline void reseal_directory(std::vector<unsigned char>& bytes) {
  const std::size_t footer = bytes.size() - kFooterBytes;
  put_u32(bytes, footer + 12,
          crc32c(bytes.data() + entry_at(bytes, 0),
                 block_count(bytes) * kDirEntryBytes));
}

/// Re-frames a format-4 snapshot's bytes as format 3, the container it
/// replaced: a 124-byte header (magic, version 3, rows, section count 4, a
/// section table of id, offset, size and directory CRC per section, and a
/// header CRC), then per column a block directory (block count, then 36 B
/// per block: payload offset after the directory, elements, payload bytes,
/// CRC, min, max) followed by the payloads. Block payloads and stats are
/// the same in both.
inline std::vector<unsigned char> as_format3(
    const std::vector<unsigned char>& format4) {
  constexpr std::size_t kHeader = 124;
  const std::size_t blocks = block_count(format4) / 4;
  std::vector<unsigned char> out(kHeader, 0);
  for (std::size_t i = 0; i < 8; ++i) out[i] = format4[i];  // the magic
  put_u32(out, 8, 3);
  put_u64(out, 12, get_u64(format4, format4.size() - kFooterBytes) / 4);
  put_u32(out, 20, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    const std::size_t section = out.size();
    out.resize(section + 4 + 36 * blocks);
    put_u32(out, section, static_cast<std::uint32_t>(blocks));
    std::uint64_t offset = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const Block blk = block_at(format4, c * blocks + b);
      const std::size_t e = section + 4 + 36 * b;
      put_u64(out, e, offset);
      put_u32(out, e + 8, get_u32(format4, blk.entry));
      put_u32(out, e + 12, static_cast<std::uint32_t>(blk.bytes));
      put_u32(out, e + 16, get_u32(format4, blk.entry + 8));
      put_u64(out, e + 20, get_u64(format4, blk.entry + 12));
      put_u64(out, e + 28, get_u64(format4, blk.entry + 20));
      offset += blk.bytes;
    }
    const std::uint32_t dir_crc =
        crc32c(out.data() + section, 4 + 36 * blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      const Block blk = block_at(format4, c * blocks + b);
      out.insert(out.end(), format4.begin() + static_cast<std::ptrdiff_t>(blk.payload),
                 format4.begin() +
                     static_cast<std::ptrdiff_t>(blk.payload + blk.bytes));
    }
    const std::size_t table = 24 + 24 * c;
    put_u32(out, table, static_cast<std::uint32_t>(c + 1));
    put_u64(out, table + 4, section);
    put_u64(out, table + 12, out.size() - section);
    put_u32(out, table + 20, dir_crc);
  }
  put_u32(out, kHeader - 4, crc32c(out.data(), kHeader - 4));
  return out;
}

}  // namespace scent::corpus::layout
