// encoding.h - primitive integer codecs for the block-compressed snapshot
// format (v2, DESIGN.md §5j).
//
// Three building blocks, shared by every per-column encoder:
//
//   * LEB128 varints (unsigned, little-endian base-128): small magnitudes
//     cost one byte, a full 64-bit value ten. All v2 streams are varint
//     sequences, so a block decodes with one forward pointer and no
//     alignment requirements.
//   * ZigZag mapping for signed deltas: (n << 1) ^ (n >> 63) folds small
//     negative deltas into small unsigned values so the varint stays short
//     whether a column drifts up or down.
//   * Bounds-checked decode: get_varint never reads past `end` and rejects
//     overlong (> 10 byte) encodings. A block whose CRC matches but whose
//     content has been hand-crafted to run off the payload must fail with
//     a typed error, never UB — the corrupt-input tests hold this line.
//     When a whole encoding fits before `end` it skips the per-byte check
//     and accepts and rejects exactly what the checked loop does.
//
// Encoders append to a std::vector<unsigned char> or write through a raw
// pointer into a buffer sized for the worst case (kMaxVarintBytes per
// varint); decoders advance a `const unsigned char*` cursor and report
// failure by returning false.
//
// The fixed-width little-endian loads and stores at the end are what every
// corpus envelope (snapshot headers and directories, block_file.h) frames
// its varint payloads with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace scent::corpus {

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Writes `v` at `p`, which must have room for its encoding (one byte per
/// started 7-bit group, kMaxVarintBytes at most), and returns the byte past
/// it — the raw form for encoders that write a block into a worst-case-
/// sized buffer.
inline unsigned char* put_varint(unsigned char* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<unsigned char>(v);
  return p;
}

inline void put_varint(std::vector<unsigned char>& out, std::uint64_t v) {
  unsigned char bytes[kMaxVarintBytes];
  out.insert(out.end(), bytes, put_varint(bytes, v));
}

/// Decodes one varint from [*cursor, end). Advances *cursor past it.
/// False — cursor unspecified — on truncation or an overlong encoding.
[[nodiscard]] inline bool get_varint(const unsigned char** cursor,
                                     const unsigned char* end,
                                     std::uint64_t& out) noexcept {
  const unsigned char* p = *cursor;
  std::uint64_t v = 0;
  if (end - p >= static_cast<std::ptrdiff_t>(kMaxVarintBytes)) {
    // Ten bytes remain: the encoding ends before `end` or is rejected.
    for (unsigned shift = 0; shift < 63; shift += 7) {
      const unsigned char byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *cursor = p;
        out = v;
        return true;
      }
    }
    // The tenth byte holds only the 64th bit and no continuation.
    const unsigned char byte = *p++;
    if (byte > 1) return false;
    *cursor = p;
    out = v | static_cast<std::uint64_t>(byte) << 63;
    return true;
  }
  for (unsigned shift = 0; shift < 70; shift += 7) {
    if (p == end) return false;
    const unsigned char byte = *p++;
    if (shift == 63 && (byte & 0xfe) != 0) return false;  // > 64 bits
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *cursor = p;
      out = v;
      return true;
    }
  }
  return false;  // 10 bytes consumed without a terminator
}

[[nodiscard]] inline constexpr std::uint64_t zigzag_encode(
    std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] inline constexpr std::int64_t zigzag_decode(
    std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// The zigzag-mapped signed delta from `previous` to `value`.
[[nodiscard]] inline constexpr std::uint64_t zigzag_delta(
    std::uint64_t value, std::uint64_t previous) noexcept {
  return zigzag_encode(static_cast<std::int64_t>(value - previous));
}

/// Signed delta as a zigzag varint — the universal "next value given the
/// previous one" encoding for iid and time streams.
inline void put_delta(std::vector<unsigned char>& out, std::uint64_t value,
                      std::uint64_t previous) {
  put_varint(out, zigzag_delta(value, previous));
}

[[nodiscard]] inline bool get_delta(const unsigned char** cursor,
                                    const unsigned char* end,
                                    std::uint64_t previous,
                                    std::uint64_t& out) noexcept {
  std::uint64_t raw = 0;
  if (!get_varint(cursor, end, raw)) return false;
  out = previous + static_cast<std::uint64_t>(zigzag_decode(raw));
  return true;
}

/// Fixed-width little-endian integers at `p`, which must hold the width.
inline void store_u32(unsigned char* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline void store_u64(unsigned char* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

[[nodiscard]] inline std::uint16_t load_u16(const unsigned char* p) noexcept {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

[[nodiscard]] inline std::uint32_t load_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

[[nodiscard]] inline std::uint64_t load_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace scent::corpus
