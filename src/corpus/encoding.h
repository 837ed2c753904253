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
//
// Encoders append to a std::vector<unsigned char> or, sized up front with
// varint_size, write through a raw pointer; decoders advance a
// `const unsigned char*` cursor and report failure by returning false.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace scent::corpus {

/// Bytes put_varint writes for `v`: one per started 7-bit group.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  return static_cast<std::size_t>((std::bit_width(v | 1) + 6) / 7);
}

/// Writes `v` at `p`, which must have varint_size(v) bytes of room, and
/// returns the byte past it — the raw form for encoders that size their
/// block buffer exactly before writing it.
inline unsigned char* put_varint(unsigned char* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<unsigned char>(v);
  return p;
}

inline void put_varint(std::vector<unsigned char>& out, std::uint64_t v) {
  unsigned char bytes[10];
  out.insert(out.end(), bytes, put_varint(bytes, v));
}

/// Decodes one varint from [*cursor, end). Advances *cursor past it.
/// False — cursor unspecified — on truncation or an overlong encoding.
[[nodiscard]] inline bool get_varint(const unsigned char** cursor,
                                     const unsigned char* end,
                                     std::uint64_t& out) noexcept {
  const unsigned char* p = *cursor;
  std::uint64_t v = 0;
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

}  // namespace scent::corpus
