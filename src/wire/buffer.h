// buffer.h - network-order byte codecs for wire packets.
//
// The prober and the simulated Internet exchange real wire-format packets so
// that the serialization path is genuinely exercised (not a struct passed by
// reference). Builders size a packet once and store each header field at its
// fixed offset with store_u16/u32/u64; parsers check a length once and load
// fields the same way. BufferReader is the bounds-checked sequential reader
// for variable-length input.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace scent::wire {

namespace detail {

/// Host <-> network (big-endian) order; its own inverse.
template <typename T>
[[nodiscard]] constexpr T bswap_if_little(T v) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return static_cast<T>(__builtin_bswap16(v));
  } else if constexpr (sizeof(T) == 4) {
    return static_cast<T>(__builtin_bswap32(v));
  } else {
    return static_cast<T>(__builtin_bswap64(v));
  }
}

}  // namespace detail

/// Stores `v` big-endian at `p`. The caller has sized the buffer: these are
/// the fixed-offset writes of a packet whose length is known up front.
inline void store_u16(std::uint8_t* p, std::uint16_t v) noexcept {
  v = detail::bswap_if_little(v);
  std::memcpy(p, &v, sizeof v);
}
inline void store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  v = detail::bswap_if_little(v);
  std::memcpy(p, &v, sizeof v);
}
inline void store_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  v = detail::bswap_if_little(v);
  std::memcpy(p, &v, sizeof v);
}

/// Loads a big-endian field at `p`; the caller has checked the length.
[[nodiscard]] inline std::uint16_t load_u16(const std::uint8_t* p) noexcept {
  std::uint16_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return detail::bswap_if_little(v);
}
[[nodiscard]] inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return detail::bswap_if_little(v);
}
[[nodiscard]] inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return detail::bswap_if_little(v);
}

/// Reads big-endian fields from a byte span; sets a sticky error flag on
/// truncation instead of throwing, so parsers can check once at the end.
class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::uint8_t u8() noexcept {
    if (error_ || pos_ + 1 > data_.size()) return fail8();
    return data_[pos_++];
  }

  [[nodiscard]] std::uint16_t u16() noexcept {
    if (error_ || pos_ + 2 > data_.size()) return fail16();
    const std::uint16_t v = load_u16(data_.data() + pos_);
    pos_ += 2;
    return v;
  }

  [[nodiscard]] std::uint32_t u32() noexcept {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }

  [[nodiscard]] std::uint64_t u64() noexcept {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }

  /// Returns a view of the next n bytes and advances, or an empty span on
  /// truncation.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) noexcept {
    if (error_ || pos_ + n > data_.size()) {
      error_ = true;
      return {};
    }
    const auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  /// All bytes not yet consumed.
  [[nodiscard]] std::span<const std::uint8_t> remaining() const noexcept {
    return data_.subspan(pos_);
  }

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool ok() const noexcept { return !error_; }

 private:
  std::uint8_t fail8() noexcept {
    error_ = true;
    return 0;
  }
  std::uint16_t fail16() noexcept {
    error_ = true;
    return 0;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool error_ = false;
};

}  // namespace scent::wire
