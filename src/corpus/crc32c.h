// crc32c.h - CRC-32C (Castagnoli) checksums for snapshot sections.
//
// Every section of the on-disk snapshot format carries a CRC-32C so that
// truncation and bit rot are detected at read time instead of surfacing as
// silently wrong corpora. Two implementations compute the same function:
// the SSE4.2 `crc32` instruction on x86-64 hosts that have it (chosen once
// per process from cpuid), and a portable slice-by-8 table loop everywhere
// else. The portable loop is also the tests' reference for the hardware one.
#pragma once

#include <cstddef>
#include <cstdint>

namespace scent::corpus {

/// Incremental CRC-32C accumulator: update() over any chunking of the input
/// yields the same value() as a single pass.
class Crc32c {
 public:
  Crc32c() = default;

  /// Continues a checksum whose value() so far is `value`, so the CRC of a
  /// concatenation follows from its first part's CRC and its later bytes.
  explicit Crc32c(std::uint32_t value) noexcept
      : state_(value ^ 0xffffffffu) {}

  void update(const void* data, std::size_t size) noexcept;

  [[nodiscard]] std::uint32_t value() const noexcept {
    return state_ ^ 0xffffffffu;
  }

  void reset() noexcept { state_ = 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot convenience over a contiguous buffer.
[[nodiscard]] inline std::uint32_t crc32c(const void* data,
                                          std::size_t size) noexcept {
  Crc32c crc;
  crc.update(data, size);
  return crc.value();
}

/// One implementation's update step: advances the raw (pre-inverted)
/// register `state` over `size` bytes. Crc32c::update calls one of these.
using Crc32cKernel = std::uint32_t (*)(std::uint32_t state, const void* data,
                                       std::size_t size) noexcept;

/// The portable slice-by-8 kernel, available on every host.
[[nodiscard]] std::uint32_t crc32c_portable(std::uint32_t state,
                                            const void* data,
                                            std::size_t size) noexcept;

/// The SSE4.2 kernel, or null when this CPU (or a non-x86-64 build) lacks
/// the instruction. Crc32c::update uses it whenever it is non-null.
[[nodiscard]] Crc32cKernel crc32c_hardware() noexcept;

}  // namespace scent::corpus
