#include "corpus/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define SCENT_CRC32C_X86 1
#endif

namespace scent::corpus {
namespace {

/// Reflected Castagnoli polynomial (the iSCSI/ext4/RFC 3720 CRC).
constexpr std::uint32_t kPoly = 0x82f63b78u;

struct Tables {
  std::uint32_t t[8][256];
};

constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPoly : 0u);
    }
    tables.t[0][i] = crc;
  }
  // t[k][b] extends t[0] to consume k extra zero bytes, enabling the
  // slice-by-8 inner loop below.
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      tables.t[k][i] =
          (tables.t[k - 1][i] >> 8) ^ tables.t[0][tables.t[k - 1][i] & 0xffu];
    }
  }
  return tables;
}

constexpr Tables kTables = make_tables();

[[nodiscard]] std::uint32_t read_u32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

#ifdef SCENT_CRC32C_X86
/// The crc32 instruction consumes the reflected register directly, so the
/// kernel is the bytewise definition eight bytes at a time. Loads go
/// through memcpy: the buffer has no alignment guarantee.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t state, const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = state;
  while (size >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    size -= 8;
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (size-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return crc32;
}
#endif

}  // namespace

std::uint32_t crc32c_portable(std::uint32_t state, const void* data,
                              std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = state;
  const auto& t = kTables.t;
  while (size >= 8) {
    const std::uint32_t one = crc ^ read_u32(p);
    const std::uint32_t two = read_u32(p + 4);
    crc = t[7][one & 0xffu] ^ t[6][(one >> 8) & 0xffu] ^
          t[5][(one >> 16) & 0xffu] ^ t[4][one >> 24] ^ t[3][two & 0xffu] ^
          t[2][(two >> 8) & 0xffu] ^ t[1][(two >> 16) & 0xffu] ^
          t[0][two >> 24];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xffu];
  }
  return crc;
}

Crc32cKernel crc32c_hardware() noexcept {
#ifdef SCENT_CRC32C_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &crc32c_sse42;
#endif
  return nullptr;
}

void Crc32c::update(const void* data, std::size_t size) noexcept {
  // Resolved once, on first use, so a checksum taken during another
  // translation unit's static initialization still finds its kernel.
  static const Crc32cKernel kernel = [] {
    const Crc32cKernel hardware = crc32c_hardware();
    return hardware != nullptr ? hardware : &crc32c_portable;
  }();
  state_ = kernel(state_, data, size);
}

}  // namespace scent::corpus
