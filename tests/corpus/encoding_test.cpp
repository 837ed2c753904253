// Varint decoding at every distance from the end of its buffer. get_varint
// decodes without a per-byte bounds check when at least kMaxVarintBytes
// remain and with one otherwise; both must return the same value, leave the
// cursor in the same place and reject the same inputs as the plain
// bounds-checked loop below. Every input sits in a heap buffer of exactly
// its size, so a read past `end` is an ASan error.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/encoding.h"
#include "sim/rng.h"

namespace scent::corpus {
namespace {

/// The reference decoder: one bounds check per byte, at most ten bytes,
/// and the tenth may only carry the 64th bit.
bool reference_get_varint(const unsigned char** cursor,
                          const unsigned char* end, std::uint64_t& out) {
  const unsigned char* p = *cursor;
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 70; shift += 7) {
    if (p == end) return false;
    const unsigned char byte = *p++;
    if (shift == 63 && (byte & 0xfe) != 0) return false;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *cursor = p;
      out = v;
      return true;
    }
  }
  return false;
}

struct Decoded {
  bool ok = false;
  std::uint64_t value = 0;
  std::ptrdiff_t consumed = 0;

  friend bool operator==(const Decoded&, const Decoded&) = default;
};

void PrintTo(const Decoded& d, std::ostream* os) {
  *os << (d.ok ? "ok " : "rejected ") << d.value << " +" << d.consumed;
}

template <typename Decoder>
Decoded decode_with(const std::vector<unsigned char>& bytes, Decoder decode) {
  const auto exact = std::make_unique<unsigned char[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), exact.get());
  const unsigned char* cursor = exact.get();
  Decoded d;
  d.ok = decode(&cursor, exact.get() + bytes.size(), d.value);
  // The cursor is unspecified after a rejection.
  d.consumed = d.ok ? cursor - exact.get() : 0;
  if (!d.ok) d.value = 0;
  return d;
}

Decoded decode(const std::vector<unsigned char>& bytes) {
  return decode_with(bytes,
                     [](const unsigned char** c, const unsigned char* e,
                        std::uint64_t& v) { return get_varint(c, e, v); });
}

Decoded reference(const std::vector<unsigned char>& bytes) {
  return decode_with(bytes, reference_get_varint);
}

std::vector<unsigned char> encode(std::uint64_t v) {
  unsigned char bytes[kMaxVarintBytes];
  return {bytes, put_varint(bytes, v)};
}

/// `bytes` followed by `trailing` copies of `fill`.
std::vector<unsigned char> followed(std::vector<unsigned char> bytes,
                                    std::size_t trailing, unsigned char fill) {
  bytes.insert(bytes.end(), trailing, fill);
  return bytes;
}

std::string label(std::size_t length, std::size_t trailing,
                  unsigned char fill) {
  return std::to_string(length) + " bytes + " + std::to_string(trailing) +
         " x " + std::to_string(fill);
}

TEST(Varint, EveryLengthDecodesAtEveryDistanceFromTheEnd) {
  for (std::size_t length = 1; length <= kMaxVarintBytes; ++length) {
    // The smallest and largest values of this encoded length.
    const std::uint64_t lo =
        length == 1 ? 0 : std::uint64_t{1} << (7 * (length - 1));
    const std::uint64_t hi =
        length == kMaxVarintBytes ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << (7 * length)) - 1;
    for (const std::uint64_t value : {lo, hi}) {
      const std::vector<unsigned char> bytes = encode(value);
      ASSERT_EQ(bytes.size(), length) << value;
      for (std::size_t trailing = 0; trailing <= 12; ++trailing) {
        for (const unsigned char fill : {0x00, 0x80, 0xff}) {
          const auto input = followed(bytes, trailing, fill);
          const Decoded want{true, value, static_cast<std::ptrdiff_t>(length)};
          EXPECT_EQ(decode(input), want) << label(length, trailing, fill);
          EXPECT_EQ(reference(input), want) << label(length, trailing, fill);
        }
      }
    }
  }
}

TEST(Varint, PaddedEncodingsAreAcceptedLikeTheLoop) {
  // Not canonical, but the loop accepts them: 0x80 ... 0x80 0x00 is zero,
  // and nine 0x80 then 0x01 is 2^63.
  for (std::size_t length = 2; length <= kMaxVarintBytes; ++length) {
    std::vector<unsigned char> bytes(length - 1, 0x80);
    bytes.push_back(length == kMaxVarintBytes ? 0x01 : 0x00);
    const std::uint64_t value =
        length == kMaxVarintBytes ? std::uint64_t{1} << 63 : 0;
    for (std::size_t trailing = 0; trailing <= 12; ++trailing) {
      const auto input = followed(bytes, trailing, 0xff);
      const Decoded want{true, value, static_cast<std::ptrdiff_t>(length)};
      EXPECT_EQ(decode(input), want) << label(length, trailing, 0xff);
      EXPECT_EQ(reference(input), want) << label(length, trailing, 0xff);
    }
  }
}

TEST(Varint, OverlongAndOverflowingEncodingsAreRejected) {
  std::vector<std::vector<unsigned char>> bad;
  // Eleven bytes: ten continuation bytes, then a terminator.
  bad.push_back(followed(std::vector<unsigned char>(10, 0x80), 1, 0x00));
  bad.push_back(followed(std::vector<unsigned char>(10, 0xff), 1, 0x01));
  // A tenth byte above 1 carries bits past the 64th.
  for (const unsigned char tenth : {0x02, 0x03, 0x7f, 0x80, 0x81, 0xfe}) {
    bad.push_back(followed(std::vector<unsigned char>(9, 0xff), 1, tenth));
    bad.push_back(followed(std::vector<unsigned char>(9, 0x80), 1, tenth));
  }
  for (const auto& bytes : bad) {
    for (std::size_t trailing = 0; trailing <= 12; ++trailing) {
      for (const unsigned char fill : {0x00, 0xff}) {
        const auto input = followed(bytes, trailing, fill);
        EXPECT_EQ(decode(input), Decoded{}) << label(bytes.size(), trailing,
                                                     fill);
        EXPECT_EQ(reference(input), Decoded{})
            << label(bytes.size(), trailing, fill);
      }
    }
  }
}

TEST(Varint, TruncatedEncodingsAreRejected) {
  for (const std::uint64_t value :
       {std::uint64_t{0x80}, std::uint64_t{1} << 35, ~std::uint64_t{0}}) {
    const std::vector<unsigned char> bytes = encode(value);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<unsigned char> input(bytes.begin(),
                                             bytes.begin() + cut);
      EXPECT_EQ(decode(input), Decoded{}) << value << " cut at " << cut;
      EXPECT_EQ(reference(input), Decoded{}) << value << " cut at " << cut;
    }
  }
  // Ten continuation bytes and nothing after them.
  EXPECT_EQ(decode(std::vector<unsigned char>(10, 0x80)), Decoded{});
}

TEST(Varint, RandomBytesDecodeLikeTheLoop) {
  // Mostly continuation bytes, so long and overlong encodings are common.
  sim::Rng rng{0x7A11};
  for (int i = 0; i < 200000; ++i) {
    std::vector<unsigned char> input(rng.below(15));
    for (unsigned char& byte : input) {
      byte = static_cast<unsigned char>(rng.below(256));
      if (rng.below(8) != 0) byte |= 0x80;
    }
    ASSERT_EQ(decode(input), reference(input)) << "case " << i;
  }
}

}  // namespace
}  // namespace scent::corpus
