#include "corpus/keyed_run.h"

#include <algorithm>
#include <iterator>
#include <span>

#include "corpus/encoding.h"

namespace scent::corpus {
namespace {

constexpr BlockFileFormat kFormat{
    .magic = {'S', 'C', 'N', 'T', 'K', 'R', 'U', 'N'},
    .end_magic = {'K', 'R', 'U', 'N', 'D', 'O', 'N', 'E'},
    .header_word = 3,  // payload columns
    .min_bytes_per_element = 4,
};

/// Stored column order. Each column is zigzag deltas from a running value
/// that resets to zero per column per block, so each block stands alone.
constexpr std::uint64_t KeyedRecord::*kColumns[] = {
    &KeyedRecord::key, &KeyedRecord::c0, &KeyedRecord::c1, &KeyedRecord::c2};

}  // namespace

// ---------------------------------------------------------------------------
// KeyedRunWriter

KeyedRunWriter::KeyedRunWriter(std::vector<unsigned char>& scratch,
                               std::size_t block_elements) noexcept
    : block_elements_(block_elements < 1 ? 1 : block_elements),
      file_(kFormat),
      scratch_(scratch) {}

bool KeyedRunWriter::open(const std::string& path) {
  buffer_.reserve(block_elements_);
  return file_.open(path);
}

void KeyedRunWriter::append(const KeyedRecord& record) {
  buffer_.push_back(record);
  ++records_;
  if (buffer_.size() >= block_elements_) flush_block();
}

void KeyedRunWriter::flush_block() {
  if (buffer_.empty()) return;
  std::uint64_t key_min = buffer_.front().key;
  std::uint64_t key_max = buffer_.front().key;
  for (const KeyedRecord& r : buffer_) {
    key_min = std::min(key_min, r.key);
    key_max = std::max(key_max, r.key);
  }
  // Sized only upwards, so a reused buffer is zero-filled once.
  const std::size_t worst =
      std::size(kColumns) * buffer_.size() * kMaxVarintBytes;
  if (scratch_.size() < worst) scratch_.resize(worst);
  unsigned char* p = scratch_.data();
  for (const auto column : kColumns) {
    std::uint64_t prev = 0;
    for (const KeyedRecord& r : buffer_) {
      p = put_varint(p, zigzag_delta(r.*column, prev));
      prev = r.*column;
    }
  }
  file_.write_block({scratch_.data(), p},
                    static_cast<std::uint32_t>(buffer_.size()), key_min,
                    key_max);
  buffer_.clear();
}

bool KeyedRunWriter::finish() {
  if (!file_.is_open()) return false;
  flush_block();
  return file_.finish();
}

// ---------------------------------------------------------------------------
// KeyedRunReader

KeyedRunReader::KeyedRunReader() noexcept : file_(kFormat) {}

bool KeyedRunReader::open(const std::string& path) {
  if (!file_.open(path)) return false;
  // The skip predicate compares keys as u64 ranges.
  for (const BlockEntry& e : file_.directory()) {
    if (e.key_min > e.key_max) return file_.fail(FileError::kBadLayout);
  }
  return true;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
KeyedRunReader::key_range() const noexcept {
  const std::vector<BlockEntry>& dir = file_.directory();
  if (dir.empty()) return std::nullopt;
  std::uint64_t lo = dir.front().key_min;
  std::uint64_t hi = dir.front().key_max;
  for (const BlockEntry& e : dir) {
    lo = std::min(lo, e.key_min);
    hi = std::max(hi, e.key_max);
  }
  return std::make_pair(lo, hi);
}

bool KeyedRunReader::for_each(
    const std::function<void(const KeyedRecord&)>& fn) {
  return for_each_overlapping(0, ~std::uint64_t{0}, fn);
}

bool KeyedRunReader::for_each_overlapping(
    std::uint64_t key_lo, std::uint64_t key_hi,
    const std::function<void(const KeyedRecord&)>& fn) {
  return file_.for_each_overlapping(
      key_lo, key_hi,
      [&](const BlockEntry& entry, std::span<const unsigned char> payload) {
        // Sized only upwards: a block decodes over the last one's records.
        if (records_.size() < entry.elements) records_.resize(entry.elements);
        const std::span<KeyedRecord> records{records_.data(), entry.elements};
        const unsigned char* cursor = payload.data();
        const unsigned char* end = payload.data() + payload.size();
        for (const auto column : kColumns) {
          std::uint64_t prev = 0;
          for (KeyedRecord& r : records) {
            if (!get_delta(&cursor, end, prev, r.*column)) return false;
            prev = r.*column;
          }
        }
        if (cursor != end) return false;  // trailing bytes = corrupt payload
        for (const KeyedRecord& r : records) {
          if (r.key >= key_lo && r.key <= key_hi) fn(r);
        }
        return true;
      });
}

}  // namespace scent::corpus
