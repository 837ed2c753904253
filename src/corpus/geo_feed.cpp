#include "corpus/geo_feed.h"

#include <type_traits>

#include "corpus/encoding.h"

namespace scent::corpus {
namespace {

constexpr BlockFileFormat kFormat{
    .magic = {'S', 'C', 'N', 'T', 'G', 'E', 'O', 'F'},
    .end_magic = {'G', 'E', 'O', 'F', 'D', 'O', 'N', 'E'},
    .header_word = 0,
    .min_bytes_per_element = 5,
};

/// Appends the zigzag-delta column of `Field` (lat, lon, asn or day).
template <auto Field>
void put_column(std::vector<unsigned char>& out,
                const std::vector<sim::GeoRecord>& rows) {
  std::uint64_t prev = 0;
  for (const sim::GeoRecord& r : rows) {
    const auto v = static_cast<std::uint64_t>(r.*Field);
    put_delta(out, v, prev);
    prev = v;
  }
}

/// Decodes the zigzag-delta column of `Field` back into `rows`.
template <auto Field>
[[nodiscard]] bool get_column(const unsigned char** cursor,
                              const unsigned char* end,
                              std::vector<sim::GeoRecord>& rows) {
  std::uint64_t prev = 0;
  for (sim::GeoRecord& r : rows) {
    std::uint64_t v = 0;
    if (!get_delta(cursor, end, prev, v)) return false;
    r.*Field = static_cast<std::remove_reference_t<decltype(r.*Field)>>(v);
    prev = v;
  }
  return true;
}

[[nodiscard]] bool decode_block(
    const BlockEntry& entry, std::span<const unsigned char> payload,
    std::uint64_t mac_lo, std::uint64_t mac_hi,
    const std::function<void(const sim::GeoRecord&)>& fn) {
  std::vector<sim::GeoRecord> records(entry.elements);
  const unsigned char* cursor = payload.data();
  const unsigned char* end = payload.data() + payload.size();
  std::uint64_t prev = 0;
  for (sim::GeoRecord& r : records) {
    std::uint64_t delta = 0;
    if (!get_varint(&cursor, end, delta)) return false;
    prev += delta;
    r.mac = net::MacAddress{prev};
  }
  using R = sim::GeoRecord;
  const bool ok = get_column<&R::lat_udeg>(&cursor, end, records) &&
                  get_column<&R::lon_udeg>(&cursor, end, records) &&
                  get_column<&R::asn>(&cursor, end, records) &&
                  get_column<&R::last_day>(&cursor, end, records);
  if (!ok || cursor != end) return false;  // trailing bytes = corrupt payload
  for (const sim::GeoRecord& r : records) {
    if (r.mac.bits() >= mac_lo && r.mac.bits() <= mac_hi) fn(r);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// GeoFeedWriter

GeoFeedWriter::GeoFeedWriter(std::size_t block_elements) noexcept
    : block_elements_(block_elements < 1 ? 1 : block_elements),
      file_(kFormat) {}

bool GeoFeedWriter::open(const std::string& path) {
  buffer_.reserve(block_elements_);
  return file_.open(path);
}

void GeoFeedWriter::append(const sim::GeoRecord& record) {
  if (records_ > 0 && record.mac.bits() < last_mac_) sorted_ok_ = false;
  last_mac_ = record.mac.bits();
  buffer_.push_back(record);
  ++records_;
  if (buffer_.size() >= block_elements_) flush_block();
}

void GeoFeedWriter::flush_block() {
  if (buffer_.empty()) return;
  payload_.clear();
  // MACs are sorted, so their deltas are non-negative: plain varints. The
  // remaining columns take zigzag deltas, reset per column per block.
  std::uint64_t prev = 0;
  for (const sim::GeoRecord& r : buffer_) {
    put_varint(payload_, r.mac.bits() - prev);
    prev = r.mac.bits();
  }
  put_column<&sim::GeoRecord::lat_udeg>(payload_, buffer_);
  put_column<&sim::GeoRecord::lon_udeg>(payload_, buffer_);
  put_column<&sim::GeoRecord::asn>(payload_, buffer_);
  put_column<&sim::GeoRecord::last_day>(payload_, buffer_);
  file_.write_block(payload_, static_cast<std::uint32_t>(buffer_.size()),
                    buffer_.front().mac.bits(), buffer_.back().mac.bits());
  buffer_.clear();
}

bool GeoFeedWriter::finish() {
  if (!file_.is_open()) return false;
  flush_block();
  return file_.finish() && sorted_ok_;
}

// ---------------------------------------------------------------------------
// GeoFeedReader

GeoFeedReader::GeoFeedReader() noexcept : file_(kFormat) {}

bool GeoFeedReader::open(const std::string& path) {
  if (!file_.open(path)) return false;
  // Blocks must themselves arrive in MAC order — the sorted contract holds
  // within each block's stats and across block boundaries.
  const std::vector<BlockEntry>& dir = file_.directory();
  for (std::size_t i = 0; i < dir.size(); ++i) {
    if (dir[i].key_min > dir[i].key_max ||
        (i > 0 && dir[i].key_min < dir[i - 1].key_max)) {
      return file_.fail(FileError::kBadLayout);
    }
  }
  return true;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
GeoFeedReader::mac_range() const noexcept {
  const std::vector<BlockEntry>& dir = file_.directory();
  if (dir.empty()) return std::nullopt;
  return std::make_pair(dir.front().key_min, dir.back().key_max);
}

bool GeoFeedReader::for_each_block_range(
    std::size_t first_block, std::size_t count,
    const std::function<void(const sim::GeoRecord&)>& fn) {
  return file_.for_each_block(
      first_block, count,
      [&](const BlockEntry& entry, std::span<const unsigned char> payload) {
        return decode_block(entry, payload, 0, ~std::uint64_t{0}, fn);
      });
}

bool GeoFeedReader::for_each(
    const std::function<void(const sim::GeoRecord&)>& fn) {
  return for_each_block_range(0, blocks(), fn);
}

bool GeoFeedReader::for_each_overlapping(
    std::uint64_t mac_lo, std::uint64_t mac_hi,
    const std::function<void(const sim::GeoRecord&)>& fn) {
  return file_.for_each_overlapping(
      mac_lo, mac_hi,
      [&](const BlockEntry& entry, std::span<const unsigned char> payload) {
        return decode_block(entry, payload, mac_lo, mac_hi, fn);
      });
}

}  // namespace scent::corpus
