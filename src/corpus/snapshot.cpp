#include "corpus/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "core/rotation_detector.h"
#include "corpus/crc32c.h"
#include "corpus/encoding.h"
#include "corpus/file.h"
#include "engine/parallel.h"
#include "netbase/eui64.h"
#include "telemetry/span.h"

namespace scent::corpus {
namespace {

constexpr char kMagic[8] = {'S', 'C', 'N', 'T', 'S', 'N', 'A', 'P'};
constexpr std::uint32_t kSectionCount = 4;
/// Fixed header (24) + section table (24 per section) + header CRC (4).
constexpr std::size_t kHeaderSize = 24 + kSectionCount * 24 + 4;
/// Block-directory entry: payload offset (8) + element count (4) +
/// payload bytes (4) + payload CRC (4) + min/max stats (8 + 8).
constexpr std::size_t kDirEntryBytes = 36;
/// Reader-side sanity cap on a directory entry's element count. The writer
/// emits kSnapshotBlockElements; anything far past it is a forged index,
/// rejected before it can size an allocation.
constexpr std::uint64_t kMaxBlockElements = std::uint64_t{1} << 22;

// ---------------------------------------------------------------------------
// Per-column block codecs (DESIGN.md §5j). Every encoder appends one
// block's payload for `n` elements; every decoder consumes it back from a
// cursor, bounds-checked, and the caller requires the cursor to land exactly
// on the block end. Blocks share no state: each stream's "previous value"
// seeds at zero per block, which is what makes blocks skippable and
// parallel-codable.

/// Per-worker scratch for the address encoder, reused across every block
/// a worker claims: the block's network keys, contiguous; the radix sort's
/// ping-pong row orders or the dense rank table; and the worst-case-sized
/// byte buffer the block is written into before its one copy out.
struct AddressScratch {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> tmp;
  std::vector<std::uint32_t> rank;
  std::vector<unsigned char> bytes;
};

/// Sorts rows [0, n) of `s.keys` into `s.order` with an LSD radix sort
/// over only the key bytes that vary: one OR-of-XOR pass finds them (a
/// /64-clustered block varies in a few of its eight), then one counting
/// pass histograms just those bytes and each gets one scatter pass.
void sort_rows_by_key(std::size_t n, AddressScratch& s) {
  const std::uint64_t* keys = s.keys.data();
  for (std::size_t i = 0; i < n; ++i) {
    s.order[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t varying = 0;
  for (std::size_t i = 1; i < n; ++i) varying |= keys[i] ^ keys[0];
  std::array<unsigned, 8> shifts{};
  unsigned digits = 0;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) != 0) shifts[digits++] = shift;
  }
  if (digits == 0) return;

  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    for (unsigned d = 0; d < digits; ++d) {
      ++counts[d][(keys[i] >> shifts[d]) & 0xff];
    }
  }
  for (unsigned d = 0; d < digits; ++d) {
    auto& bucket = counts[d];
    std::uint32_t start = 0;
    for (std::uint32_t& c : bucket) {
      const std::uint32_t size = c;
      c = start;
      start += size;
    }
    const std::uint32_t* from = s.order.data();
    std::uint32_t* to = s.tmp.data();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t row = from[i];
      to[bucket[(keys[row] >> shifts[d]) & 0xff]++] = row;
    }
    s.order.swap(s.tmp);
  }
}

/// A block's network span below this many times its element count gets
/// the dense rank table (span-sized) instead of the radix sort: a sweep
/// block covers a /48's 64Ki /64s, span ≈ n, and a table walk costs far
/// less than two or three scatter passes.
constexpr std::uint64_t kDenseSpanPerElement = 4;

/// Addresses: sorted network dictionary (delta varints — /64-clustered
/// columns have few distinct networks per 64Ki rows), then one dictionary
/// index varint per element, then the iid stream as zigzag deltas (EUI-64
/// iids repeat and sequential probe iids step by one, so deltas stay short).
/// The dictionary and each row's index come from a dense rank table when
/// the block's networks span little more than its element count (mark each
/// network's offset from the minimum, then one walk over the span ranks
/// the marks), and otherwise from one radix sort of the rows by network
/// and one pass over that order. Both give the same bytes as sorting the
/// networks and binary-searching each element. The varints go straight
/// into a worst-case-sized scratch buffer, after a gap the dictionary
/// count fills in once it is known, and are appended to `out` in one copy.
/// Returns the {min, max} network.
std::pair<std::uint64_t, std::uint64_t> encode_addresses(
    const net::Ipv6Address* column, std::size_t n, AddressScratch& s,
    std::vector<unsigned char>& out) {
  s.keys.resize(n);
  std::uint64_t* keys = s.keys.data();
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = column[i].network();
    lo = std::min(lo, keys[i]);
    hi = std::max(hi, keys[i]);
  }
  // Count, n dictionary entries, n u32 indices (5 bytes at most), n iids.
  const std::size_t worst = kMaxVarintBytes * (1 + 2 * n) + 5 * n;
  if (s.bytes.size() < worst) s.bytes.resize(worst);
  unsigned char* const body = s.bytes.data() + kMaxVarintBytes;
  unsigned char* p = body;

  std::size_t distinct = 0;
  if (hi - lo < kDenseSpanPerElement * n) {
    s.rank.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
    std::uint32_t* rank = s.rank.data();
    for (std::size_t i = 0; i < n; ++i) rank[keys[i] - lo] = 1;
    std::uint64_t prev = 0;
    for (std::size_t j = 0; j < s.rank.size(); ++j) {
      if (rank[j] == 0) continue;
      rank[j] = static_cast<std::uint32_t>(distinct++);
      p = put_varint(p, lo + j - prev);
      prev = lo + j;
    }
    for (std::size_t i = 0; i < n; ++i) p = put_varint(p, rank[keys[i] - lo]);
  } else {
    s.order.resize(n);
    s.tmp.resize(n);
    sort_rows_by_key(n, s);
    // One pass over the sorted order writes each new network's dictionary
    // delta; `tmp` (free once the sort is done) becomes each row's index.
    const std::uint32_t* order = s.order.data();
    std::uint32_t* index = s.tmp.data();
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t row = order[i];
      if (distinct == 0 || keys[row] != prev) {
        ++distinct;
        p = put_varint(p, keys[row] - prev);
        prev = keys[row];
      }
      index[row] = static_cast<std::uint32_t>(distinct - 1);
    }
    for (std::size_t i = 0; i < n; ++i) p = put_varint(p, index[i]);
  }
  std::uint64_t prev_iid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t iid = column[i].iid();
    p = put_varint(p, zigzag_delta(iid, prev_iid));
    prev_iid = iid;
  }

  unsigned char count[kMaxVarintBytes];
  const auto count_bytes =
      static_cast<std::size_t>(put_varint(count, distinct) - count);
  unsigned char* const begin = body - count_bytes;
  std::memcpy(begin, count, count_bytes);
  out.insert(out.end(), begin, p);
  return {lo, hi};
}

/// What an address block's dictionary holds: its distinct networks, the
/// smallest and the largest.
struct AddressDict {
  std::size_t networks = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
};

/// Decodes one address block. The dictionary must strictly increase, as
/// the encoder writes it, so its size is the block's distinct networks and
/// its ends are their bounds; `dict`, when given, receives them.
[[nodiscard]] bool decode_addresses(const unsigned char** cursor,
                                    const unsigned char* end, std::size_t n,
                                    net::Ipv6Address* out,
                                    AddressDict* dict_out = nullptr) {
  std::uint64_t dict_count = 0;
  if (!get_varint(cursor, end, dict_count)) return false;
  // Distinct networks cannot exceed elements; a forged count larger than
  // that (or than the remaining payload, one byte per entry minimum) is
  // rejected before it can size the dictionary.
  if (dict_count == 0 || dict_count > n) return false;
  std::vector<std::uint64_t> dict;
  dict.reserve(static_cast<std::size_t>(dict_count));
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < dict_count; ++i) {
    std::uint64_t delta = 0;
    if (!get_varint(cursor, end, delta)) return false;
    if (i > 0 && (delta == 0 || prev + delta < prev)) return false;
    prev += delta;
    dict.push_back(prev);
  }
  if (dict_out != nullptr) *dict_out = {dict.size(), dict.front(), prev};
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t idx = 0;
    if (!get_varint(cursor, end, idx)) return false;
    if (idx >= dict_count) return false;
    out[i] = net::Ipv6Address{dict[static_cast<std::size_t>(idx)], 0};
  }
  std::uint64_t prev_iid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!get_delta(cursor, end, prev_iid, prev_iid)) return false;
    out[i] = out[i].with_iid(prev_iid);
  }
  return true;
}

/// type+code: run-length {value, run} varint pairs — a sweep is almost
/// entirely echo replies, so a 64Ki block is typically a handful of runs.
/// Returns {min, max} packed value.
std::pair<std::uint64_t, std::uint64_t> encode_type_codes(
    const std::uint16_t* tc, std::size_t n, std::vector<unsigned char>& out) {
  std::uint16_t min_v = tc[0];
  std::uint16_t max_v = tc[0];
  std::size_t i = 0;
  while (i < n) {
    const std::uint16_t v = tc[i];
    std::size_t j = i + 1;
    while (j < n && tc[j] == v) ++j;
    put_varint(out, v);
    put_varint(out, j - i);
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
    i = j;
  }
  return {min_v, max_v};
}

[[nodiscard]] bool decode_type_codes(const unsigned char** cursor,
                                     const unsigned char* end, std::size_t n,
                                     std::uint16_t* out) {
  std::size_t produced = 0;
  while (produced < n) {
    std::uint64_t v = 0;
    std::uint64_t run = 0;
    if (!get_varint(cursor, end, v)) return false;
    if (v > 0xffff) return false;
    if (!get_varint(cursor, end, run)) return false;
    if (run == 0 || run > n - produced) return false;
    for (std::uint64_t k = 0; k < run; ++k) {
      out[produced++] = static_cast<std::uint16_t>(v);
    }
  }
  return true;
}

/// Times: run-length-encoded deltas — {zigzag delta, run} pairs where every
/// element in a run advances by the same step. Sweep timestamps are
/// monotone with near-constant spacing, so whole blocks collapse to a few
/// pairs. Returns {min, max} time (as u64 bit patterns of the i64 values;
/// compared as i64 when aggregated).
std::pair<std::uint64_t, std::uint64_t> encode_times(
    const sim::TimePoint* t, std::size_t n, std::vector<unsigned char>& out) {
  std::int64_t min_v = static_cast<std::int64_t>(t[0]);
  std::int64_t max_v = min_v;
  std::uint64_t prev = 0;
  std::size_t i = 0;
  while (i < n) {
    const auto vi = static_cast<std::uint64_t>(t[i]);
    const std::uint64_t delta = vi - prev;
    std::uint64_t cur = vi;
    std::size_t j = i + 1;
    while (j < n && static_cast<std::uint64_t>(t[j]) - cur == delta) {
      cur += delta;
      ++j;
    }
    put_varint(out, zigzag_encode(static_cast<std::int64_t>(delta)));
    put_varint(out, j - i);
    for (std::size_t k = i; k < j; ++k) {
      const auto v = static_cast<std::int64_t>(t[k]);
      min_v = std::min(min_v, v);
      max_v = std::max(max_v, v);
    }
    prev = cur;
    i = j;
  }
  return {static_cast<std::uint64_t>(min_v), static_cast<std::uint64_t>(max_v)};
}

[[nodiscard]] bool decode_times(const unsigned char** cursor,
                                const unsigned char* end, std::size_t n,
                                sim::TimePoint* out) {
  std::uint64_t prev = 0;
  std::size_t produced = 0;
  while (produced < n) {
    std::uint64_t raw = 0;
    std::uint64_t run = 0;
    if (!get_varint(cursor, end, raw)) return false;
    const auto delta = static_cast<std::uint64_t>(zigzag_decode(raw));
    if (!get_varint(cursor, end, run)) return false;
    if (run == 0 || run > n - produced) return false;
    for (std::uint64_t k = 0; k < run; ++k) {
      prev += delta;
      out[produced++] = static_cast<sim::TimePoint>(prev);
    }
  }
  return true;
}

}  // namespace

const char* to_string(SnapshotError error) noexcept {
  switch (error) {
    case SnapshotError::kNone:
      return "none";
    case SnapshotError::kOpenFailed:
      return "open failed";
    case SnapshotError::kBadMagic:
      return "bad magic";
    case SnapshotError::kBadVersion:
      return "unsupported format version";
    case SnapshotError::kTruncated:
      return "truncated file";
    case SnapshotError::kBadLayout:
      return "bad section layout";
    case SnapshotError::kCorruptSection:
      return "section CRC mismatch";
    case SnapshotError::kReadFailed:
      return "read failed";
  }
  return "unknown";
}


void SnapshotWriter::append(net::Ipv6Address target, net::Ipv6Address response,
                            std::uint16_t type_code, sim::TimePoint time) {
  targets_.push_back(target);
  responses_.push_back(response);
  type_codes_.push_back(type_code);
  times_.push_back(time);
  cached_size_.reset();
}

void SnapshotWriter::append(const core::ObservationStore::View& view) {
  const auto targets = view.target_column();
  const auto responses = view.response_column();
  const auto type_codes = view.type_code_column();
  const auto times = view.time_column();
  targets_.insert(targets_.end(), targets.begin(), targets.end());
  responses_.insert(responses_.end(), responses.begin(), responses.end());
  type_codes_.insert(type_codes_.end(), type_codes.begin(), type_codes.end());
  times_.insert(times_.end(), times.begin(), times.end());
  cached_size_.reset();
}

void SnapshotWriter::clear() {
  targets_.clear();
  responses_.clear();
  type_codes_.clear();
  times_.clear();
  cached_size_.reset();
}

/// One fully encoded file: the header plus, per section, the serialized
/// block directory and the block payloads.
struct SnapshotWriter::Encoded {
  struct Block {
    std::vector<unsigned char> bytes;
    std::uint32_t elements = 0;
    std::uint32_t crc = 0;
    std::uint64_t min_stat = 0;
    std::uint64_t max_stat = 0;
  };
  struct Section {
    std::vector<Block> blocks;
    std::vector<unsigned char> dir;
  };
  std::array<unsigned char, kHeaderSize> header{};
  std::array<Section, kSectionCount> sections{};
  std::uint64_t total_size = 0;
};

void SnapshotWriter::encode(Encoded& out) const {
  const std::size_t rows = targets_.size();
  const std::size_t blocks =
      (rows + kSnapshotBlockElements - 1) / kSnapshotBlockElements;
  for (Encoded::Section& sec : out.sections) sec.blocks.resize(blocks);

  // One task per block of each section, target blocks first, claimed in
  // index order from the worker pool. Blocks are fixed element partitions
  // encoded with per-block state, so which worker runs which task cannot
  // show in the bytes — threads are purely a wall-clock knob.
  const unsigned workers = engine::resolve_threads(threads_);
  std::vector<AddressScratch> scratch(workers);
  engine::run_tasks(
      workers, kSectionCount * blocks, [&](unsigned worker, std::size_t task) {
        const std::size_t b = task % blocks;
        const std::size_t first = b * kSnapshotBlockElements;
        const std::size_t n = std::min(kSnapshotBlockElements, rows - first);
        Encoded::Block& blk = out.sections[task / blocks].blocks[b];
        std::pair<std::uint64_t, std::uint64_t> stats;
        switch (task / blocks) {
          case 0:
            stats = encode_addresses(targets_.data() + first, n,
                                     scratch[worker], blk.bytes);
            break;
          case 1:
            stats = encode_addresses(responses_.data() + first, n,
                                     scratch[worker], blk.bytes);
            break;
          case 2:
            stats = encode_type_codes(type_codes_.data() + first, n, blk.bytes);
            break;
          default:
            stats = encode_times(times_.data() + first, n, blk.bytes);
            break;
        }
        blk.elements = static_cast<std::uint32_t>(n);
        blk.min_stat = stats.first;
        blk.max_stat = stats.second;
        blk.crc = crc32c(blk.bytes.data(), blk.bytes.size());
      });

  unsigned char* const header = out.header.data();
  std::memcpy(header, kMagic, sizeof kMagic);
  store_u32(header + 8, kSnapshotFormatVersion);
  store_u64(header + 12, rows);
  store_u32(header + 20, kSectionCount);
  out.total_size = kHeaderSize;
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    Encoded::Section& sec = out.sections[s];
    sec.dir.resize(4 + sec.blocks.size() * kDirEntryBytes);
    store_u32(sec.dir.data(), static_cast<std::uint32_t>(sec.blocks.size()));
    std::uint64_t offset = 0;
    for (std::size_t b = 0; b < sec.blocks.size(); ++b) {
      const Encoded::Block& blk = sec.blocks[b];
      unsigned char* entry = sec.dir.data() + 4 + b * kDirEntryBytes;
      store_u64(entry, offset);
      store_u32(entry + 8, blk.elements);
      store_u32(entry + 12, static_cast<std::uint32_t>(blk.bytes.size()));
      store_u32(entry + 16, blk.crc);
      store_u64(entry + 20, blk.min_stat);
      store_u64(entry + 28, blk.max_stat);
      offset += blk.bytes.size();
    }
    const std::uint64_t size = sec.dir.size() + offset;
    unsigned char* table = header + 24 + s * 24;
    store_u32(table, s + 1);
    store_u64(table + 4, out.total_size);
    store_u64(table + 12, size);
    store_u32(table + 20, crc32c(sec.dir.data(), sec.dir.size()));
    out.total_size += size;
  }
  store_u32(header + kHeaderSize - 4, crc32c(header, kHeaderSize - 4));
}

std::uint64_t SnapshotWriter::encoded_size() const {
  if (!cached_size_.has_value()) {
    Encoded encoded;
    encode(encoded);
    cached_size_ = encoded.total_size;
  }
  return *cached_size_;
}

bool SnapshotWriter::write(const std::string& path) const {
  Encoded encoded;
  {
    const telemetry::Span encode_span{trace_registry_, "snapshot.encode",
                                      trace_recorder_};
    encode(encoded);
  }
  cached_size_ = encoded.total_size;

  File file{path, "wb"};
  if (!file) return false;
  const auto put = [&file](const std::vector<unsigned char>& bytes) {
    return std::fwrite(bytes.data(), 1, bytes.size(), file.handle) ==
           bytes.size();
  };
  bool ok = std::fwrite(encoded.header.data(), 1, kHeaderSize, file.handle) ==
            kHeaderSize;
  for (const Encoded::Section& sec : encoded.sections) {
    const telemetry::Span span{trace_registry_, "snapshot.section_write",
                               trace_recorder_};
    ok = put(sec.dir) && ok;
    for (const Encoded::Block& blk : sec.blocks) ok = put(blk.bytes) && ok;
  }
  return file.close() && ok;
}

bool SnapshotReader::fail(SnapshotError error) noexcept {
  error_ = error;
  file_.close();
  return false;
}

bool SnapshotReader::parse_block_dir(std::uint32_t id, std::uint64_t offset,
                                     std::uint64_t size, std::uint32_t crc) {
  BlockDir& dir = dirs_[id - 1];
  if (size < 4) return fail(SnapshotError::kBadLayout);
  if (std::fseek(file_.handle, static_cast<long>(offset), SEEK_SET) != 0) {
    return fail(SnapshotError::kReadFailed);
  }
  unsigned char count_bytes[4];
  if (std::fread(count_bytes, 1, sizeof count_bytes, file_.handle) !=
      sizeof count_bytes) {
    return fail(SnapshotError::kReadFailed);
  }
  const std::uint32_t block_count = load_u32(count_bytes);
  if (block_count > (size - 4) / kDirEntryBytes) {
    return fail(SnapshotError::kBadLayout);
  }
  const std::uint64_t dir_bytes = 4 + std::uint64_t{block_count} *
                                          kDirEntryBytes;
  std::vector<unsigned char> raw(static_cast<std::size_t>(dir_bytes));
  std::memcpy(raw.data(), count_bytes, sizeof count_bytes);
  if (block_count > 0 &&
      std::fread(raw.data() + 4, 1, raw.size() - 4, file_.handle) !=
          raw.size() - 4) {
    return fail(SnapshotError::kReadFailed);
  }
  // The section-table crc covers the directory: a damaged block index is
  // caught here, at open, before any payload byte is trusted.
  if (crc32c(raw.data(), raw.size()) != crc) {
    return fail(SnapshotError::kCorruptSection);
  }

  // Fewest payload bytes one element encodes to: an address is at least
  // an index varint and an iid-delta varint. The run-length columns (3, 4)
  // have no such floor, but they must total rows_ like the address
  // columns, which this bound already caps.
  const std::uint64_t min_bytes = id <= 2 ? 2 : 0;

  dir.entries.clear();
  dir.entries.reserve(block_count);
  dir.payload_base = offset + dir_bytes;
  std::uint64_t elements = 0;
  std::uint64_t expected_offset = 0;
  for (std::uint32_t b = 0; b < block_count; ++b) {
    const unsigned char* e = raw.data() + 4 + std::size_t{b} * kDirEntryBytes;
    BlockEntry entry;
    entry.payload_offset = load_u64(e);
    entry.elements = load_u32(e + 8);
    entry.payload_bytes = load_u32(e + 12);
    entry.crc = load_u32(e + 16);
    entry.min_stat = load_u64(e + 20);
    entry.max_stat = load_u64(e + 28);
    entry.first_element = elements;
    // Blocks are contiguous in directory order; any other offset pattern
    // is a forged index. Element counts are bounded, absolutely and by
    // the payload that must encode them, so a crafted entry cannot size
    // an allocation out of proportion to the file.
    if (entry.payload_offset != expected_offset || entry.elements == 0 ||
        entry.elements > kMaxBlockElements || entry.payload_bytes == 0 ||
        std::uint64_t{entry.elements} * min_bytes > entry.payload_bytes) {
      return fail(SnapshotError::kBadLayout);
    }
    expected_offset += entry.payload_bytes;
    elements += entry.elements;
    dir.entries.push_back(entry);
  }
  if (dir_bytes + expected_offset != size || elements != rows_) {
    return fail(SnapshotError::kBadLayout);
  }
  return true;
}

bool SnapshotReader::open(const std::string& path) {
  error_ = SnapshotError::kNone;
  rows_ = 0;
  dirs_ = {};
  blocks_read_ = 0;
  blocks_skipped_ = 0;

  if (!file_.open(path, "rb")) return fail(SnapshotError::kOpenFailed);

  if (std::fseek(file_.handle, 0, SEEK_END) != 0) {
    return fail(SnapshotError::kReadFailed);
  }
  const long file_size = std::ftell(file_.handle);
  if (file_size < 0 || std::fseek(file_.handle, 0, SEEK_SET) != 0) {
    return fail(SnapshotError::kReadFailed);
  }
  const auto size = static_cast<std::uint64_t>(file_size);

  unsigned char header[kHeaderSize];
  const std::size_t got = std::fread(header, 1, kHeaderSize, file_.handle);
  if (got < 24) return fail(SnapshotError::kTruncated);
  if (std::memcmp(header, kMagic, sizeof kMagic) != 0) {
    return fail(SnapshotError::kBadMagic);
  }
  if (load_u32(header + 8) != kSnapshotFormatVersion) {
    return fail(SnapshotError::kBadVersion);
  }
  rows_ = load_u64(header + 12);
  if (load_u32(header + 20) != kSectionCount ||
      rows_ > ~std::uint64_t{0} / 16) {
    return fail(SnapshotError::kBadLayout);
  }
  if (got < kHeaderSize) return fail(SnapshotError::kTruncated);
  if (crc32c(header, kHeaderSize - 4) != load_u32(header + kHeaderSize - 4)) {
    return fail(SnapshotError::kCorruptSection);
  }

  // Exactly the four column sections, in id order; each one's block
  // directory is parsed and validated up front.
  for (std::uint32_t id = 1; id <= kSectionCount; ++id) {
    const unsigned char* entry = header + 24 + (id - 1) * 24;
    const std::uint64_t offset = load_u64(entry + 4);
    const std::uint64_t bytes = load_u64(entry + 12);
    if (load_u32(entry) != id) return fail(SnapshotError::kBadLayout);
    if (offset < kHeaderSize || offset > size || bytes > size - offset) {
      return fail(SnapshotError::kTruncated);
    }
    if (!parse_block_dir(id, offset, bytes, load_u32(entry + 20))) {
      return false;
    }
  }
  // The sections split at the same rows, so block b of each holds the
  // same rows (the pair stream reads them side by side).
  for (std::uint32_t id = 2; id <= kSectionCount; ++id) {
    const std::vector<BlockEntry>& a = directory(1).entries;
    const std::vector<BlockEntry>& b = directory(id).entries;
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const BlockEntry& x, const BlockEntry& y) {
                      return x.elements == y.elements;
                    })) {
      return fail(SnapshotError::kBadLayout);
    }
  }
  return true;
}

template <typename T, typename DecodeBlock>
bool SnapshotReader::read_blocks(std::uint32_t id, std::uint64_t first,
                                 std::uint64_t count, std::vector<T>& out,
                                 DecodeBlock&& decode) {
  out.clear();
  if (!file_) return false;  // preserves the original error
  const BlockDir& dir = directory(id);
  if (count == 0) {
    blocks_skipped_ += dir.entries.size();
    return true;
  }
  const telemetry::Span span{trace_registry_, "snapshot.section_read",
                             trace_recorder_};

  // Overlapping block range [b0, b1) for elements [first, first + count).
  const auto begin = dir.entries.begin();
  const auto end = dir.entries.end();
  const std::size_t b0 = static_cast<std::size_t>(
      std::upper_bound(begin, end, first,
                       [](std::uint64_t v, const BlockEntry& e) {
                         return v < e.first_element;
                       }) -
      begin - 1);
  const std::size_t b1 = static_cast<std::size_t>(
      std::lower_bound(begin, end, first + count,
                       [](const BlockEntry& e, std::uint64_t v) {
                         return e.first_element < v;
                       }) -
      begin);
  const std::size_t nblocks = b1 - b0;
  blocks_read_ += nblocks;
  blocks_skipped_ += dir.entries.size() - nblocks;

  // One sequential I/O pass over the covering byte range, then per-block
  // CRC + decode fan out across threads into disjoint output slices.
  const std::uint64_t rel_begin = dir.entries[b0].payload_offset;
  const std::uint64_t rel_end =
      dir.entries[b1 - 1].payload_offset + dir.entries[b1 - 1].payload_bytes;
  std::vector<unsigned char> buf(static_cast<std::size_t>(rel_end - rel_begin));
  if (std::fseek(file_.handle,
                 static_cast<long>(dir.payload_base + rel_begin),
                 SEEK_SET) != 0) {
    return fail(SnapshotError::kReadFailed);
  }
  if (std::fread(buf.data(), 1, buf.size(), file_.handle) != buf.size()) {
    return fail(SnapshotError::kReadFailed);
  }

  const std::uint64_t covered_first = dir.entries[b0].first_element;
  const std::uint64_t covered_count = dir.entries[b1 - 1].first_element +
                                      dir.entries[b1 - 1].elements -
                                      covered_first;
  const bool exact = covered_first == first && covered_count == count;
  std::vector<T> scratch;
  if (exact) {
    out.resize(static_cast<std::size_t>(count));
  } else {
    scratch.resize(static_cast<std::size_t>(covered_count));
  }
  T* const dst = exact ? out.data() : scratch.data();

  std::vector<SnapshotError> block_errors(nblocks, SnapshotError::kNone);
  const unsigned workers = std::min<unsigned>(
      engine::resolve_threads(threads_),
      static_cast<unsigned>(nblocks));
  engine::run_shards(workers, [&](unsigned shard) {
    const engine::RowRange range = engine::shard_rows(nblocks, workers, shard);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const BlockEntry& blk = dir.entries[b0 + i];
      const unsigned char* payload =
          buf.data() + (blk.payload_offset - rel_begin);
      if (crc32c(payload, blk.payload_bytes) != blk.crc) {
        block_errors[i] = SnapshotError::kCorruptSection;
        continue;
      }
      const unsigned char* cursor = payload;
      const unsigned char* payload_end = payload + blk.payload_bytes;
      // A CRC-valid block whose content decodes inconsistently (forged
      // dictionary index, run overflow, trailing bytes) is corruption too.
      if (!decode(&cursor, payload_end, blk.elements,
                  dst + (blk.first_element - covered_first)) ||
          cursor != payload_end) {
        block_errors[i] = SnapshotError::kCorruptSection;
      }
    }
  });
  for (const SnapshotError e : block_errors) {
    if (e != SnapshotError::kNone) {
      out.clear();
      return fail(e);
    }
  }

  if (!exact) {
    const auto skip = static_cast<std::size_t>(first - covered_first);
    out.assign(scratch.begin() + static_cast<std::ptrdiff_t>(skip),
               scratch.begin() +
                   static_cast<std::ptrdiff_t>(skip + count));
  }
  return true;
}

bool SnapshotReader::read_block(std::uint32_t id, std::size_t b,
                                std::vector<unsigned char>& buf) {
  const BlockDir& dir = directory(id);
  const BlockEntry& blk = dir.entries[b];
  buf.resize(blk.payload_bytes);
  if (std::fseek(file_.handle,
                 static_cast<long>(dir.payload_base + blk.payload_offset),
                 SEEK_SET) != 0 ||
      std::fread(buf.data(), 1, buf.size(), file_.handle) != buf.size()) {
    return fail(SnapshotError::kReadFailed);
  }
  if (crc32c(buf.data(), buf.size()) != blk.crc) {
    return fail(SnapshotError::kCorruptSection);
  }
  ++blocks_read_;
  return true;
}

bool SnapshotReader::read_targets(std::vector<net::Ipv6Address>& out) {
  return read_targets(out, 0, rows_);
}

bool SnapshotReader::read_responses(std::vector<net::Ipv6Address>& out) {
  return read_responses(out, 0, rows_);
}

bool SnapshotReader::read_type_codes(std::vector<std::uint16_t>& out) {
  return read_type_codes(out, 0, rows_);
}

bool SnapshotReader::read_times(std::vector<sim::TimePoint>& out) {
  return read_times(out, 0, rows_);
}

namespace {

/// Clamps a requested row window to [0, total).
void clamp_window(std::uint64_t total, std::uint64_t& first,
                  std::uint64_t& count) noexcept {
  first = std::min(first, total);
  count = std::min(count, total - first);
}

}  // namespace

bool SnapshotReader::read_targets(std::vector<net::Ipv6Address>& out,
                                  std::uint64_t first, std::uint64_t count) {
  clamp_window(rows_, first, count);
  return read_blocks(1, first, count, out,
                     [](const unsigned char** cursor, const unsigned char* end,
                        std::size_t n, net::Ipv6Address* dst) {
                       return decode_addresses(cursor, end, n, dst);
                     });
}

bool SnapshotReader::read_responses(std::vector<net::Ipv6Address>& out,
                                    std::uint64_t first, std::uint64_t count) {
  clamp_window(rows_, first, count);
  return read_blocks(2, first, count, out,
                     [](const unsigned char** cursor, const unsigned char* end,
                        std::size_t n, net::Ipv6Address* dst) {
                       return decode_addresses(cursor, end, n, dst);
                     });
}

bool SnapshotReader::read_type_codes(std::vector<std::uint16_t>& out,
                                     std::uint64_t first,
                                     std::uint64_t count) {
  clamp_window(rows_, first, count);
  return read_blocks(3, first, count, out, decode_type_codes);
}

bool SnapshotReader::read_times(std::vector<sim::TimePoint>& out,
                                std::uint64_t first, std::uint64_t count) {
  clamp_window(rows_, first, count);
  return read_blocks(4, first, count, out, decode_times);
}

std::optional<std::pair<sim::TimePoint, sim::TimePoint>>
SnapshotReader::time_range() const noexcept {
  const BlockDir& times = directory(4);
  if (times.entries.empty()) return std::nullopt;
  auto min_t = static_cast<std::int64_t>(times.entries.front().min_stat);
  auto max_t = static_cast<std::int64_t>(times.entries.front().max_stat);
  for (const BlockEntry& e : times.entries) {
    min_t = std::min(min_t, static_cast<std::int64_t>(e.min_stat));
    max_t = std::max(max_t, static_cast<std::int64_t>(e.max_stat));
  }
  return std::make_pair(static_cast<sim::TimePoint>(min_t),
                        static_cast<sim::TimePoint>(max_t));
}

bool SnapshotReader::for_each_eui_pair(
    const std::function<bool(net::Ipv6Address, net::Ipv6Address)>& fn) {
  if (!file_) return false;  // preserves the original error
  // False once `fn` has asked to stop.
  const auto emit = [&fn](const core::Snapshot& pairs) {
    for (const auto& [target, response] : pairs.map()) {
      if (!fn(target, response)) return false;
    }
    return true;
  };
  // Target blocks whose [min, max] network ranges strictly increase share
  // no network, so no target repeats across blocks and the pairs are each
  // block's own, block after block. Otherwise record_rows runs over the
  // whole file's columns.
  const std::vector<BlockEntry>& blocks = directory(1).entries;
  for (std::size_t b = 1; b < blocks.size(); ++b) {
    if (blocks[b - 1].max_stat >= blocks[b].min_stat) {
      std::vector<net::Ipv6Address> targets;
      std::vector<net::Ipv6Address> responses;
      if (!read_targets(targets) || !read_responses(responses)) return false;
      core::Snapshot pairs;
      pairs.record_rows(targets, responses);
      (void)emit(pairs);
      return true;
    }
  }

  const telemetry::Span span{trace_registry_, "snapshot.section_read",
                             trace_recorder_};
  std::vector<unsigned char> buf;
  std::vector<net::Ipv6Address> targets;
  std::vector<net::Ipv6Address> responses;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BlockEntry& blk = blocks[b];
    targets.resize(blk.elements);
    responses.resize(blk.elements);
    // The proof rests on the stats, so the decoded dictionary must match
    // them: a CRC-valid directory that lies about a block is corruption.
    AddressDict dict;
    const auto decode = [&](std::vector<net::Ipv6Address>& out,
                            AddressDict* d) {
      const unsigned char* cursor = buf.data();
      const unsigned char* const end = buf.data() + buf.size();
      return decode_addresses(&cursor, end, blk.elements, out.data(), d) &&
             cursor == end;
    };
    if (!read_block(1, b, buf)) return false;
    if (!decode(targets, &dict) || dict.min != blk.min_stat ||
        dict.max != blk.max_stat) {
      return fail(SnapshotError::kCorruptSection);
    }
    if (!read_block(2, b, buf)) return false;
    if (!decode(responses, nullptr)) {
      return fail(SnapshotError::kCorruptSection);
    }
    if (dict.networks == blk.elements) {
      // One network per row: no target repeats in the block either, so
      // every EUI-64 row is its own pair, in row order.
      for (std::uint32_t i = 0; i < blk.elements; ++i) {
        if (net::is_eui64(responses[i]) && !fn(targets[i], responses[i])) {
          return true;
        }
      }
    } else {
      // A target may repeat inside this block, but only inside it.
      core::Snapshot pairs;
      pairs.record_rows(targets, responses);
      if (!emit(pairs)) return true;
    }
  }
  return true;
}

bool SnapshotReader::decode_columns(
    const core::ObservationStore::ColumnSlices& out) {
  // One sequential read per section, then one fan-out over every block of
  // all four: a block CRC-checks and decodes straight into its rows of the
  // store's column.
  std::array<std::vector<unsigned char>, kSectionCount> payloads;
  struct Task {
    std::uint32_t id;
    const BlockEntry* block;
  };
  std::vector<Task> tasks;
  for (std::uint32_t id = 1; id <= kSectionCount; ++id) {
    const BlockDir& section = directory(id);
    if (section.entries.empty()) continue;
    const telemetry::Span span{trace_registry_, "snapshot.section_read",
                               trace_recorder_};
    std::vector<unsigned char>& buf = payloads[id - 1];
    buf.resize(static_cast<std::size_t>(section.entries.back().payload_offset +
                                        section.entries.back().payload_bytes));
    if (std::fseek(file_.handle, static_cast<long>(section.payload_base),
                   SEEK_SET) != 0) {
      return fail(SnapshotError::kReadFailed);
    }
    if (std::fread(buf.data(), 1, buf.size(), file_.handle) != buf.size()) {
      return fail(SnapshotError::kReadFailed);
    }
    for (const BlockEntry& block : section.entries) {
      tasks.push_back({id, &block});
    }
  }
  if (tasks.empty()) return true;
  blocks_read_ += tasks.size();

  // One flag per task (not vector<bool>: workers write their own bytes).
  std::vector<unsigned char> corrupt(tasks.size(), 0);
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      engine::resolve_threads(threads_), tasks.size()));
  engine::run_tasks(workers, tasks.size(), [&](unsigned, std::size_t t) {
    const BlockEntry& blk = *tasks[t].block;
    const unsigned char* payload =
        payloads[tasks[t].id - 1].data() + blk.payload_offset;
    if (crc32c(payload, blk.payload_bytes) != blk.crc) {
      corrupt[t] = 1;
      return;
    }
    const unsigned char* cursor = payload;
    const unsigned char* const end = payload + blk.payload_bytes;
    const auto row = static_cast<std::size_t>(blk.first_element);
    bool ok = false;
    switch (tasks[t].id) {
      case 1:
        ok = decode_addresses(&cursor, end, blk.elements,
                              out.targets.data() + row);
        break;
      case 2:
        ok = decode_addresses(&cursor, end, blk.elements,
                              out.responses.data() + row);
        break;
      case 3:
        ok = decode_type_codes(&cursor, end, blk.elements,
                               out.type_codes.data() + row);
        break;
      default:
        ok = decode_times(&cursor, end, blk.elements, out.times.data() + row);
        break;
    }
    // A CRC-valid block whose content decodes inconsistently is corruption
    // too, as in read_blocks.
    if (!ok || cursor != end) corrupt[t] = 1;
  });
  if (std::find(corrupt.begin(), corrupt.end(), 1) != corrupt.end()) {
    return fail(SnapshotError::kCorruptSection);
  }
  return true;
}

bool SnapshotReader::read_into(core::ObservationStore& store) {
  if (!file_) return false;  // preserves the original error
  return store.append_columns(
      static_cast<std::size_t>(rows_),
      [this](const core::ObservationStore::ColumnSlices& out) {
        return decode_columns(out);
      });
}

std::optional<core::ObservationStore> SnapshotReader::read_store() {
  core::ObservationStore store;
  if (!read_into(store)) return std::nullopt;
  return store;
}

}  // namespace scent::corpus
