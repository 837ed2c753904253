#include "corpus/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "corpus/crc32c.h"
#include "corpus/encoding.h"
#include "engine/parallel.h"
#include "netbase/eui64.h"
#include "telemetry/span.h"

namespace scent::corpus {
namespace {

constexpr char kMagic[8] = {'S', 'C', 'N', 'T', 'S', 'N', 'A', 'P'};
constexpr std::uint32_t kSectionCount = 5;
/// Fixed header (24) + section table (24 per section) + header CRC (4).
constexpr std::uint64_t kHeaderSize = 24 + kSectionCount * 24 + 4;
/// Chunk size for streamed v1 decode. A multiple of every element width
/// (16, 2, 8, 32), so elements never straddle chunk boundaries.
constexpr std::size_t kChunkBytes = std::size_t{1} << 18;
/// v2 block-directory entry: payload offset (8) + element count (4) +
/// payload bytes (4) + payload CRC (4) + min/max stats (8 + 8).
constexpr std::size_t kDirEntryBytes = 36;
/// Reader-side sanity cap on a directory entry's element count. The writer
/// emits kSnapshotBlockElements; anything far past it is a forged index,
/// rejected before it can size an allocation.
constexpr std::uint64_t kMaxBlockElements = std::uint64_t{1} << 22;

/// RAII stdio handle (same discipline as core/io.cpp: no iostreams on data
/// paths, close() reports buffered-write failures).
struct File {
  std::FILE* handle = nullptr;
  explicit File(const std::string& path, const char* mode)
      : handle(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (handle != nullptr) std::fclose(handle);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  explicit operator bool() const noexcept { return handle != nullptr; }

  bool close() {
    if (handle == nullptr) return false;
    const bool stream_clean = std::ferror(handle) == 0;
    const bool close_clean = std::fclose(handle) == 0;
    handle = nullptr;
    return stream_clean && close_clean;
  }
};

void store_u32(unsigned char* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
  }
}

void store_u64(unsigned char* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
  }
}

[[nodiscard]] std::uint16_t load_u16(const unsigned char* p) noexcept {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

[[nodiscard]] std::uint32_t load_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

[[nodiscard]] std::uint64_t load_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

[[nodiscard]] net::Ipv6Address load_address(const unsigned char* p) noexcept {
  return net::Ipv6Address{load_u64(p), load_u64(p + 8)};
}

[[nodiscard]] constexpr std::uint64_t element_width(std::uint32_t id) noexcept {
  switch (id) {
    case 1:
    case 2:
      return 16;  // address columns
    case 3:
      return 2;  // packed type+code
    case 4:
      return 8;  // times
    case 5:
      return 32;  // eui pairs
    default:
      return 0;
  }
}

// ---------------------------------------------------------------------------
// v2 per-column block codecs (DESIGN.md §5j). Every encoder appends one
// block's payload for `n` elements; every decoder consumes it back from a
// cursor, bounds-checked, and the caller requires the cursor to land exactly
// on the block end. Blocks share no state: each stream's "previous value"
// seeds at zero per block, which is what makes blocks skippable and
// parallel-codable.

/// Sorts the row indices [0, n) of `a` by network into `order`, stably:
/// an LSD radix sort over the network's eight bytes, skipping every byte
/// that is the same in all rows (a /64-clustered block varies in only a
/// few). `tmp` is same-sized ping-pong scratch.
void sort_rows_by_network(const net::Ipv6Address* a, std::size_t n,
                          std::vector<std::uint32_t>& order,
                          std::vector<std::uint32_t>& tmp) {
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = a[i].network();
    for (unsigned d = 0; d < 8; ++d) ++counts[d][(key >> (8 * d)) & 0xff];
  }
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (unsigned d = 0; d < 8; ++d) {
    const unsigned shift = 8 * d;
    auto& bucket = counts[d];
    if (bucket[(a[0].network() >> shift) & 0xff] == n) continue;
    std::uint32_t start = 0;
    for (std::uint32_t& c : bucket) {
      const std::uint32_t size = c;
      c = start;
      start += size;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t row = order[i];
      tmp[bucket[(a[row].network() >> shift) & 0xff]++] = row;
    }
    order.swap(tmp);
  }
}

/// Addresses: sorted network dictionary (delta varints — /64-clustered
/// columns have few distinct networks per 64Ki rows), then one dictionary
/// index varint per element, then the iid stream as zigzag deltas (EUI-64
/// iids repeat and sequential probe iids step by one, so deltas stay short).
/// The dictionary comes from one radix sort of the rows by network and one
/// pass over that order, which keeps each distinct network's first row and
/// gives every row its dictionary index — the same bytes as sorting the
/// networks and binary-searching each element. Returns {min, max} network
/// for the block's directory stats.
std::pair<std::uint64_t, std::uint64_t> encode_addresses(
    const net::Ipv6Address* a, std::size_t n,
    std::vector<unsigned char>& out) {
  std::vector<std::uint32_t> order(n);
  std::vector<std::uint32_t> index(n);
  sort_rows_by_network(a, n, order, index);

  // Compacts `order` in place to one representative row per distinct
  // network (the write slot never passes the read slot).
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t row = order[i];
    if (distinct == 0 ||
        a[row].network() != a[order[distinct - 1]].network()) {
      order[distinct++] = row;
    }
    index[row] = static_cast<std::uint32_t>(distinct - 1);
  }

  put_varint(out, distinct);
  std::uint64_t prev = 0;
  for (std::size_t k = 0; k < distinct; ++k) {
    const std::uint64_t network = a[order[k]].network();
    put_varint(out, network - prev);
    prev = network;
  }
  for (std::size_t i = 0; i < n; ++i) put_varint(out, index[i]);
  std::uint64_t prev_iid = 0;
  for (std::size_t i = 0; i < n; ++i) {
    put_delta(out, a[i].iid(), prev_iid);
    prev_iid = a[i].iid();
  }
  return {a[order[0]].network(), a[order[distinct - 1]].network()};
}

[[nodiscard]] bool decode_addresses(const unsigned char** cursor,
                                    const unsigned char* end, std::size_t n,
                                    net::Ipv6Address* out) {
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
    prev += delta;
    dict.push_back(prev);
  }
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
  if (net::is_eui64(response)) eui_pairs_[target] = response;
  cached_v2_size_.reset();
}

void SnapshotWriter::append(const core::ObservationStore& store) {
  const auto targets = store.target_column();
  const auto responses = store.response_column();
  const auto type_codes = store.type_code_column();
  const auto times = store.time_column();
  targets_.insert(targets_.end(), targets.begin(), targets.end());
  responses_.insert(responses_.end(), responses.begin(), responses.end());
  type_codes_.insert(type_codes_.end(), type_codes.begin(), type_codes.end());
  times_.insert(times_.end(), times.begin(), times.end());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (net::is_eui64(responses[i])) eui_pairs_[targets[i]] = responses[i];
  }
  cached_v2_size_.reset();
}

void SnapshotWriter::append(const core::ObservationStore::View& view) {
  for (std::size_t i = 0; i < view.size(); ++i) {
    append(view.target(i), view.response(i), view.type_code(i), view.time(i));
  }
}

void SnapshotWriter::clear() {
  targets_.clear();
  responses_.clear();
  type_codes_.clear();
  times_.clear();
  eui_pairs_.clear();
  cached_v2_size_.reset();
}

/// One fully encoded v2 file, minus the fixed header: per-section block
/// payloads plus the serialized directories and their CRCs.
struct SnapshotWriter::EncodedV2 {
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
    std::uint64_t payload_bytes = 0;
  };
  std::array<Section, kSectionCount> sections{};
  std::array<std::uint32_t, kSectionCount> dir_crcs{};
  std::array<std::uint64_t, kSectionCount> sizes{};
  std::uint64_t total_size = 0;
};

void SnapshotWriter::encode_v2(EncodedV2& out) const {
  // The eui_pairs section encodes as two address sub-streams, so the
  // FlatMap's key/value sequences are materialized once, in stored order.
  std::vector<net::Ipv6Address> pair_targets;
  std::vector<net::Ipv6Address> pair_responses;
  pair_targets.reserve(eui_pairs_.size());
  pair_responses.reserve(eui_pairs_.size());
  for (const auto& [target, response] : eui_pairs_) {
    pair_targets.push_back(target);
    pair_responses.push_back(response);
  }

  const std::size_t counts[kSectionCount] = {
      targets_.size(), responses_.size(), type_codes_.size(), times_.size(),
      pair_targets.size()};

  struct BlockTask {
    std::uint32_t sec = 0;
    std::size_t block = 0;
  };
  std::vector<BlockTask> tasks;
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    const std::size_t blocks =
        (counts[s] + kSnapshotBlockElements - 1) / kSnapshotBlockElements;
    out.sections[s].blocks.resize(blocks);
    for (std::size_t b = 0; b < blocks; ++b) tasks.push_back({s, b});
  }

  const auto encode_block = [&](const BlockTask& task) {
    const std::size_t first = task.block * kSnapshotBlockElements;
    const std::size_t n =
        std::min(kSnapshotBlockElements, counts[task.sec] - first);
    EncodedV2::Block& blk = out.sections[task.sec].blocks[task.block];
    std::pair<std::uint64_t, std::uint64_t> stats{0, 0};
    switch (task.sec) {
      case 0:
        stats = encode_addresses(targets_.data() + first, n, blk.bytes);
        break;
      case 1:
        stats = encode_addresses(responses_.data() + first, n, blk.bytes);
        break;
      case 2:
        stats = encode_type_codes(type_codes_.data() + first, n, blk.bytes);
        break;
      case 3:
        stats = encode_times(times_.data() + first, n, blk.bytes);
        break;
      case 4:
        // Target stream then response stream, back to back; stats follow
        // the targets (the rotation diff's skip key is the target network).
        stats = encode_addresses(pair_targets.data() + first, n, blk.bytes);
        encode_addresses(pair_responses.data() + first, n, blk.bytes);
        break;
      default:
        break;
    }
    blk.elements = static_cast<std::uint32_t>(n);
    blk.min_stat = stats.first;
    blk.max_stat = stats.second;
    blk.crc = crc32c(blk.bytes.data(), blk.bytes.size());
  };

  // Blocks are fixed row partitions encoded with per-block state, so any
  // assignment of blocks to workers produces the same bytes — threads are
  // purely a wall-clock knob.
  const unsigned workers = std::min<unsigned>(
      engine::resolve_threads(threads_),
      static_cast<unsigned>(std::max<std::size_t>(tasks.size(), 1)));
  engine::run_shards(workers, [&](unsigned shard) {
    const engine::RowRange range =
        engine::shard_rows(tasks.size(), workers, shard);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      encode_block(tasks[i]);
    }
  });

  out.total_size = kHeaderSize;
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    EncodedV2::Section& sec = out.sections[s];
    sec.dir.resize(4 + sec.blocks.size() * kDirEntryBytes);
    store_u32(sec.dir.data(), static_cast<std::uint32_t>(sec.blocks.size()));
    std::uint64_t offset = 0;
    for (std::size_t b = 0; b < sec.blocks.size(); ++b) {
      const EncodedV2::Block& blk = sec.blocks[b];
      unsigned char* entry = sec.dir.data() + 4 + b * kDirEntryBytes;
      store_u64(entry, offset);
      store_u32(entry + 8, blk.elements);
      store_u32(entry + 12, static_cast<std::uint32_t>(blk.bytes.size()));
      store_u32(entry + 16, blk.crc);
      store_u64(entry + 20, blk.min_stat);
      store_u64(entry + 28, blk.max_stat);
      offset += blk.bytes.size();
    }
    sec.payload_bytes = offset;
    out.dir_crcs[s] = crc32c(sec.dir.data(), sec.dir.size());
    out.sizes[s] = sec.dir.size() + sec.payload_bytes;
    out.total_size += out.sizes[s];
  }
}

namespace {

/// Assembles the shared fixed header + section table + header CRC.
std::vector<unsigned char> build_header(
    std::uint32_t version, std::uint64_t rows,
    const std::uint64_t (&sizes)[kSectionCount],
    const std::uint32_t (&crcs)[kSectionCount]) {
  std::vector<unsigned char> header(kHeaderSize);
  std::memcpy(header.data(), kMagic, sizeof kMagic);
  store_u32(header.data() + 8, version);
  store_u64(header.data() + 12, rows);
  store_u32(header.data() + 20, kSectionCount);
  std::uint64_t offset = kHeaderSize;
  for (std::uint32_t id = 1; id <= kSectionCount; ++id) {
    unsigned char* entry = header.data() + 24 + (id - 1) * 24;
    store_u32(entry, id);
    store_u64(entry + 4, offset);
    store_u64(entry + 12, sizes[id - 1]);
    store_u32(entry + 20, crcs[id - 1]);
    offset += sizes[id - 1];
  }
  store_u32(header.data() + kHeaderSize - 4,
            crc32c(header.data(), kHeaderSize - 4));
  return header;
}

}  // namespace

std::uint64_t SnapshotWriter::encoded_size() const {
  if (!cached_v2_size_.has_value()) {
    EncodedV2 encoded;
    encode_v2(encoded);
    cached_v2_size_ = encoded.total_size;
  }
  return *cached_v2_size_;
}

bool SnapshotWriter::write(const std::string& path) const {
  EncodedV2 encoded;
  encode_v2(encoded);
  cached_v2_size_ = encoded.total_size;

  File file{path, "wb"};
  if (!file) return false;

  std::uint64_t sizes[kSectionCount];
  std::uint32_t crcs[kSectionCount];
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    sizes[s] = encoded.sizes[s];
    crcs[s] = encoded.dir_crcs[s];
  }
  const std::vector<unsigned char> header =
      build_header(kSnapshotFormatV2, rows(), sizes, crcs);
  bool ok =
      std::fwrite(header.data(), 1, header.size(), file.handle) ==
      header.size();
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    const telemetry::Span span{trace_registry_, "snapshot.section_write",
                               trace_recorder_};
    const EncodedV2::Section& sec = encoded.sections[s];
    ok = std::fwrite(sec.dir.data(), 1, sec.dir.size(), file.handle) ==
             sec.dir.size() &&
         ok;
    for (const EncodedV2::Block& blk : sec.blocks) {
      ok = std::fwrite(blk.bytes.data(), 1, blk.bytes.size(), file.handle) ==
               blk.bytes.size() &&
           ok;
    }
  }
  return file.close() && ok;
}

SnapshotReader::~SnapshotReader() { close(); }

void SnapshotReader::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool SnapshotReader::fail(SnapshotError error) noexcept {
  error_ = error;
  close();
  return false;
}

const SnapshotReader::Section* SnapshotReader::section(
    std::uint32_t id) const noexcept {
  if (id > kMaxSectionId || !sections_[id].present) return nullptr;
  return &sections_[id];
}

std::uint64_t SnapshotReader::eui_pair_count() const noexcept {
  if (version_ == kSnapshotFormatV2) return block_dirs_[5].total_elements;
  const Section* s = section(5);
  return s == nullptr ? 0 : s->size / 32;
}

bool SnapshotReader::parse_block_dir(std::uint32_t id) {
  const Section& s = sections_[id];
  BlockDir& dir = block_dirs_[id];
  if (s.size < 4) return fail(SnapshotError::kBadLayout);
  if (std::fseek(file_, static_cast<long>(s.offset), SEEK_SET) != 0) {
    return fail(SnapshotError::kReadFailed);
  }
  unsigned char count_bytes[4];
  if (std::fread(count_bytes, 1, sizeof count_bytes, file_) !=
      sizeof count_bytes) {
    return fail(SnapshotError::kReadFailed);
  }
  const std::uint32_t block_count = load_u32(count_bytes);
  if (block_count > (s.size - 4) / kDirEntryBytes) {
    return fail(SnapshotError::kBadLayout);
  }
  const std::uint64_t dir_bytes = 4 + std::uint64_t{block_count} *
                                          kDirEntryBytes;
  std::vector<unsigned char> raw(static_cast<std::size_t>(dir_bytes));
  std::memcpy(raw.data(), count_bytes, sizeof count_bytes);
  if (block_count > 0 &&
      std::fread(raw.data() + 4, 1, raw.size() - 4, file_) != raw.size() - 4) {
    return fail(SnapshotError::kReadFailed);
  }
  // The section-table crc covers the directory: a damaged block index is
  // caught here, at open, before any payload byte is trusted.
  if (crc32c(raw.data(), raw.size()) != s.crc) {
    return fail(SnapshotError::kCorruptSection);
  }

  dir.entries.clear();
  dir.entries.reserve(block_count);
  dir.payload_base = s.offset + dir_bytes;
  dir.total_elements = 0;
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
    entry.first_element = dir.total_elements;
    // Blocks are contiguous in directory order; any other offset pattern
    // is a forged index. Element counts are bounded so a crafted entry
    // cannot size an absurd allocation.
    if (entry.payload_offset != expected_offset || entry.elements == 0 ||
        entry.elements > kMaxBlockElements || entry.payload_bytes == 0) {
      return fail(SnapshotError::kBadLayout);
    }
    expected_offset += entry.payload_bytes;
    dir.total_elements += entry.elements;
    dir.entries.push_back(entry);
  }
  if (dir_bytes + expected_offset != s.size) {
    return fail(SnapshotError::kBadLayout);
  }
  if (id != 5 && dir.total_elements != rows_) {
    return fail(SnapshotError::kBadLayout);
  }
  return true;
}

bool SnapshotReader::open(const std::string& path) {
  close();
  error_ = SnapshotError::kNone;
  version_ = 0;
  rows_ = 0;
  sections_ = {};
  block_dirs_ = {};
  blocks_read_ = 0;
  blocks_skipped_ = 0;

  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) return fail(SnapshotError::kOpenFailed);

  if (std::fseek(file_, 0, SEEK_END) != 0) {
    return fail(SnapshotError::kReadFailed);
  }
  const long file_size = std::ftell(file_);
  if (file_size < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    return fail(SnapshotError::kReadFailed);
  }
  const auto size = static_cast<std::uint64_t>(file_size);

  unsigned char fixed[24];
  if (std::fread(fixed, 1, sizeof fixed, file_) != sizeof fixed) {
    return fail(SnapshotError::kTruncated);
  }
  if (std::memcmp(fixed, kMagic, sizeof kMagic) != 0) {
    return fail(SnapshotError::kBadMagic);
  }
  version_ = load_u32(fixed + 8);
  if (version_ != kSnapshotFormatV1 && version_ != kSnapshotFormatV2) {
    return fail(SnapshotError::kBadVersion);
  }
  rows_ = load_u64(fixed + 12);
  const std::uint32_t section_count = load_u32(fixed + 20);
  // Sanity bound on the table size; a writer emits exactly 5 sections, but
  // unknown extra sections are tolerated (see header comment).
  if (section_count < kSectionCount || section_count > 64) {
    return fail(SnapshotError::kBadLayout);
  }

  std::vector<unsigned char> table(std::size_t{section_count} * 24);
  if (std::fread(table.data(), 1, table.size(), file_) != table.size()) {
    return fail(SnapshotError::kTruncated);
  }
  unsigned char stored_crc[4];
  if (std::fread(stored_crc, 1, sizeof stored_crc, file_) !=
      sizeof stored_crc) {
    return fail(SnapshotError::kTruncated);
  }
  Crc32c header_crc;
  header_crc.update(fixed, sizeof fixed);
  header_crc.update(table.data(), table.size());
  if (header_crc.value() != load_u32(stored_crc)) {
    return fail(SnapshotError::kCorruptSection);
  }

  const std::uint64_t header_end = 24 + table.size() + 4;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const unsigned char* entry = table.data() + std::size_t{i} * 24;
    const std::uint32_t id = load_u32(entry);
    Section s;
    s.offset = load_u64(entry + 4);
    s.size = load_u64(entry + 12);
    s.crc = load_u32(entry + 20);
    s.present = true;
    if (s.offset < header_end || s.offset > size || s.size > size - s.offset) {
      return fail(SnapshotError::kTruncated);
    }
    if (id == 0 || id > kMaxSectionId) continue;  // unknown section: ignore
    if (sections_[id].present) return fail(SnapshotError::kBadLayout);
    sections_[id] = s;
  }

  // All sections are required in both versions.
  if (rows_ > ~std::uint64_t{0} / 16) return fail(SnapshotError::kBadLayout);
  for (std::uint32_t id = 1; id <= kMaxSectionId; ++id) {
    if (section(id) == nullptr) return fail(SnapshotError::kBadLayout);
  }
  if (version_ == kSnapshotFormatV1) {
    // v1 column sections must be exactly rows * width (the eui_pairs
    // section is derived, so only pair-aligned).
    for (std::uint32_t id = 1; id <= kMaxSectionId; ++id) {
      const Section* s = section(id);
      if (id == 5) {
        if (s->size % 32 != 0) return fail(SnapshotError::kBadLayout);
      } else if (s->size != rows_ * element_width(id)) {
        return fail(SnapshotError::kBadLayout);
      }
    }
    return true;
  }
  // v2: parse and validate every section's block directory up front.
  for (std::uint32_t id = 1; id <= kMaxSectionId; ++id) {
    if (!parse_block_dir(id)) return false;
  }
  return true;
}

template <typename Visit>
bool SnapshotReader::read_section(std::uint32_t id, Visit&& visit) {
  if (file_ == nullptr) return false;  // preserves the original error
  const Section* s = section(id);
  if (s == nullptr) return fail(SnapshotError::kBadLayout);
  const telemetry::Span span{trace_registry_, "snapshot.section_read",
                             trace_recorder_};
  if (std::fseek(file_, static_cast<long>(s->offset), SEEK_SET) != 0) {
    return fail(SnapshotError::kReadFailed);
  }
  std::vector<unsigned char> buf(
      static_cast<std::size_t>(std::min<std::uint64_t>(kChunkBytes, s->size)));
  Crc32c crc;
  std::uint64_t remaining = s->size;
  while (remaining > 0) {
    const auto want =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunkBytes,
                                                         remaining));
    if (std::fread(buf.data(), 1, want, file_) != want) {
      return fail(SnapshotError::kReadFailed);
    }
    crc.update(buf.data(), want);
    visit(buf.data(), want);
    remaining -= want;
  }
  if (crc.value() != s->crc) return fail(SnapshotError::kCorruptSection);
  return true;
}

template <typename T, typename DecodeBlock>
bool SnapshotReader::read_blocks(std::uint32_t id, std::uint64_t first,
                                 std::uint64_t count, std::vector<T>& out,
                                 DecodeBlock&& decode) {
  out.clear();
  if (file_ == nullptr) return false;  // preserves the original error
  const BlockDir& dir = block_dirs_[id];
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
  if (std::fseek(file_,
                 static_cast<long>(dir.payload_base + rel_begin),
                 SEEK_SET) != 0) {
    return fail(SnapshotError::kReadFailed);
  }
  if (std::fread(buf.data(), 1, buf.size(), file_) != buf.size()) {
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

template <typename T>
bool SnapshotReader::read_column(std::uint32_t id, std::uint64_t first,
                                 std::uint64_t count, std::vector<T>& out) {
  // v1 has one whole-section CRC — there is no way to verify a window
  // without reading the section — so a range read is a full read + slice
  // (the documented v1 semantics; no skipping, counters stay zero).
  std::vector<T> all;
  all.reserve(static_cast<std::size_t>(rows_));
  const std::uint64_t width = element_width(id);
  const bool ok =
      read_section(id, [&all, width](const unsigned char* p, std::size_t len) {
        for (std::size_t i = 0; i < len; i += width) {
          if constexpr (std::is_same_v<T, net::Ipv6Address>) {
            all.push_back(load_address(p + i));
          } else if constexpr (std::is_same_v<T, std::uint16_t>) {
            all.push_back(load_u16(p + i));
          } else {
            all.push_back(static_cast<T>(load_u64(p + i)));
          }
        }
      });
  if (!ok) {
    out.clear();
    return false;
  }
  if (first == 0 && count == all.size()) {
    out = std::move(all);
  } else {
    out.assign(all.begin() + static_cast<std::ptrdiff_t>(first),
               all.begin() + static_cast<std::ptrdiff_t>(first + count));
  }
  return true;
}

bool SnapshotReader::read_targets(std::vector<net::Ipv6Address>& out,
                                  std::uint64_t first, std::uint64_t count) {
  clamp_window(rows_, first, count);
  if (version_ == kSnapshotFormatV2) {
    return read_blocks(1, first, count, out,
                       [](const unsigned char** cursor,
                          const unsigned char* end, std::size_t n,
                          net::Ipv6Address* dst) {
                         return decode_addresses(cursor, end, n, dst);
                       });
  }
  return read_column(1, first, count, out);
}

bool SnapshotReader::read_responses(std::vector<net::Ipv6Address>& out,
                                    std::uint64_t first, std::uint64_t count) {
  clamp_window(rows_, first, count);
  if (version_ == kSnapshotFormatV2) {
    return read_blocks(2, first, count, out,
                       [](const unsigned char** cursor,
                          const unsigned char* end, std::size_t n,
                          net::Ipv6Address* dst) {
                         return decode_addresses(cursor, end, n, dst);
                       });
  }
  return read_column(2, first, count, out);
}

bool SnapshotReader::read_type_codes(std::vector<std::uint16_t>& out,
                                     std::uint64_t first,
                                     std::uint64_t count) {
  clamp_window(rows_, first, count);
  if (version_ == kSnapshotFormatV2) {
    return read_blocks(3, first, count, out,
                       [](const unsigned char** cursor,
                          const unsigned char* end, std::size_t n,
                          std::uint16_t* dst) {
                         return decode_type_codes(cursor, end, n, dst);
                       });
  }
  return read_column(3, first, count, out);
}

bool SnapshotReader::read_times(std::vector<sim::TimePoint>& out,
                                std::uint64_t first, std::uint64_t count) {
  clamp_window(rows_, first, count);
  if (version_ == kSnapshotFormatV2) {
    return read_blocks(4, first, count, out,
                       [](const unsigned char** cursor,
                          const unsigned char* end, std::size_t n,
                          sim::TimePoint* dst) {
                         return decode_times(cursor, end, n, dst);
                       });
  }
  return read_column(4, first, count, out);
}

std::optional<std::pair<sim::TimePoint, sim::TimePoint>>
SnapshotReader::time_range() const noexcept {
  if (version_ != kSnapshotFormatV2) return std::nullopt;
  const BlockDir& dir = block_dirs_[4];
  if (dir.entries.empty()) return std::nullopt;
  auto min_t = static_cast<std::int64_t>(dir.entries.front().min_stat);
  auto max_t = static_cast<std::int64_t>(dir.entries.front().max_stat);
  for (const BlockEntry& e : dir.entries) {
    min_t = std::min(min_t, static_cast<std::int64_t>(e.min_stat));
    max_t = std::max(max_t, static_cast<std::int64_t>(e.max_stat));
  }
  return std::make_pair(static_cast<sim::TimePoint>(min_t),
                        static_cast<sim::TimePoint>(max_t));
}

bool SnapshotReader::for_each_eui_pair(
    const std::function<void(net::Ipv6Address, net::Ipv6Address)>& fn) {
  if (version_ != kSnapshotFormatV2) {
    return read_section(5, [&fn](const unsigned char* p, std::size_t len) {
      for (std::size_t i = 0; i < len; i += 32) {
        fn(load_address(p + i), load_address(p + i + 16));
      }
    });
  }
  if (file_ == nullptr) return false;  // preserves the original error
  const BlockDir& dir = block_dirs_[5];
  if (dir.entries.empty()) return true;
  const telemetry::Span span{trace_registry_, "snapshot.section_read",
                             trace_recorder_};
  // Streamed: one block of pairs in memory at a time, in stored order.
  std::vector<unsigned char> buf;
  std::vector<net::Ipv6Address> pair_targets;
  std::vector<net::Ipv6Address> pair_responses;
  for (const BlockEntry& blk : dir.entries) {
    buf.resize(blk.payload_bytes);
    if (std::fseek(file_,
                   static_cast<long>(dir.payload_base + blk.payload_offset),
                   SEEK_SET) != 0) {
      return fail(SnapshotError::kReadFailed);
    }
    if (std::fread(buf.data(), 1, buf.size(), file_) != buf.size()) {
      return fail(SnapshotError::kReadFailed);
    }
    if (crc32c(buf.data(), buf.size()) != blk.crc) {
      return fail(SnapshotError::kCorruptSection);
    }
    pair_targets.resize(blk.elements);
    pair_responses.resize(blk.elements);
    const unsigned char* cursor = buf.data();
    const unsigned char* payload_end = buf.data() + buf.size();
    if (!decode_addresses(&cursor, payload_end, blk.elements,
                          pair_targets.data()) ||
        !decode_addresses(&cursor, payload_end, blk.elements,
                          pair_responses.data()) ||
        cursor != payload_end) {
      return fail(SnapshotError::kCorruptSection);
    }
    ++blocks_read_;
    for (std::uint32_t i = 0; i < blk.elements; ++i) {
      fn(pair_targets[i], pair_responses[i]);
    }
  }
  return true;
}

bool SnapshotReader::read_into(core::ObservationStore& store) {
  std::vector<net::Ipv6Address> targets;
  std::vector<net::Ipv6Address> responses;
  std::vector<std::uint16_t> type_codes;
  std::vector<sim::TimePoint> times;
  if (!read_targets(targets) || !read_responses(responses) ||
      !read_type_codes(type_codes) || !read_times(times)) {
    return false;
  }
  store.reserve(store.size() + targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    store.add_packed(targets[i], responses[i], type_codes[i], times[i]);
  }
  return true;
}

std::optional<core::ObservationStore> SnapshotReader::read_store() {
  core::ObservationStore store;
  if (!read_into(store)) return std::nullopt;
  return store;
}

}  // namespace scent::corpus
