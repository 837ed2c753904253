#include "corpus/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "core/rotation_detector.h"
#include "corpus/encoding.h"
#include "engine/parallel.h"
#include "netbase/eui64.h"
#include "telemetry/span.h"

namespace scent::corpus {
namespace {

/// The four columns, in block order: targets, responses, type+code, times.
constexpr std::size_t kColumns = 4;
/// Reader-side sanity cap on a directory entry's element count. The writer
/// emits kSnapshotBlockElements; anything far past it is a forged index,
/// rejected before it can size an allocation.
constexpr std::uint64_t kMaxBlockElements = std::uint64_t{1} << 22;
/// Fewest payload bytes an address element encodes to: an index varint and
/// an iid-delta varint.
constexpr std::uint64_t kAddressFloorBytes = 2;

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

/// One encoded block and its directory fields.
struct EncodedBlock {
  std::vector<unsigned char> bytes;
  std::uint32_t elements = 0;
  std::uint64_t min_stat = 0;
  std::uint64_t max_stat = 0;
};

}  // namespace

void SnapshotWriter::append(const core::ObservationStore::View& view) {
  if (view.empty()) return;
  if (!rows_.empty() &&
      (view.store() != rows_.store() || view.first() != rows_.last())) {
    throw std::invalid_argument(
        "SnapshotWriter::append: the view does not continue the held rows");
  }
  rows_ = view.store()->view(rows_.empty() ? view.first() : rows_.first(),
                             view.last());
}

bool SnapshotWriter::write(const std::string& path) {
  written_bytes_ = 0;
  const std::size_t rows = rows_.size();
  const std::size_t blocks =
      (rows + kSnapshotBlockElements - 1) / kSnapshotBlockElements;
  // Column-major: block b of column c is encoded[c * blocks + b].
  std::vector<EncodedBlock> encoded(kColumns * blocks);
  {
    const telemetry::Span encode_span{trace_registry_, "snapshot.encode",
                                      trace_recorder_};
    // One task per block of each column, target blocks first, claimed in
    // index order from the worker pool. Blocks are fixed element partitions
    // encoded with per-block state, so which worker runs which task cannot
    // show in the bytes — threads are purely a wall-clock knob.
    const unsigned workers = engine::resolve_threads(threads_);
    std::vector<AddressScratch> scratch(workers);
    engine::run_tasks(
        workers, encoded.size(), [&](unsigned worker, std::size_t task) {
          const std::size_t first = task % blocks * kSnapshotBlockElements;
          const std::size_t n = std::min(kSnapshotBlockElements, rows - first);
          EncodedBlock& blk = encoded[task];
          const std::size_t column = task / blocks;
          std::pair<std::uint64_t, std::uint64_t> stats;
          if (column < 2) {
            const auto addresses = column == 0 ? rows_.target_column()
                                               : rows_.response_column();
            stats = encode_addresses(addresses.data() + first, n,
                                     scratch[worker], blk.bytes);
          } else if (column == 2) {
            stats = encode_type_codes(rows_.type_code_column().data() + first,
                                      n, blk.bytes);
          } else {
            stats = encode_times(rows_.time_column().data() + first, n,
                                 blk.bytes);
          }
          blk.elements = static_cast<std::uint32_t>(n);
          blk.min_stat = stats.first;
          blk.max_stat = stats.second;
        });
  }

  BlockFileWriter file{kSnapshotFormat};
  if (!file.open(path)) return false;
  for (std::size_t c = 0; c < kColumns; ++c) {
    const telemetry::Span span{trace_registry_, "snapshot.section_write",
                               trace_recorder_};
    for (std::size_t b = 0; b < blocks; ++b) {
      const EncodedBlock& blk = encoded[c * blocks + b];
      file.write_block(blk.bytes, blk.elements, blk.min_stat, blk.max_stat);
    }
  }
  const bool ok = file.finish();
  written_bytes_ = file.bytes_written();
  return ok;
}

bool SnapshotReader::open(const std::string& path) {
  rows_ = 0;
  blocks_ = 0;
  block_rows_.assign(1, 0);
  blocks_skipped_ = 0;
  if (!file_.open(path)) return false;

  // Four equal runs of blocks, one per column, split at the same rows so
  // block b of each holds the same rows (the pair stream reads them side by
  // side). Element counts are bounded absolutely and, in the address
  // columns, by the payload that must encode them, so a crafted entry
  // cannot size an allocation out of proportion to the file; the
  // run-length columns' counts equal the targets'.
  const std::vector<BlockEntry>& dir = file_.directory();
  if (dir.size() % kColumns != 0) return file_.fail(FileError::kBadLayout);
  blocks_ = dir.size() / kColumns;
  for (std::size_t b = 0; b < blocks_; ++b) {
    const std::uint32_t elements = block(0, b).elements;
    for (std::size_t c = 0; c < kColumns; ++c) {
      const BlockEntry& e = block(c, b);
      if (e.elements != elements || e.elements > kMaxBlockElements ||
          (c < 2 && e.elements * kAddressFloorBytes > e.payload_bytes)) {
        return file_.fail(FileError::kBadLayout);
      }
    }
    block_rows_.push_back(block_rows_.back() + elements);
  }
  rows_ = block_rows_.back();
  return true;
}

template <typename T, typename DecodeBlock>
bool SnapshotReader::read_blocks(std::size_t column, std::uint64_t first,
                                 std::uint64_t count, std::vector<T>& out,
                                 DecodeBlock&& decode) {
  out.clear();
  if (!file_.is_open()) return false;  // preserves the original error
  if (count == 0) {
    blocks_skipped_ += blocks_;
    return true;
  }
  const telemetry::Span span{trace_registry_, "snapshot.section_read",
                             trace_recorder_};

  // Overlapping block range [b0, b1) for rows [first, first + count).
  const auto begin = block_rows_.begin();
  const std::size_t b0 = static_cast<std::size_t>(
      std::upper_bound(begin, block_rows_.end(), first) - begin - 1);
  const std::size_t b1 = static_cast<std::size_t>(
      std::lower_bound(begin, block_rows_.end(), first + count) - begin);
  const std::size_t nblocks = b1 - b0;
  blocks_skipped_ += blocks_ - nblocks;

  // The envelope reads and CRC-checks each block; decode then fans out
  // across threads into disjoint output slices.
  std::vector<std::vector<unsigned char>> payloads(nblocks);
  for (std::size_t i = 0; i < nblocks; ++i) {
    if (!file_.read_block(column * blocks_ + b0 + i, payloads[i])) {
      return false;
    }
  }

  const std::uint64_t covered_first = block_rows_[b0];
  const std::uint64_t covered_count = block_rows_[b1] - covered_first;
  const bool exact = covered_first == first && covered_count == count;
  std::vector<T> scratch;
  if (exact) {
    out.resize(static_cast<std::size_t>(count));
  } else {
    scratch.resize(static_cast<std::size_t>(covered_count));
  }
  T* const dst = exact ? out.data() : scratch.data();

  // One flag per block (not vector<bool>: workers write their own bytes).
  std::vector<unsigned char> corrupt(nblocks, 0);
  const unsigned workers = std::min<unsigned>(
      engine::resolve_threads(threads_), static_cast<unsigned>(nblocks));
  engine::run_shards(workers, [&](unsigned shard) {
    const engine::RowRange range = engine::shard_rows(nblocks, workers, shard);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const std::vector<unsigned char>& payload = payloads[i];
      const unsigned char* cursor = payload.data();
      const unsigned char* const payload_end = payload.data() + payload.size();
      // A CRC-valid block whose content decodes inconsistently (forged
      // dictionary index, run overflow, trailing bytes) is corruption too.
      if (!decode(&cursor, payload_end, block(column, b0 + i).elements,
                  dst + (block_rows_[b0 + i] - covered_first)) ||
          cursor != payload_end) {
        corrupt[i] = 1;
      }
    }
  });
  if (std::find(corrupt.begin(), corrupt.end(), 1) != corrupt.end()) {
    out.clear();
    return file_.fail(FileError::kCorrupt);
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

bool SnapshotReader::read_targets(std::vector<net::Ipv6Address>& out,
                                  std::uint64_t first, std::uint64_t count) {
  clamp_window(rows_, first, count);
  return read_blocks(0, first, count, out,
                     [](const unsigned char** cursor, const unsigned char* end,
                        std::size_t n, net::Ipv6Address* dst) {
                       return decode_addresses(cursor, end, n, dst);
                     });
}

bool SnapshotReader::read_responses(std::vector<net::Ipv6Address>& out,
                                    std::uint64_t first, std::uint64_t count) {
  clamp_window(rows_, first, count);
  return read_blocks(1, first, count, out,
                     [](const unsigned char** cursor, const unsigned char* end,
                        std::size_t n, net::Ipv6Address* dst) {
                       return decode_addresses(cursor, end, n, dst);
                     });
}

bool SnapshotReader::read_type_codes(std::vector<std::uint16_t>& out,
                                     std::uint64_t first,
                                     std::uint64_t count) {
  clamp_window(rows_, first, count);
  return read_blocks(2, first, count, out, decode_type_codes);
}

bool SnapshotReader::read_times(std::vector<sim::TimePoint>& out,
                                std::uint64_t first, std::uint64_t count) {
  clamp_window(rows_, first, count);
  return read_blocks(3, first, count, out, decode_times);
}

std::optional<std::pair<sim::TimePoint, sim::TimePoint>>
SnapshotReader::time_range() const noexcept {
  if (!file_.is_open() || blocks_ == 0) return std::nullopt;
  auto min_t = static_cast<std::int64_t>(block(3, 0).key_min);
  auto max_t = static_cast<std::int64_t>(block(3, 0).key_max);
  for (std::size_t b = 1; b < blocks_; ++b) {
    min_t = std::min(min_t, static_cast<std::int64_t>(block(3, b).key_min));
    max_t = std::max(max_t, static_cast<std::int64_t>(block(3, b).key_max));
  }
  return std::make_pair(static_cast<sim::TimePoint>(min_t),
                        static_cast<sim::TimePoint>(max_t));
}

bool SnapshotReader::for_each_eui_pair(
    const std::function<bool(net::Ipv6Address, net::Ipv6Address)>& fn) {
  if (!file_.is_open()) return false;  // preserves the original error
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
  for (std::size_t b = 1; b < blocks_; ++b) {
    if (block(0, b - 1).key_max >= block(0, b).key_min) {
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
  for (std::size_t b = 0; b < blocks_; ++b) {
    // Copies: a failed read closes the reader and drops its directory.
    const BlockEntry blk = block(0, b);
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
    if (!file_.read_block(b, buf)) return false;
    if (!decode(targets, &dict) || dict.min != blk.key_min ||
        dict.max != blk.key_max) {
      return file_.fail(FileError::kCorrupt);
    }
    if (!file_.read_block(blocks_ + b, buf)) return false;
    if (!decode(responses, nullptr)) return file_.fail(FileError::kCorrupt);
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
  // The envelope reads and CRC-checks every block of the four columns,
  // then one fan-out decodes each straight into its rows of the store's
  // column.
  const std::size_t tasks = kColumns * blocks_;
  if (tasks == 0) return true;
  std::vector<std::vector<unsigned char>> payloads(tasks);
  for (std::size_t c = 0; c < kColumns; ++c) {
    const telemetry::Span span{trace_registry_, "snapshot.section_read",
                               trace_recorder_};
    for (std::size_t b = 0; b < blocks_; ++b) {
      if (!file_.read_block(c * blocks_ + b, payloads[c * blocks_ + b])) {
        return false;
      }
    }
  }

  // One flag per task (not vector<bool>: workers write their own bytes).
  std::vector<unsigned char> corrupt(tasks, 0);
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(engine::resolve_threads(threads_), tasks));
  engine::run_tasks(workers, tasks, [&](unsigned, std::size_t t) {
    const std::size_t b = t % blocks_;
    const std::uint32_t n = block(0, b).elements;
    const auto row = static_cast<std::size_t>(block_rows_[b]);
    const unsigned char* cursor = payloads[t].data();
    const unsigned char* const end = cursor + payloads[t].size();
    bool ok = false;
    switch (t / blocks_) {
      case 0:
        ok = decode_addresses(&cursor, end, n, out.targets.data() + row);
        break;
      case 1:
        ok = decode_addresses(&cursor, end, n, out.responses.data() + row);
        break;
      case 2:
        ok = decode_type_codes(&cursor, end, n, out.type_codes.data() + row);
        break;
      default:
        ok = decode_times(&cursor, end, n, out.times.data() + row);
        break;
    }
    // A CRC-valid block whose content decodes inconsistently is corruption
    // too, as in read_blocks.
    if (!ok || cursor != end) corrupt[t] = 1;
  });
  if (std::find(corrupt.begin(), corrupt.end(), 1) != corrupt.end()) {
    return file_.fail(FileError::kCorrupt);
  }
  return true;
}

bool SnapshotReader::read_into(core::ObservationStore& store) {
  if (!file_.is_open()) return false;  // preserves the original error
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
