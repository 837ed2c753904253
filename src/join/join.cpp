#include "join/join.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <queue>
#include <span>
#include <utility>

#include "corpus/encoding.h"
#include "corpus/geo_feed.h"
#include "engine/parallel.h"

namespace scent::join {
namespace {

// Spool frames flush at this size, so the final merge holds one frame per
// partition — the O(P) buffer term in the memory bound.
constexpr std::size_t kSpoolFlushBytes = 256 * 1024;

[[nodiscard]] unsigned round_up_pow2(unsigned v) noexcept {
  unsigned p = 1;
  while (p < v && p < (1u << 30)) p <<= 1;
  return p;
}

[[nodiscard]] unsigned log2_pow2(unsigned p) noexcept {
  unsigned bits = 0;
  while ((1u << bits) < p) ++bits;
  return bits;
}

void store_u32(unsigned char* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

[[nodiscard]] std::uint32_t load_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// ---------------------------------------------------------------------------
// Dossier spool: a forward-only stream of variable-length dossiers, framed
// as [payload_bytes u32 | dossier_count u32 | payload] so the cursor reads
// one bounded frame at a time and varints never straddle a read.

void encode_dossier(std::vector<unsigned char>& out,
                    const analysis::DeviceDossier& d) {
  corpus::put_varint(out, d.mac.bits());
  corpus::put_varint(out, d.sightings.size());
  for (const analysis::DossierSighting& s : d.sightings) {
    corpus::put_varint(out, corpus::zigzag_encode(s.day));
    corpus::put_varint(out, s.network);
    corpus::put_varint(out, s.asn);
  }
  corpus::put_varint(out, d.anchors.size());
  for (const analysis::GeoAnchor& a : d.anchors) {
    corpus::put_varint(out, corpus::zigzag_encode(a.day));
    corpus::put_varint(out, corpus::zigzag_encode(a.lat_udeg));
    corpus::put_varint(out, corpus::zigzag_encode(a.lon_udeg));
    corpus::put_varint(out, a.asn);
  }
}

[[nodiscard]] bool decode_dossier(const unsigned char** cursor,
                                  const unsigned char* end,
                                  analysis::DeviceDossier& d) {
  std::uint64_t v = 0;
  if (!corpus::get_varint(cursor, end, v)) return false;
  d.mac = net::MacAddress{v};
  std::uint64_t count = 0;
  if (!corpus::get_varint(cursor, end, count)) return false;
  d.sightings.clear();
  d.sightings.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    analysis::DossierSighting s;
    if (!corpus::get_varint(cursor, end, v)) return false;
    s.day = corpus::zigzag_decode(v);
    if (!corpus::get_varint(cursor, end, s.network)) return false;
    if (!corpus::get_varint(cursor, end, v)) return false;
    s.asn = static_cast<std::uint32_t>(v);
    d.sightings.push_back(s);
  }
  if (!corpus::get_varint(cursor, end, count)) return false;
  d.anchors.clear();
  d.anchors.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    analysis::GeoAnchor a;
    if (!corpus::get_varint(cursor, end, v)) return false;
    a.day = corpus::zigzag_decode(v);
    if (!corpus::get_varint(cursor, end, v)) return false;
    a.lat_udeg = static_cast<std::int32_t>(corpus::zigzag_decode(v));
    if (!corpus::get_varint(cursor, end, v)) return false;
    a.lon_udeg = static_cast<std::int32_t>(corpus::zigzag_decode(v));
    if (!corpus::get_varint(cursor, end, v)) return false;
    a.asn = static_cast<std::uint32_t>(v);
    d.anchors.push_back(a);
  }
  return true;
}

class SpoolWriter {
 public:
  ~SpoolWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }

  [[nodiscard]] bool open(const std::string& path) {
    file_ = std::fopen(path.c_str(), "wb");
    return file_ != nullptr;
  }

  void append(const analysis::DeviceDossier& d) {
    encode_dossier(buffer_, d);
    ++count_;
    if (buffer_.size() >= kSpoolFlushBytes) ok_ = flush() && ok_;
  }

  [[nodiscard]] bool finish() {
    if (file_ == nullptr) return false;
    ok_ = flush() && ok_;
    ok_ = std::fclose(file_) == 0 && ok_;
    file_ = nullptr;
    return ok_;
  }

  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }

 private:
  [[nodiscard]] bool flush() {
    if (count_ == 0) return true;
    unsigned char header[8];
    store_u32(header, static_cast<std::uint32_t>(buffer_.size()));
    store_u32(header + 4, count_);
    const bool ok =
        std::fwrite(header, 1, sizeof header, file_) == sizeof header &&
        std::fwrite(buffer_.data(), 1, buffer_.size(), file_) ==
            buffer_.size();
    bytes_written_ += sizeof header + buffer_.size();
    buffer_.clear();
    count_ = 0;
    return ok;
  }

  std::FILE* file_ = nullptr;
  bool ok_ = true;
  std::vector<unsigned char> buffer_;
  std::uint32_t count_ = 0;
  std::uint64_t bytes_written_ = 0;
};

/// Streams a spool one dossier at a time, holding one frame in memory.
class SpoolCursor {
 public:
  ~SpoolCursor() {
    if (file_ != nullptr) std::fclose(file_);
  }

  [[nodiscard]] bool open(const std::string& path) {
    file_ = std::fopen(path.c_str(), "rb");
    return file_ != nullptr;
  }

  /// False at clean EOF or on error; check ok() to tell them apart.
  [[nodiscard]] bool next(analysis::DeviceDossier& out) {
    if (!ok_ || file_ == nullptr) return false;
    if (remaining_ == 0 && !refill()) return false;
    if (!decode_dossier(&cursor_, end_, out)) {
      ok_ = false;
      return false;
    }
    --remaining_;
    if (remaining_ == 0 && cursor_ != end_) ok_ = false;  // trailing bytes
    return ok_;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  [[nodiscard]] bool refill() {
    unsigned char header[8];
    const std::size_t got = std::fread(header, 1, sizeof header, file_);
    if (got == 0) return false;  // clean EOF
    if (got != sizeof header) {
      ok_ = false;
      return false;
    }
    const std::uint32_t payload_bytes = load_u32(header);
    remaining_ = load_u32(header + 4);
    frame_.resize(payload_bytes);
    if (payload_bytes == 0 || remaining_ == 0 ||
        std::fread(frame_.data(), 1, frame_.size(), file_) != frame_.size()) {
      ok_ = false;
      return false;
    }
    cursor_ = frame_.data();
    end_ = frame_.data() + frame_.size();
    return true;
  }

  std::FILE* file_ = nullptr;
  bool ok_ = true;
  std::vector<unsigned char> frame_;
  const unsigned char* cursor_ = nullptr;
  const unsigned char* end_ = nullptr;
  std::uint32_t remaining_ = 0;
};

// ---------------------------------------------------------------------------
// Partition cells: one per (side, shard, partition). A cell is either an
// in-memory row vector or a lazily opened spill-run writer; cells are
// touched only by their owning shard, so the scan needs no locks.

constexpr unsigned kCorpusSide = 0;
constexpr unsigned kGeoSide = 1;

struct PartitionScratch {
  std::string spool_path;
  std::uint64_t spool_bytes = 0;
  std::vector<analysis::DeviceDossier> dossiers;  // in-memory mode
  std::uint64_t rows = 0;
  std::uint64_t dossier_count = 0;
  std::uint64_t anchored = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t blocks_pruned = 0;
  bool ok = true;
};

struct ShardScan {
  std::uint64_t corpus_rows = 0;
  std::uint64_t geo_rows = 0;
  std::uint64_t files_pruned = 0;
  std::uint64_t feed_blocks_read = 0;
  bool ok = true;
};

}  // namespace

DossierJoin::DossierJoin(JoinOptions options) : options_(std::move(options)) {}

void DossierJoin::add_corpus_day(const std::string& path, std::int64_t day) {
  corpus_files_.push_back(CorpusDayFile{.path = path, .day = day});
}

void DossierJoin::add_geo_feed(const std::string& path) {
  geo_feeds_.push_back(path);
}

bool DossierJoin::run(analysis::DossierSink& sink) {
  if (ran_) return false;
  ran_ = true;

  const unsigned threads = engine::resolve_threads(options_.threads);
  const unsigned partitions =
      round_up_pow2(options_.partitions < 1 ? 1 : options_.partitions);
  const unsigned partition_bits = log2_pow2(partitions);
  const bool spill = !options_.spill_dir.empty();

  stats_ = JoinStats{};
  stats_.threads = threads;
  stats_.partitions = partitions;
  stats_.corpus_files = corpus_files_.size();

  if (spill) {
    std::error_code ec;
    std::filesystem::create_directories(options_.spill_dir, ec);
    if (!std::filesystem::is_directory(options_.spill_dir)) return false;
  }

  const auto cell_index = [&](unsigned side, unsigned shard,
                              std::uint32_t partition) {
    return (std::size_t{side} * threads + shard) * partitions + partition;
  };
  const auto run_path = [&](unsigned side, unsigned shard,
                            std::uint32_t partition) {
    return options_.spill_dir + (side == kCorpusSide ? "/c-s" : "/g-s") +
           std::to_string(shard) + "-p" + std::to_string(partition) + ".krun";
  };

  // ---- Phase 1: radix-partition both sides, sharded over the input. ----
  std::vector<std::vector<corpus::KeyedRecord>> memory_cells;
  std::vector<std::unique_ptr<corpus::KeyedRunWriter>> spill_cells;
  const std::size_t cells = std::size_t{2} * threads * partitions;
  if (spill) {
    spill_cells.resize(cells);
  } else {
    memory_cells.resize(cells);
  }
  std::vector<ShardScan> scans(threads);

  engine::run_shards(threads, [&](unsigned s) {
    ShardScan& scan = scans[s];
    const auto deposit = [&](unsigned side, const corpus::KeyedRecord& rec) {
      const std::size_t cell =
          cell_index(side, s, partition_of(rec.key, partition_bits));
      if (spill) {
        auto& writer = spill_cells[cell];
        if (!writer) {
          writer = std::make_unique<corpus::KeyedRunWriter>(
              options_.spill_block_elements);
          if (!writer->open(
                  run_path(side, s, partition_of(rec.key, partition_bits)))) {
            scan.ok = false;
            return;
          }
        }
        writer->append(rec);
      } else {
        memory_cells[cell].push_back(rec);
      }
    };

    routing::AttributionCache cache;
    const engine::RowRange files =
        engine::shard_rows(corpus_files_.size(), threads, s);
    for (std::size_t i = files.begin; i < files.end && scan.ok; ++i) {
      switch (scan_corpus_file(corpus_files_[i], options_.window,
                               options_.bgp, cache,
                               [&](const corpus::KeyedRecord& rec) {
                                 deposit(kCorpusSide, rec);
                                 ++scan.corpus_rows;
                               })) {
        case ScanResult::kScanned:
          break;
        case ScanResult::kPruned:
          ++scan.files_pruned;
          break;
        case ScanResult::kError:
          scan.ok = false;
          break;
      }
    }
    for (const std::string& feed : geo_feeds_) {
      if (!scan.ok) break;
      corpus::GeoFeedReader reader;
      if (!reader.open(feed)) {
        scan.ok = false;
        break;
      }
      const engine::RowRange blocks =
          engine::shard_rows(reader.blocks(), threads, s);
      if (!reader.for_each_block_range(blocks.begin,
                                       blocks.end - blocks.begin,
                                       [&](const sim::GeoRecord& g) {
                                         deposit(kGeoSide, geo_to_record(g));
                                         ++scan.geo_rows;
                                       })) {
        scan.ok = false;
      }
      scan.feed_blocks_read += reader.blocks_read();
    }
  });

  bool ok = true;
  for (const ShardScan& scan : scans) {
    ok = ok && scan.ok;
    stats_.corpus_rows += scan.corpus_rows;
    stats_.geo_rows += scan.geo_rows;
    stats_.corpus_files_pruned += scan.files_pruned;
    stats_.blocks_read += scan.feed_blocks_read;
  }
  if (spill) {
    for (auto& writer : spill_cells) {
      if (!writer) continue;
      ok = writer->finish() && ok;
      stats_.spill_bytes += writer->bytes_written();
      ++stats_.spill_runs;
    }
  }
  if (!ok) return false;

  // ---- Phase 2: partition-wise sorted merge-join, shards own contiguous
  // partition ranges. ----
  std::vector<PartitionScratch> parts(partitions);
  engine::run_shards(threads, [&](unsigned s) {
    const engine::RowRange mine = engine::shard_rows(partitions, threads, s);
    for (std::size_t p = mine.begin; p < mine.end; ++p) {
      PartitionScratch& part = parts[p];
      // Corpus rows: shard-order run concatenation reproduces serial input
      // order, so the stable sort below is thread-count-invariant.
      std::vector<corpus::KeyedRecord> corpus_rows;
      if (spill) {
        for (unsigned ss = 0; ss < threads && part.ok; ++ss) {
          const std::size_t cell =
              cell_index(kCorpusSide, ss, static_cast<std::uint32_t>(p));
          if (!spill_cells[cell]) continue;
          corpus::KeyedRunReader reader;
          if (!reader.open(
                  run_path(kCorpusSide, ss, static_cast<std::uint32_t>(p))) ||
              !reader.for_each([&](const corpus::KeyedRecord& rec) {
                corpus_rows.push_back(rec);
              })) {
            part.ok = false;
            break;
          }
          part.blocks_read += reader.blocks_read();
        }
      } else {
        for (unsigned ss = 0; ss < threads; ++ss) {
          const auto& cell = memory_cells[cell_index(
              kCorpusSide, ss, static_cast<std::uint32_t>(p))];
          corpus_rows.insert(corpus_rows.end(), cell.begin(), cell.end());
        }
      }
      if (!part.ok) continue;
      std::stable_sort(corpus_rows.begin(), corpus_rows.end(),
                       [](const corpus::KeyedRecord& a,
                          const corpus::KeyedRecord& b) {
                         return a.key < b.key;
                       });

      // Geo rows: only the corpus key span matters, so spilled feed blocks
      // outside [lo, hi] are skipped via their stats — never decoded.
      std::vector<corpus::KeyedRecord> geo_rows;
      const std::uint64_t lo =
          corpus_rows.empty() ? 1 : corpus_rows.front().key;
      const std::uint64_t hi = corpus_rows.empty() ? 0 : corpus_rows.back().key;
      for (unsigned ss = 0; ss < threads && part.ok; ++ss) {
        const std::size_t cell =
            cell_index(kGeoSide, ss, static_cast<std::uint32_t>(p));
        if (spill) {
          if (!spill_cells[cell]) continue;
          corpus::KeyedRunReader reader;
          if (!reader.open(
                  run_path(kGeoSide, ss, static_cast<std::uint32_t>(p)))) {
            part.ok = false;
            break;
          }
          if (corpus_rows.empty()) {
            part.blocks_pruned += reader.blocks();
            continue;
          }
          if (!reader.for_each_overlapping(
                  lo, hi, [&](const corpus::KeyedRecord& rec) {
                    geo_rows.push_back(rec);
                  })) {
            part.ok = false;
            break;
          }
          part.blocks_read += reader.blocks_read();
          part.blocks_pruned += reader.blocks_skipped();
        } else {
          for (const corpus::KeyedRecord& rec : memory_cells[cell]) {
            if (rec.key >= lo && rec.key <= hi) geo_rows.push_back(rec);
          }
        }
      }
      if (!part.ok) continue;
      std::stable_sort(geo_rows.begin(), geo_rows.end(),
                       [](const corpus::KeyedRecord& a,
                          const corpus::KeyedRecord& b) {
                         return a.key < b.key;
                       });
      part.rows = corpus_rows.size() + geo_rows.size();

      SpoolWriter spool;
      if (spill && !corpus_rows.empty()) {
        part.spool_path =
            options_.spill_dir + "/dossiers-p" + std::to_string(p) + ".spool";
        if (!spool.open(part.spool_path)) {
          part.ok = false;
          continue;
        }
      }

      std::size_t gi = 0;
      for (std::size_t i = 0; i < corpus_rows.size() && part.ok;) {
        const std::uint64_t key = corpus_rows[i].key;
        std::size_t j = i;
        while (j < corpus_rows.size() && corpus_rows[j].key == key) ++j;
        while (gi < geo_rows.size() && geo_rows[gi].key < key) ++gi;
        std::size_t gj = gi;
        while (gj < geo_rows.size() && geo_rows[gj].key == key) ++gj;
        analysis::DeviceDossier dossier = analysis::make_dossier(
            net::MacAddress{key},
            std::span<const corpus::KeyedRecord>(corpus_rows).subspan(i,
                                                                      j - i),
            std::span<const corpus::KeyedRecord>(geo_rows).subspan(gi,
                                                                   gj - gi));
        ++part.dossier_count;
        if (!dossier.anchors.empty()) ++part.anchored;
        if (spill) {
          spool.append(dossier);
        } else {
          part.dossiers.push_back(std::move(dossier));
        }
        i = j;
        gi = gj;
      }
      if (spill && !corpus_rows.empty()) {
        part.ok = spool.finish() && part.ok;
        part.spool_bytes = spool.bytes_written();
      }
    }
  });

  for (const PartitionScratch& part : parts) {
    ok = ok && part.ok;
    stats_.blocks_read += part.blocks_read;
    stats_.blocks_pruned += part.blocks_pruned;
    stats_.spill_bytes += part.spool_bytes;
    stats_.peak_partition_rows = std::max(stats_.peak_partition_rows,
                                          part.rows);
    stats_.dossiers += part.dossier_count;
    stats_.anchored += part.anchored;
  }
  if (!ok) return false;

  // ---- Phase 3: P-way merge by MAC. Each MAC lives in exactly one
  // partition and each partition stream is MAC-ascending, so the heap
  // yields the globally ascending — and fan-out-independent — order. ----
  std::vector<std::unique_ptr<SpoolCursor>> cursors(partitions);
  std::vector<std::size_t> next_index(partitions, 0);
  std::vector<analysis::DeviceDossier> head(partitions);
  using HeapItem = std::pair<std::uint64_t, std::uint32_t>;  // (mac, p)
  std::priority_queue<HeapItem, std::vector<HeapItem>,
                      std::greater<HeapItem>>
      heap;

  const auto advance = [&](std::uint32_t p) -> bool {
    if (spill) {
      if (!cursors[p]) return false;
      return cursors[p]->next(head[p]);
    }
    auto& dossiers = parts[p].dossiers;
    if (next_index[p] >= dossiers.size()) return false;
    head[p] = std::move(dossiers[next_index[p]++]);
    return true;
  };

  for (std::uint32_t p = 0; p < partitions; ++p) {
    if (spill) {
      if (parts[p].spool_path.empty() || parts[p].dossier_count == 0) {
        continue;
      }
      cursors[p] = std::make_unique<SpoolCursor>();
      if (!cursors[p]->open(parts[p].spool_path)) return false;
    }
    if (advance(p)) heap.emplace(head[p].mac.bits(), p);
  }
  while (!heap.empty()) {
    const std::uint32_t p = heap.top().second;
    heap.pop();
    analysis::DeviceDossier current = std::move(head[p]);
    const bool more = advance(p);
    sink.on_dossier(std::move(current));
    if (more) heap.emplace(head[p].mac.bits(), p);
  }
  if (spill) {
    for (std::uint32_t p = 0; p < partitions; ++p) {
      if (cursors[p] && !cursors[p]->ok()) return false;
    }
  }

  if (options_.telemetry != nullptr) {
    options_.telemetry->gauge("join.spill_bytes").set_u64(stats_.spill_bytes);
    options_.telemetry->gauge("join.spill_runs").set_u64(stats_.spill_runs);
    options_.telemetry->gauge("join.blocks_pruned")
        .set_u64(stats_.blocks_pruned);
    options_.telemetry->gauge("join.peak_partition_rows")
        .set_u64(stats_.peak_partition_rows);
    options_.telemetry->gauge("join.dossiers").set_u64(stats_.dossiers);
  }
  return true;
}

std::optional<analysis::DossierTable> DossierJoin::run_table() {
  analysis::DossierTable table;
  if (!run(table)) return std::nullopt;
  return table;
}

}  // namespace scent::join
