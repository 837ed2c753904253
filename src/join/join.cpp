#include "join/join.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <queue>
#include <span>
#include <utility>

#include "corpus/geo_feed.h"
#include "engine/parallel.h"
#include "join/spool.h"
#include "telemetry/span.h"

namespace scent::join {
namespace {

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

// ---------------------------------------------------------------------------
// Partition cells: one lazily opened spill-run writer per (side, shard,
// partition); cells are touched only by their owning shard, so the scan
// needs no locks.

constexpr unsigned kCorpusSide = 0;
constexpr unsigned kGeoSide = 1;

struct PartitionScratch {
  std::string spool_path;
  std::uint64_t spool_bytes = 0;
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

  stats_ = JoinStats{};
  stats_.threads = threads;
  stats_.partitions = partitions;
  stats_.corpus_files = corpus_files_.size();

  if (options_.spill_dir.empty()) return false;
  std::error_code ec;
  std::filesystem::create_directories(options_.spill_dir, ec);
  if (!std::filesystem::is_directory(options_.spill_dir)) return false;

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
  telemetry::Span partition_span{options_.registry, "join.partition"};
  std::vector<std::unique_ptr<corpus::KeyedRunWriter>> spill_cells(
      std::size_t{2} * threads * partitions);
  // One block-encoding buffer per shard: a shard's cells flush one at a
  // time, and so do all cells in the serial finish below.
  std::vector<std::vector<unsigned char>> spill_scratch(threads);
  std::vector<ShardScan> scans(threads);

  engine::run_shards(threads, [&](unsigned s) {
    ShardScan& scan = scans[s];
    // False once any spill run of this shard failed to open: the corpus
    // scan stops at that record and the feed scan at the end of its block,
    // and the writer that never opened is dropped, so it counts in neither
    // spill_runs nor spill_bytes.
    const auto deposit = [&](unsigned side, const corpus::KeyedRecord& rec) {
      if (!scan.ok) return false;
      const std::uint32_t partition = partition_of(rec.key, partition_bits);
      auto& writer = spill_cells[cell_index(side, s, partition)];
      if (!writer) {
        auto opened = std::make_unique<corpus::KeyedRunWriter>(
            spill_scratch[s], options_.spill_block_elements);
        if (!opened->open(run_path(side, s, partition))) {
          scan.ok = false;
          return false;
        }
        writer = std::move(opened);
      }
      writer->append(rec);
      return true;
    };

    routing::AttributionCache cache;
    const engine::RowRange files =
        engine::shard_rows(corpus_files_.size(), threads, s);
    for (std::size_t i = files.begin; i < files.end && scan.ok; ++i) {
      switch (scan_corpus_file(corpus_files_[i], options_.window,
                               options_.bgp, cache,
                               [&](const corpus::KeyedRecord& rec) {
                                 if (!deposit(kCorpusSide, rec)) return false;
                                 ++scan.corpus_rows;
                                 return true;
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
      for (std::size_t b = blocks.begin; b < blocks.end && scan.ok; ++b) {
        if (!reader.for_each_block_range(b, 1, [&](const sim::GeoRecord& g) {
              if (deposit(kGeoSide, geo_to_record(g))) ++scan.geo_rows;
            })) {
          scan.ok = false;
        }
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
  for (auto& writer : spill_cells) {
    if (!writer) continue;
    ok = writer->finish() && ok;
    stats_.spill_bytes += writer->bytes_written();
    ++stats_.spill_runs;
  }
  partition_span.stop();
  if (!ok) return false;

  // ---- Phase 2: partition-wise sorted merge-join, shards own contiguous
  // partition ranges. Both sides sort by key alone: the order inside a key
  // group cannot show, because make_dossier sorts and deduplicates each
  // side on a total order of everything but the key. ----
  telemetry::Span merge_span{options_.registry, "join.merge"};
  std::vector<PartitionScratch> parts(partitions);
  const auto by_key = [](const corpus::KeyedRecord& a,
                         const corpus::KeyedRecord& b) {
    return a.key < b.key;
  };
  engine::run_shards(threads, [&](unsigned s) {
    // Reused across the shard's partitions.
    std::vector<corpus::KeyedRecord> corpus_rows;
    std::vector<corpus::KeyedRecord> geo_rows;
    const engine::RowRange mine = engine::shard_rows(partitions, threads, s);
    for (std::size_t p = mine.begin; p < mine.end; ++p) {
      PartitionScratch& part = parts[p];
      const auto partition = static_cast<std::uint32_t>(p);
      corpus_rows.clear();
      for (unsigned ss = 0; ss < threads && part.ok; ++ss) {
        if (!spill_cells[cell_index(kCorpusSide, ss, partition)]) continue;
        corpus::KeyedRunReader reader;
        if (!reader.open(run_path(kCorpusSide, ss, partition)) ||
            !reader.for_each([&](const corpus::KeyedRecord& rec) {
              corpus_rows.push_back(rec);
            })) {
          part.ok = false;
          break;
        }
        part.blocks_read += reader.blocks_read();
      }
      if (!part.ok) continue;
      std::sort(corpus_rows.begin(), corpus_rows.end(), by_key);

      // Geo rows: only the corpus key span matters, so spilled feed blocks
      // outside [lo, hi] are skipped via their stats — never decoded.
      geo_rows.clear();
      const std::uint64_t lo =
          corpus_rows.empty() ? 1 : corpus_rows.front().key;
      const std::uint64_t hi = corpus_rows.empty() ? 0 : corpus_rows.back().key;
      for (unsigned ss = 0; ss < threads && part.ok; ++ss) {
        if (!spill_cells[cell_index(kGeoSide, ss, partition)]) continue;
        corpus::KeyedRunReader reader;
        if (!reader.open(run_path(kGeoSide, ss, partition))) {
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
      }
      if (!part.ok) continue;
      std::sort(geo_rows.begin(), geo_rows.end(), by_key);
      part.rows = corpus_rows.size() + geo_rows.size();

      if (corpus_rows.empty()) continue;
      SpoolWriter spool;
      part.spool_path =
          options_.spill_dir + "/dossiers-p" + std::to_string(p) + ".spool";
      if (!spool.open(part.spool_path)) {
        part.ok = false;
        continue;
      }

      std::size_t gi = 0;
      for (std::size_t i = 0; i < corpus_rows.size();) {
        const std::uint64_t key = corpus_rows[i].key;
        std::size_t j = i;
        while (j < corpus_rows.size() && corpus_rows[j].key == key) ++j;
        while (gi < geo_rows.size() && geo_rows[gi].key < key) ++gi;
        std::size_t gj = gi;
        while (gj < geo_rows.size() && geo_rows[gj].key == key) ++gj;
        const analysis::DeviceDossier dossier = analysis::make_dossier(
            net::MacAddress{key},
            std::span<const corpus::KeyedRecord>(corpus_rows).subspan(i,
                                                                      j - i),
            std::span<const corpus::KeyedRecord>(geo_rows).subspan(gi,
                                                                   gj - gi));
        ++part.dossier_count;
        if (!dossier.anchors.empty()) ++part.anchored;
        spool.append(dossier);
        i = j;
        gi = gj;
      }
      part.ok = spool.finish();
      part.spool_bytes = spool.bytes_written();
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
  merge_span.stop();
  if (!ok) return false;

  // ---- Phase 3: P-way merge by MAC. Each MAC lives in exactly one
  // partition and each partition stream is MAC-ascending, so the heap
  // yields the globally ascending — and fan-out-independent — order. ----
  telemetry::Span emit_span{options_.registry, "join.emit"};
  std::vector<std::unique_ptr<SpoolCursor>> cursors(partitions);
  std::vector<analysis::DeviceDossier> head(partitions);
  using HeapItem = std::pair<std::uint64_t, std::uint32_t>;  // (mac, p)
  std::priority_queue<HeapItem, std::vector<HeapItem>,
                      std::greater<HeapItem>>
      heap;

  for (std::uint32_t p = 0; p < partitions; ++p) {
    if (parts[p].dossier_count == 0) continue;
    cursors[p] = std::make_unique<SpoolCursor>();
    if (!cursors[p]->open(parts[p].spool_path)) return false;
    if (cursors[p]->next(head[p])) heap.emplace(head[p].mac.bits(), p);
  }
  while (!heap.empty()) {
    const std::uint32_t p = heap.top().second;
    heap.pop();
    analysis::DeviceDossier current = std::move(head[p]);
    const bool more = cursors[p]->next(head[p]);
    sink.on_dossier(std::move(current));
    if (more) heap.emplace(head[p].mac.bits(), p);
  }
  for (const auto& cursor : cursors) {
    if (cursor && !cursor->ok()) return false;
  }

  if (options_.registry != nullptr) {
    options_.registry->gauge("join.spill_bytes").set_u64(stats_.spill_bytes);
    options_.registry->gauge("join.spill_runs").set_u64(stats_.spill_runs);
    options_.registry->gauge("join.blocks_pruned")
        .set_u64(stats_.blocks_pruned);
    options_.registry->gauge("join.peak_partition_rows")
        .set_u64(stats_.peak_partition_rows);
    options_.registry->gauge("join.dossiers").set_u64(stats_.dossiers);
  }
  return true;
}

std::optional<analysis::DossierTable> DossierJoin::run_table() {
  analysis::DossierTable table;
  if (!run(table)) return std::nullopt;
  return table;
}

}  // namespace scent::join
