#include "join/join.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <queue>
#include <span>
#include <utility>

#include "container/flat_hash.h"
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

/// One partition's rows grouped by MAC without a comparison sort. The
/// corpus side names the groups: one pass counts each distinct key
/// (first-seen order) and notes each row's group, the distinct keys alone
/// are sorted — a partition holds far fewer MACs than rows — and a key's
/// rank in that order becomes its group. Prefix sums over the per-group
/// counts give every group its span, and an in-place cycle walk (American
/// flag sort) moves each row, with its noted rank, into its group's span.
/// The feed side is grouped against the same ranks, dropping rows whose
/// MAC the corpus never saw — they would join nothing. Rows keep no order
/// inside a group: make_dossier canonicalizes each side, so it cannot
/// show. One hash lookup per row; beside the rows, 4 B per row of ranks
/// and O(distinct keys). Reused across a shard's partitions.
class KeyGroups {
 public:
  /// Groups `rows` in place by key; keys() is then ascending and group g's
  /// rows are corpus(rows, g).
  void group_corpus(std::vector<corpus::KeyedRecord>& rows) {
    group_.clear();
    counts_.clear();
    ranks_.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto [entry, inserted] = group_.try_emplace(
          rows[i].key, static_cast<std::uint32_t>(counts_.size()));
      if (inserted) counts_.push_back(0);
      ++counts_[entry->second];
      ranks_[i] = entry->second;
    }
    // Sort the (key, first-seen group) pairs: a group's rank is its
    // position, and its count moves with it.
    order_.clear();
    for (const auto& [key, group] : group_) order_.emplace_back(key, group);
    std::sort(order_.begin(), order_.end());
    keys_.resize(order_.size());
    rank_of_.resize(order_.size());
    corpus_start_.resize(order_.size() + 1);
    corpus_start_[0] = 0;
    for (std::size_t r = 0; r < order_.size(); ++r) {
      keys_[r] = order_[r].first;
      rank_of_[order_[r].second] = static_cast<std::uint32_t>(r);
      corpus_start_[r + 1] = corpus_start_[r] + counts_[order_[r].second];
    }
    for (std::uint32_t& rank : ranks_) rank = rank_of_[rank];
    permute(rows, corpus_start_);
  }

  /// Keeps the feed rows whose key has a corpus group and groups them in
  /// place like the corpus side; group g's rows are then geo(rows, g).
  void group_geo(std::vector<corpus::KeyedRecord>& rows) {
    counts_.assign(keys_.size(), 0);
    ranks_.resize(rows.size());
    std::size_t kept = 0;
    for (const corpus::KeyedRecord& row : rows) {
      const auto entry = group_.find(row.key);
      if (entry == group_.end()) continue;
      const std::uint32_t rank = rank_of_[entry->second];
      ++counts_[rank];
      ranks_[kept] = rank;
      rows[kept++] = row;
    }
    rows.resize(kept);
    ranks_.resize(kept);
    geo_start_.resize(keys_.size() + 1);
    geo_start_[0] = 0;
    for (std::size_t r = 0; r < keys_.size(); ++r) {
      geo_start_[r + 1] = geo_start_[r] + counts_[r];
    }
    permute(rows, geo_start_);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] std::span<const corpus::KeyedRecord> corpus(
      const std::vector<corpus::KeyedRecord>& rows, std::size_t g) const {
    return std::span{rows}.subspan(corpus_start_[g],
                                   corpus_start_[g + 1] - corpus_start_[g]);
  }
  [[nodiscard]] std::span<const corpus::KeyedRecord> geo(
      const std::vector<corpus::KeyedRecord>& rows, std::size_t g) const {
    return std::span{rows}.subspan(geo_start_[g],
                                   geo_start_[g + 1] - geo_start_[g]);
  }

 private:
  /// Moves row i into [start[r], start[r + 1]) for r = ranks_[i]. Below
  /// next_[r] group r's span is final (and its ranks are never read
  /// again); the row in hand is swapped into its group's next free slot,
  /// taking up the displaced row and its rank, until one belongs where the
  /// walk stands.
  void permute(std::vector<corpus::KeyedRecord>& rows,
               const std::vector<std::size_t>& start) {
    next_.assign(start.begin(), start.end() - 1);
    for (std::size_t r = 0; r < next_.size(); ++r) {
      while (next_[r] < start[r + 1]) {
        const std::size_t at = next_[r]++;
        corpus::KeyedRecord row = rows[at];
        std::uint32_t rank = ranks_[at];
        while (rank != r) {
          const std::size_t to = next_[rank]++;
          std::swap(row, rows[to]);
          rank = ranks_[to];
        }
        rows[at] = row;
      }
    }
  }

  container::FlatMap<std::uint64_t, std::uint32_t> group_;  // first-seen
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order_;
  std::vector<std::uint32_t> rank_of_;  // first-seen group -> rank
  std::vector<std::size_t> counts_;
  std::vector<std::uint32_t> ranks_;    // per row
  std::vector<std::uint64_t> keys_;     // by rank, ascending
  std::vector<std::size_t> corpus_start_;
  std::vector<std::size_t> geo_start_;
  std::vector<std::size_t> next_;
};

/// Phase 2's per-shard span slots, allocated only with a registry and
/// folded into it in shard order once the shards have joined, as
/// analysis::scan_fused folds its shard slots.
struct MergeSpans {
  std::unique_ptr<telemetry::SpanStats> read;
  std::unique_ptr<telemetry::SpanStats> group;
  std::unique_ptr<telemetry::SpanStats> dossier;
  std::unique_ptr<telemetry::SpanStats> spool;
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

  // ---- Phase 2: partition-wise merge-join, shards own contiguous
  // partition ranges. Both sides are grouped by key with KeyGroups; the
  // order inside a group cannot show, because make_dossier sorts and
  // deduplicates each side on a total order of everything but the key. ----
  telemetry::Span merge_span{options_.registry, "join.merge"};
  std::vector<PartitionScratch> parts(partitions);
  std::vector<MergeSpans> merge_spans(threads);
  if (options_.registry != nullptr) {
    for (MergeSpans& spans : merge_spans) {
      spans.read = std::make_unique<telemetry::SpanStats>();
      spans.group = std::make_unique<telemetry::SpanStats>();
      spans.dossier = std::make_unique<telemetry::SpanStats>();
      spans.spool = std::make_unique<telemetry::SpanStats>();
    }
  }
  engine::run_shards(threads, [&](unsigned s) {
    const MergeSpans& spans = merge_spans[s];
    // Reused across the shard's partitions.
    std::vector<corpus::KeyedRecord> corpus_rows;
    std::vector<corpus::KeyedRecord> geo_rows;
    KeyGroups groups;
    const engine::RowRange mine = engine::shard_rows(partitions, threads, s);
    for (std::size_t p = mine.begin; p < mine.end; ++p) {
      PartitionScratch& part = parts[p];
      const auto partition = static_cast<std::uint32_t>(p);
      corpus_rows.clear();
      {
        const telemetry::Span span{spans.read.get(), "join.merge.read"};
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
      }
      if (!part.ok) continue;
      {
        const telemetry::Span span{spans.group.get(), "join.merge.group"};
        groups.group_corpus(corpus_rows);
      }

      // Geo rows: only the corpus key span matters, so spilled feed blocks
      // outside [lo, hi] are skipped via their stats — never decoded.
      geo_rows.clear();
      const std::vector<std::uint64_t>& keys = groups.keys();
      const std::uint64_t lo = keys.empty() ? 1 : keys.front();
      const std::uint64_t hi = keys.empty() ? 0 : keys.back();
      {
        const telemetry::Span span{spans.read.get(), "join.merge.read"};
        for (unsigned ss = 0; ss < threads && part.ok; ++ss) {
          if (!spill_cells[cell_index(kGeoSide, ss, partition)]) continue;
          corpus::KeyedRunReader reader;
          if (!reader.open(run_path(kGeoSide, ss, partition))) {
            part.ok = false;
            break;
          }
          if (keys.empty()) {
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
      }
      if (!part.ok) continue;
      part.rows = corpus_rows.size() + geo_rows.size();
      if (keys.empty()) continue;
      {
        const telemetry::Span span{spans.group.get(), "join.merge.group"};
        groups.group_geo(geo_rows);
      }

      SpoolWriter spool;
      part.spool_path =
          options_.spill_dir + "/dossiers-p" + std::to_string(p) + ".spool";
      {
        const telemetry::Span span{spans.spool.get(), "join.merge.spool"};
        if (!spool.open(part.spool_path)) {
          part.ok = false;
          continue;
        }
      }
      for (std::size_t g = 0; g < keys.size(); ++g) {
        analysis::DeviceDossier dossier;
        {
          const telemetry::Span span{spans.dossier.get(),
                                     "join.merge.dossier"};
          dossier = analysis::make_dossier(net::MacAddress{keys[g]},
                                           groups.corpus(corpus_rows, g),
                                           groups.geo(geo_rows, g));
        }
        ++part.dossier_count;
        if (!dossier.anchors.empty()) ++part.anchored;
        const telemetry::Span span{spans.spool.get(), "join.merge.spool"};
        spool.append(dossier);
      }
      const telemetry::Span span{spans.spool.get(), "join.merge.spool"};
      part.ok = spool.finish();
      part.spool_bytes = spool.bytes_written();
    }
  });

  if (options_.registry != nullptr) {
    for (const MergeSpans& spans : merge_spans) {
      options_.registry->span_child("join.merge.read").merge_from(*spans.read);
      options_.registry->span_child("join.merge.group")
          .merge_from(*spans.group);
      options_.registry->span_child("join.merge.dossier")
          .merge_from(*spans.dossier);
      options_.registry->span_child("join.merge.spool")
          .merge_from(*spans.spool);
    }
  }
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
