// join.h - partitioned, parallel, out-of-core merge-join over MAC keys.
//
// The cross-dataset engine (DESIGN.md §5l): joins the rotation corpus
// (snapshot chains, keyed by the MAC each EUI-64 response leaks) against
// the MAC-keyed geolocation feed (corpus/geo_feed.h), emitting one device
// dossier per corpus MAC — rotation history, vendor-resolvable MAC, and
// the feed's geo anchors — through analysis/dossier.h.
//
// Three phases:
//
//   1. Partition. Both sides are radix-partitioned by MAC (source.h's
//      partition_of) into P disjoint partitions. Input scanning shards
//      over corpus files and feed blocks; with a spill directory, every
//      (side, shard, partition) cell streams through a KeyedRunWriter, so
//      scan memory is O(open block buffers) and a 100M-row side never
//      materializes. Without one, cells are in-memory vectors (small
//      worlds, tests).
//
//   2. Partition-wise merge-join, one shard per thread, shard s owning
//      the contiguous partition range shard_rows(P, T, s). A partition's
//      corpus rows are loaded (runs concatenated in shard order = serial
//      input order), stably sorted by MAC, and its key span [lo, hi]
//      drives the geo side: geo runs are read with for_each_overlapping,
//      so every feed block whose stats miss the corpus span is skipped
//      undecoded — partition pruning rides the §5j block-stat contract
//      for free. Matched groups go through analysis::make_dossier (the
//      shared semantics — see naive.h) and land in a per-partition spool.
//
//   3. Canonical emission. Each MAC lives in exactly one partition and
//      each partition's dossier stream is MAC-ascending, so a P-way heap
//      merge emits the globally MAC-ascending dossier stream. The result
//      is bit-identical at any thread count AND any partition fan-out —
//      the §5d merge-order contract extended from shards to partitions.
//
// Peak memory is bounded by the largest single partition plus O(P) block
// buffers, never by input size; JoinStats reports the spill and pruning
// telemetry the bench guards assert.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dossier.h"
#include "join/source.h"
#include "routing/bgp_table.h"
#include "telemetry/metrics.h"

namespace scent::join {

struct JoinOptions {
  /// Worker threads (0 = hardware concurrency) — the
  /// engine::resolve_threads contract.
  unsigned threads = 1;

  /// Partition fan-out; rounded up to a power of two, minimum 1. More
  /// partitions = smaller working set per merge step and more spill files.
  unsigned partitions = 16;

  /// When set, partitions spill to KeyedRun files and dossiers to
  /// per-partition spools under this directory (created if absent), and
  /// peak memory is bounded by one partition. When empty, everything stays
  /// in memory.
  std::string spill_dir;

  /// Records per spill-run block. Pruning granularity: a geo block is
  /// skipped only when its whole key range misses the corpus span, so
  /// smaller blocks prune more precisely (and tests pin this low to make
  /// pruning observable on small fixtures).
  std::size_t spill_block_elements = corpus::kKeyedRunBlockElements;

  /// Optional corpus day window; files wholly outside are pruned unopened
  /// (or undecoded, via v2 time stats). The feed side is never windowed.
  DayWindow window;

  /// Attribution table for sighting ASNs (nullptr = all sightings asn 0).
  const routing::BgpTable* bgp = nullptr;

  /// Optional telemetry: run() publishes join.* gauges here.
  telemetry::Registry* telemetry = nullptr;
};

struct JoinStats {
  unsigned threads = 1;
  unsigned partitions = 1;
  std::uint64_t corpus_files = 0;
  std::uint64_t corpus_files_pruned = 0;  ///< Day-window file prunes.
  std::uint64_t corpus_rows = 0;
  std::uint64_t geo_rows = 0;
  std::uint64_t spill_runs = 0;
  std::uint64_t spill_bytes = 0;          ///< Run + spool bytes written.
  std::uint64_t blocks_read = 0;          ///< Spill-run blocks decoded.
  std::uint64_t blocks_pruned = 0;        ///< Spill-run blocks skipped.
  std::uint64_t peak_partition_rows = 0;  ///< Largest partition, both sides.
  std::uint64_t dossiers = 0;
  std::uint64_t anchored = 0;             ///< Dossiers with >= 1 geo anchor.
};

/// The partitioned join engine. Configure inputs, then run() once.
class DossierJoin {
 public:
  explicit DossierJoin(JoinOptions options);

  /// Registers one corpus snapshot with its day index. Files are scanned
  /// in registration order — the canonical serial order the merge contract
  /// is defined against.
  void add_corpus_day(const std::string& path, std::int64_t day);

  /// Registers a geo feed file (corpus/geo_feed.h format).
  void add_geo_feed(const std::string& path);

  /// Runs the join, emitting dossiers to `sink` in ascending MAC order.
  /// False on any input, spill-I/O or decode failure (the sink may have
  /// received a partial prefix). Single-shot: a second call fails.
  [[nodiscard]] bool run(analysis::DossierSink& sink);

  /// Convenience: run into a fresh table. nullopt on failure.
  [[nodiscard]] std::optional<analysis::DossierTable> run_table();

  /// Valid after run() (partial if run() failed).
  [[nodiscard]] const JoinStats& stats() const noexcept { return stats_; }

 private:
  JoinOptions options_;
  std::vector<CorpusDayFile> corpus_files_;
  std::vector<std::string> geo_feeds_;
  JoinStats stats_;
  bool ran_ = false;
};

}  // namespace scent::join
