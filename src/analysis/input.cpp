#include "analysis/input.h"

#include <algorithm>

#include "corpus/snapshot.h"

namespace scent::analysis {

void AnalysisInput::prime_attribution(const routing::BgpTable& bgp,
                                      routing::AttributionCache& cache) const {
  scan(0, rows(), /*want_targets=*/false,
       [&](std::span<const net::Ipv6Address>,
           std::span<const net::Ipv6Address> responses,
           std::span<const sim::TimePoint>) {
         for (const net::Ipv6Address response : responses) {
           (void)bgp.attribute(response, cache);
         }
       });
}

void StoreInput::scan(std::size_t begin, std::size_t end, bool want_targets,
                      const BlockFn& fn) const {
  if (begin >= end) return;
  const std::size_t lo = first_ + begin;
  const std::size_t count = end - begin;
  fn(want_targets ? store_->target_column().subspan(lo, count)
                  : std::span<const net::Ipv6Address>{},
     store_->response_column().subspan(lo, count),
     store_->time_column().subspan(lo, count));
}

void StoreInput::prime_attribution(const routing::BgpTable& bgp,
                                   routing::AttributionCache& cache) const {
  // The store keeps exactly the distinct responses; a sub-range input
  // primes the whole store's set, which only over-fills the cache
  // (harmless — shards read it by /64 key).
  for (const net::Ipv6Address response : store_->distinct_responses()) {
    (void)bgp.attribute(response, cache);
  }
}

ChainInput::ChainInput(std::vector<std::string> paths) {
  files_.reserve(paths.size());
  for (std::string& path : paths) {
    corpus::SnapshotReader reader;
    if (!reader.open(path)) {
      ++failed_open_;
      continue;
    }
    files_.push_back(File{std::move(path), rows_, reader.rows()});
    rows_ += files_.back().rows;
  }
  if (!files_.empty()) {
    read_failed_ = std::make_unique<std::atomic<bool>[]>(files_.size());
    for (std::size_t i = 0; i < files_.size(); ++i) {
      read_failed_[i].store(false, std::memory_order_relaxed);
    }
  }
}

void ChainInput::scan(std::size_t begin, std::size_t end, bool want_targets,
                      const BlockFn& fn) const {
  if (begin >= end) return;
  // Columns re-read per scan call: each shard owns its own reader and
  // buffers, so concurrent scans share nothing. Only files straddling a
  // shard boundary are read twice. Reads are row-window reads: a file
  // decodes (and CRC-verifies) only the blocks overlapping [begin, end),
  // counting the rest into blocks_skipped().
  std::vector<net::Ipv6Address> targets;
  std::vector<net::Ipv6Address> responses;
  std::vector<sim::TimePoint> times;
  for (std::size_t f = 0; f < files_.size(); ++f) {
    const File& file = files_[f];
    const std::size_t file_end = file.first_row + file.rows;
    if (file_end <= begin) continue;
    if (file.first_row >= end) break;

    const std::size_t lo = std::max(begin, file.first_row) - file.first_row;
    const std::size_t hi = std::min(end, file_end) - file.first_row;
    corpus::SnapshotReader reader;
    // Failure granularity follows the integrity unit: structural damage
    // (header, block directories) fails open() for every shard — the file
    // contributes no rows at any thread count. A payload flip is only
    // seen by shards whose windows overlap the damaged block; each drops
    // its whole window for this file (rows-visited may then differ by
    // shard layout — the price of not re-reading clean blocks to verify
    // ones no shard was asked for). Either way the file counts failed.
    const bool ok = reader.open(file.path) &&
                    reader.read_responses(responses, lo, hi - lo) &&
                    reader.read_times(times, lo, hi - lo) &&
                    (!want_targets || reader.read_targets(targets, lo, hi - lo));
    blocks_read_.fetch_add(reader.blocks_read(), std::memory_order_relaxed);
    blocks_skipped_.fetch_add(reader.blocks_skipped(),
                              std::memory_order_relaxed);
    // The size check guards against a file that shrank since construction
    // (range reads clamp rather than fail).
    if (!ok || responses.size() != hi - lo) {
      read_failed_[f].store(true, std::memory_order_relaxed);
      continue;
    }

    fn(want_targets ? std::span<const net::Ipv6Address>{targets}
                    : std::span<const net::Ipv6Address>{},
       std::span<const net::Ipv6Address>{responses},
       std::span<const sim::TimePoint>{times});
  }
}

std::size_t ChainInput::failed_files() const noexcept {
  std::size_t failed = failed_open_;
  for (std::size_t f = 0; f < files_.size(); ++f) {
    if (read_failed_[f].load(std::memory_order_relaxed)) ++failed;
  }
  return failed;
}

}  // namespace scent::analysis
