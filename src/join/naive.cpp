#include "join/naive.h"

#include <algorithm>
#include <span>
#include <utility>

#include "container/flat_hash.h"
#include "corpus/geo_feed.h"

namespace scent::join {

std::optional<analysis::DossierTable> naive_join(
    const NaiveJoinInputs& inputs) {
  // One hash probe per row; values are the matched row groups per MAC.
  struct MacRows {
    std::vector<corpus::KeyedRecord> corpus_rows;
    std::vector<corpus::KeyedRecord> geo_rows;
  };
  container::FlatMap<std::uint64_t, MacRows> by_mac;

  routing::AttributionCache cache;
  for (const CorpusDayFile& file : inputs.corpus_files) {
    const ScanResult result = scan_corpus_file(
        file, inputs.window, inputs.bgp, cache,
        [&](const corpus::KeyedRecord& rec) {
          by_mac[rec.key].corpus_rows.push_back(rec);
          return true;
        });
    if (result == ScanResult::kError) return std::nullopt;
  }
  for (const std::string& feed : inputs.geo_feeds) {
    corpus::GeoFeedReader reader;
    if (!reader.open(feed) ||
        !reader.for_each([&](const sim::GeoRecord& g) {
          const corpus::KeyedRecord rec = geo_to_record(g);
          // Left-outer: feed rows for MACs the corpus never saw join
          // nothing, but hashing them anyway keeps this a true hash join.
          by_mac[rec.key].geo_rows.push_back(rec);
        })) {
      return std::nullopt;
    }
  }

  std::vector<std::uint64_t> macs;
  macs.reserve(by_mac.size());
  for (const auto& [mac, rows] : by_mac) {
    if (!rows.corpus_rows.empty()) macs.push_back(mac);
  }
  std::sort(macs.begin(), macs.end());

  analysis::DossierTable table;
  for (const std::uint64_t mac : macs) {
    const MacRows& rows = by_mac[mac];
    table.on_dossier(analysis::make_dossier(net::MacAddress{mac},
                                            rows.corpus_rows, rows.geo_rows));
  }
  return table;
}

}  // namespace scent::join
