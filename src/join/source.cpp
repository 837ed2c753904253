#include "join/source.h"

#include "corpus/snapshot.h"
#include "netbase/eui64.h"
#include "sim/sim_time.h"

namespace scent::join {

ScanResult scan_corpus_file(
    const CorpusDayFile& file, const DayWindow& window,
    const routing::BgpTable* bgp, routing::AttributionCache& cache,
    const std::function<bool(const corpus::KeyedRecord&)>& fn) {
  if (!window.contains(file.day)) return ScanResult::kPruned;
  corpus::SnapshotReader reader;
  if (!reader.open(file.path)) return ScanResult::kError;
  if (const auto range = reader.time_range()) {
    const std::int64_t lo = sim::day_of(range->first);
    const std::int64_t hi = sim::day_of(range->second);
    if ((window.first_day && hi < *window.first_day) ||
        (window.last_day && lo > *window.last_day)) {
      return ScanResult::kPruned;
    }
  }
  // The last advertisement found is the memo. covers_unshadowed revalidates
  // it exactly, so a hit is the pointer attribute() would return; it can
  // hit only while the memo's prefix is as long as the table's most
  // specific announcement. Everything else falls back to attribute().
  const routing::Advertisement* last = nullptr;
  const bool ok = reader.for_each_eui_pair(
      [&](net::Ipv6Address target, net::Ipv6Address response) {
        const auto mac = net::embedded_mac(response);
        if (!mac) return true;
        std::uint64_t asn = 0;
        if (bgp != nullptr) {
          if (last == nullptr || !bgp->covers_unshadowed(last, target)) {
            last = bgp->attribute(target, cache);
          }
          if (last != nullptr) asn = last->origin_asn;
        }
        return fn(corpus::KeyedRecord{
            .key = mac->bits(),
            .c0 = target.network(),
            .c1 = asn,
            .c2 = static_cast<std::uint64_t>(file.day)});
      });
  return ok ? ScanResult::kScanned : ScanResult::kError;
}

}  // namespace scent::join
