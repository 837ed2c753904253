#include "analysis/derive.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/inference.h"

namespace scent::analysis {

std::vector<unsigned> allocation_lengths(const AggregateTable& table) {
  std::vector<unsigned> out;
  out.reserve(table.devices.size());
  for (const auto& [mac, dev] : table.devices) {
    out.push_back(core::span_to_prefix_length(dev.target_lo, dev.target_hi));
  }
  return out;
}

std::optional<unsigned> allocation_median(const AggregateTable& table) {
  return core::median_of(allocation_lengths(table));
}

std::vector<unsigned> pool_lengths(const AggregateTable& table) {
  std::vector<unsigned> out;
  out.reserve(table.devices.size());
  for (const auto& [mac, dev] : table.devices) {
    out.push_back(
        core::span_to_prefix_length(dev.response_lo, dev.response_hi));
  }
  return out;
}

std::optional<unsigned> pool_median(const AggregateTable& table) {
  return core::median_of(pool_lengths(table));
}

std::optional<unsigned> allocation_length_for(const AggregateTable& table,
                                              net::MacAddress mac) {
  const auto it = table.devices.find(mac);
  if (it == table.devices.end()) return std::nullopt;
  return core::span_to_prefix_length(it->second.target_lo,
                                     it->second.target_hi);
}

std::optional<unsigned> pool_length_for(const AggregateTable& table,
                                        net::MacAddress mac) {
  const auto it = table.devices.find(mac);
  if (it == table.devices.end()) return std::nullopt;
  return core::span_to_prefix_length(it->second.response_lo,
                                     it->second.response_hi);
}

std::optional<net::Prefix> pool_for(const AggregateTable& table,
                                    net::MacAddress mac,
                                    unsigned pool_length) {
  const auto it = table.devices.find(mac);
  if (it == table.devices.end()) return std::nullopt;
  // Align the observed low end down to the pool size; if the observed high
  // end spills past that aligned block, widen to the next shorter aligned
  // prefix that covers both (RotationPoolInference::pool_for's loop).
  unsigned length = pool_length;
  for (;;) {
    const net::Prefix candidate{net::Ipv6Address{it->second.response_lo, 0},
                                length};
    if (candidate.contains(net::Ipv6Address{it->second.response_hi, 0})) {
      return candidate;
    }
    if (length == 0) return std::nullopt;
    --length;
  }
}

container::FlatMap<routing::Asn, unsigned> allocation_medians_by_as(
    const AggregateTable& table) {
  // Per-(device, AS) lengths, grouped by AS. The median is insensitive to
  // accumulation order, so grouping from the device table matches the
  // legacy row-by-row per-AS inference exactly.
  container::FlatMap<routing::Asn, std::vector<unsigned>> lengths_by_as;
  for (const auto& [mac, dev] : table.devices) {
    for (const PerAsSpan& span : dev.per_as) {
      lengths_by_as[span.asn].push_back(
          core::span_to_prefix_length(span.target_lo, span.target_hi));
    }
  }
  std::vector<routing::Asn> asns;
  asns.reserve(lengths_by_as.size());
  for (const auto& [asn, lengths] : lengths_by_as) asns.push_back(asn);
  std::sort(asns.begin(), asns.end());

  container::FlatMap<routing::Asn, unsigned> out;
  out.reserve(asns.size());
  for (const routing::Asn asn : asns) {
    out[asn] = *core::median_of(lengths_by_as[asn]);
  }
  return out;
}

std::vector<core::AsHomogeneity> homogeneity(const AggregateTable& table,
                                             const oui::Registry& registry,
                                             std::size_t min_iids) {
  // Counts are distinct-MAC counts per AS: each device carries at most one
  // PerAsSpan per AS, so one increment per (device, AS) reproduces the
  // legacy per-AS FlatSet sizes without any set at all.
  struct Acc {
    const routing::Advertisement* ad = nullptr;
    container::FlatMap<std::string, std::size_t> vendor_devices;
    std::size_t devices = 0;
  };
  container::FlatMap<routing::Asn, Acc> per_as;
  for (const auto& [mac, dev] : table.devices) {
    if (dev.per_as.empty()) continue;
    const auto vendor = registry.vendor(mac);
    const std::string vendor_name =
        vendor ? std::string{*vendor} : "(unknown)";
    for (const PerAsSpan& span : dev.per_as) {
      Acc& acc = per_as[span.asn];
      acc.ad = span.ad;
      ++acc.devices;
      ++acc.vendor_devices[vendor_name];
    }
  }

  std::vector<core::AsHomogeneity> out;
  out.reserve(per_as.size());
  for (const auto& [asn, acc] : per_as) {
    if (acc.devices < min_iids) continue;
    core::AsHomogeneity h;
    h.asn = asn;
    if (acc.ad != nullptr) h.country = acc.ad->country;
    h.unique_iids = acc.devices;
    h.vendors.reserve(acc.vendor_devices.size());
    for (const auto& [vendor, count] : acc.vendor_devices) {
      h.vendors.push_back(core::VendorCount{vendor, count});
    }
    std::sort(h.vendors.begin(), h.vendors.end(),
              [](const core::VendorCount& a, const core::VendorCount& b) {
                if (a.unique_iids != b.unique_iids) {
                  return a.unique_iids > b.unique_iids;
                }
                return a.vendor < b.vendor;
              });
    out.push_back(std::move(h));
  }
  std::sort(out.begin(), out.end(),
            [](const core::AsHomogeneity& a, const core::AsHomogeneity& b) {
              return a.asn < b.asn;
            });
  return out;
}

std::vector<core::MultiAsIid> multi_as_iids(
    const AggregateTable& table, const core::PathologyOptions& options) {
  std::vector<core::MultiAsIid> out;
  std::vector<std::int64_t> all_days;
  for (const auto& [mac, dev] : table.devices) {
    if (dev.per_as.size() < 2) continue;

    core::MultiAsIid entry;
    entry.mac = mac;
    entry.asns.reserve(dev.per_as.size());
    for (const PerAsSpan& span : dev.per_as) entry.asns.push_back(span.asn);
    std::sort(entry.asns.begin(), entry.asns.end());

    // A day is "concurrent" when it appears in >= 2 ASes' (distinct,
    // sorted) day lists: concatenate, sort, count runs of length >= 2.
    all_days.clear();
    for (const PerAsSpan& span : dev.per_as) {
      span.days.append_to(all_days);
    }
    std::sort(all_days.begin(), all_days.end());
    for (std::size_t i = 0; i < all_days.size();) {
      std::size_t j = i + 1;
      while (j < all_days.size() && all_days[j] == all_days[i]) ++j;
      if (j - i >= 2) ++entry.concurrent_days;
      i = j;
    }

    const bool default_mac =
        mac.bits() == 0 || mac.bits() == 0xffffffffffffULL;
    if (default_mac) {
      entry.kind = core::PathologyKind::kDefaultMac;
    } else if (entry.concurrent_days >= options.min_concurrent_days) {
      entry.kind = core::PathologyKind::kConcurrentReuse;
    } else if (entry.asns.size() == 2 && entry.concurrent_days == 0) {
      // Candidate provider switch: a clean temporal hand-off — one AS
      // strictly before some day, the other strictly after.
      const auto days_of = [&dev](routing::Asn asn) -> const DaySet& {
        for (const PerAsSpan& span : dev.per_as) {
          if (span.asn == asn) return span.days;
        }
        static const DaySet kEmpty;
        return kEmpty;
      };
      const DaySet& days_a = days_of(entry.asns[0]);
      const DaySet& days_b = days_of(entry.asns[1]);
      if (days_a.last() < days_b.first()) {
        entry.kind = core::PathologyKind::kProviderSwitch;
        entry.switch_from = entry.asns[0];
        entry.switch_to = entry.asns[1];
        entry.switch_day = days_b.first();
      } else if (days_b.last() < days_a.first()) {
        entry.kind = core::PathologyKind::kProviderSwitch;
        entry.switch_from = entry.asns[1];
        entry.switch_to = entry.asns[0];
        entry.switch_day = days_a.first();
      } else {
        entry.kind = core::PathologyKind::kMultiAsOther;
      }
    } else {
      entry.kind = core::PathologyKind::kMultiAsOther;
    }
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const core::MultiAsIid& a, const core::MultiAsIid& b) {
              return a.mac < b.mac;
            });
  return out;
}

std::vector<core::Sighting> sightings_of(const AggregateTable& table,
                                         net::MacAddress mac) {
  const auto it = table.devices.find(mac);
  if (it == table.devices.end()) return {};
  return it->second.sightings;
}

std::vector<std::uint64_t> networks_of(const AggregateTable& table,
                                       net::MacAddress mac) {
  const auto it = table.devices.find(mac);
  if (it == table.devices.end()) return {};
  container::FlatSet<std::uint64_t> networks;  // insertion-ordered
  for (const core::Sighting& sighting : it->second.sightings) {
    networks.insert(sighting.network);
  }
  return {networks.begin(), networks.end()};
}

core::DailyAsPresence presence_of(const AggregateTable& table,
                                  net::MacAddress mac) {
  core::DailyAsPresence presence;
  const auto it = table.devices.find(mac);
  if (it == table.devices.end()) return presence;
  for (const PerAsSpan& span : it->second.per_as) {
    for (const std::int64_t day : span.days.values()) {
      presence.days[day].insert(span.asn);
    }
  }
  return presence;
}

}  // namespace scent::analysis
