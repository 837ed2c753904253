#include "analysis/accumulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "analysis/engine.h"
#include "netbase/eui64.h"
#include "sim/sim_time.h"

namespace scent::analysis {
namespace {

/// MAC bits never exceed 48 bits, so all-ones marks "classified, not
/// EUI-64".
constexpr std::uint64_t kNonEui = ~0ULL;

void note_day(DeviceAggregate& dev, std::int64_t day) {
  if (day < dev.first_day) {
    dev.day_bits = rebase_day_bits(dev.day_bits, dev.first_day - day);
    dev.first_day = day;
  }
  if (day > dev.last_day) dev.last_day = day;
  const std::int64_t offset = day - dev.first_day;
  dev.day_bits |= 1ULL << (offset < 63 ? offset : 63);
}

void merge_span(PerAsSpan& dst, PerAsSpan&& src) {
  dst.target_lo = std::min(dst.target_lo, src.target_lo);
  dst.target_hi = std::max(dst.target_hi, src.target_hi);
  dst.response_lo = std::min(dst.response_lo, src.response_lo);
  dst.response_hi = std::max(dst.response_hi, src.response_hi);
  dst.observations += src.observations;
  dst.days.merge(src.days);
}

/// Folds a later shard's view of one device into an earlier shard's. Every
/// field is a pure function of the row set (plus first-occurrence order,
/// which the shard order preserves), so the result equals a serial pass.
/// per_as is not touched here: during the scan the spans live in the
/// ScanDevice wrapper, merged by merge_scan_device below.
void merge_device(DeviceAggregate& dst, DeviceAggregate&& src) {
  dst.target_lo = std::min(dst.target_lo, src.target_lo);
  dst.target_hi = std::max(dst.target_hi, src.target_hi);
  dst.response_lo = std::min(dst.response_lo, src.response_lo);
  dst.response_hi = std::max(dst.response_hi, src.response_hi);
  dst.observations += src.observations;

  if (src.first_day < dst.first_day) {
    dst.day_bits =
        rebase_day_bits(dst.day_bits, dst.first_day - src.first_day);
    dst.first_day = src.first_day;
  }
  dst.day_bits |= rebase_day_bits(src.day_bits, src.first_day - dst.first_day);
  dst.last_day = std::max(dst.last_day, src.last_day);

  if (!src.sightings.empty()) {
    // The later shard's rows follow the earlier shard's, so concatenation
    // in shard order is row order; only the boundary pair can be a
    // consecutive duplicate (both lists are already collapsed).
    std::size_t from = 0;
    if (!dst.sightings.empty() &&
        dst.sightings.back().day == src.sightings.front().day &&
        dst.sightings.back().network == src.sightings.front().network) {
      from = 1;
    }
    dst.sightings.insert(dst.sightings.end(), src.sightings.begin() + from,
                         src.sightings.end());
  }
}

/// Folds a later shard's spans into an earlier shard's, preserving
/// first-attribution order: dst's spans (in dst order) precede src spans
/// dst never saw (in src order) — exactly the order a serial scan's
/// per-device upsert produces, since dst's rows all precede src's.
void merge_scan_device(ScanDevice& dst, ScanDevice&& src) {
  merge_device(dst.dev, std::move(src.dev));
  const auto fold = [&dst](PerAsSpan&& span) {
    if (span.ad == nullptr) return;
    if (dst.first_span.ad == nullptr) {
      dst.first_span = std::move(span);
      return;
    }
    if (dst.first_span.asn == span.asn) {
      merge_span(dst.first_span, std::move(span));
      return;
    }
    for (PerAsSpan& candidate : dst.overflow) {
      if (candidate.asn == span.asn) {
        merge_span(candidate, std::move(span));
        return;
      }
    }
    dst.overflow.push_back(std::move(span));
  };
  fold(std::move(src.first_span));
  for (PerAsSpan& span : src.overflow) fold(std::move(span));
}

void build_rollups(AggregateTable& table) {
  container::FlatMap<routing::Asn, std::size_t> index;
  std::vector<AsRollup> rollups;
  for (const auto& [mac, dev] : table.devices) {
    for (const PerAsSpan& span : dev.per_as) {
      const auto [entry, fresh] = index.try_emplace(span.asn, rollups.size());
      if (fresh) {
        AsRollup rollup;
        rollup.asn = span.asn;
        if (span.ad != nullptr) {
          rollup.country = span.ad->country;
          rollup.as_name = span.ad->as_name;
        }
        rollups.push_back(std::move(rollup));
      }
      AsRollup& rollup = rollups[entry->second];
      rollup.devices += 1;
      rollup.observations += span.observations;
    }
  }
  std::sort(rollups.begin(), rollups.end(),
            [](const AsRollup& a, const AsRollup& b) { return a.asn < b.asn; });
  table.as_rollups = std::move(rollups);
}

}  // namespace

Accumulator::Accumulator(const AnalysisOptions* options,
                         const routing::BgpTable* bgp,
                         const routing::AttributionCache* shared_cache)
    : options_(options),
      bgp_(options->attribute ? bgp : nullptr),
      shared_cache_(shared_cache) {}

void Accumulator::accumulate(std::span<const net::Ipv6Address> targets,
                             std::span<const net::Ipv6Address> responses,
                             std::span<const sim::TimePoint> times) {
  const AnalysisOptions& options = *options_;
  AggregateTable& table = table_;
  table.rows_scanned += responses.size();

  for (std::size_t i = 0; i < responses.size(); ++i) {
    const net::Ipv6Address response = responses[i];

    // Classify inline: embedded_mac is a handful of bit tests, cheaper
    // than any per-response memo on corpora where responses rarely repeat
    // (the paper's days are ~110M unique addresses).
    std::uint64_t mac_bits = kNonEui;
    if (const auto mac = net::embedded_mac(response)) {
      mac_bits = mac->bits();
    }

    if (mac_bits == kNonEui) continue;
    ++table.eui_rows;
    const net::MacAddress mac{mac_bits};

    ScanDevice& scan_dev = devices_[mac];
    DeviceAggregate& dev = scan_dev.dev;
    const std::int64_t day = sim::day_of(times[i]);
    const std::uint64_t response_net = response.network();

    if (dev.observations == 0) {
      dev.oui = static_cast<std::uint32_t>(mac_bits >> 24);
      dev.first_day = dev.last_day = day;
      dev.response_lo = dev.response_hi = response_net;
      if (options.collect_targets) {
        const std::uint64_t target_net = targets[i].network();
        dev.target_lo = dev.target_hi = target_net;
      }
    } else {
      dev.response_lo = std::min(dev.response_lo, response_net);
      dev.response_hi = std::max(dev.response_hi, response_net);
      if (options.collect_targets) {
        const std::uint64_t target_net = targets[i].network();
        dev.target_lo = std::min(dev.target_lo, target_net);
        dev.target_hi = std::max(dev.target_hi, target_net);
      }
    }
    ++dev.observations;
    note_day(dev, day);

    if (options.collect_sightings) {
      if (dev.sightings.empty() || dev.sightings.back().day != day ||
          dev.sightings.back().network != response_net) {
        dev.sightings.push_back(core::Sighting{day, response_net});
      }
    }

    if (bgp_ != nullptr) {
      // The device's first span doubles as an attribution memo: almost all
      // rows re-attribute a device to the AS it was first seen in, and the
      // span's ad sits in cache lines the device upsert just touched. The
      // revalidation is exact (covers_unshadowed), so a hit returns the
      // same pointer the cache or trie would; everything else falls back.
      const routing::Advertisement* ad;
      if (scan_dev.first_span.ad != nullptr &&
          bgp_->covers_unshadowed(scan_dev.first_span.ad, response)) {
        ad = scan_dev.first_span.ad;
      } else {
        ad = shared_cache_ != nullptr ? bgp_->attribute(response, *shared_cache_)
                                      : bgp_->attribute(response, lazy_cache_);
      }
      if (ad != nullptr) {
        PerAsSpan* span = nullptr;
        bool fresh = false;
        if (scan_dev.first_span.ad == nullptr) {
          span = &scan_dev.first_span;
          fresh = true;
        } else if (scan_dev.first_span.asn == ad->origin_asn) {
          span = &scan_dev.first_span;
        } else {
          for (PerAsSpan& candidate : scan_dev.overflow) {
            if (candidate.asn == ad->origin_asn) {
              span = &candidate;
              break;
            }
          }
          if (span == nullptr) {
            scan_dev.overflow.push_back(PerAsSpan{});
            span = &scan_dev.overflow.back();
            fresh = true;
          }
        }
        if (fresh) {
          span->ad = ad;
          span->asn = ad->origin_asn;
          span->response_lo = span->response_hi = response_net;
          if (options.collect_targets) {
            const std::uint64_t target_net = targets[i].network();
            span->target_lo = span->target_hi = target_net;
          }
        } else {
          span->response_lo = std::min(span->response_lo, response_net);
          span->response_hi = std::max(span->response_hi, response_net);
          if (options.collect_targets) {
            const std::uint64_t target_net = targets[i].network();
            span->target_lo = std::min(span->target_lo, target_net);
            span->target_hi = std::max(span->target_hi, target_net);
          }
        }
        ++span->observations;
        span->days.note(day);
      }
    }
  }
}

void Accumulator::merge_from(Accumulator&& later) {
  table_.rows_scanned += later.table_.rows_scanned;
  table_.eui_rows += later.table_.eui_rows;
  for (auto& [mac, scan_dev] : later.devices_) {
    const auto [entry, fresh] = devices_.try_emplace(mac);
    if (fresh) {
      entry->second = std::move(scan_dev);
    } else {
      merge_scan_device(entry->second, std::move(scan_dev));
    }
  }
}

AggregateTable Accumulator::finish() && {
  // Unwrap the scan records into the public table: insertion order is MAC
  // first-sighting order, and first_span + overflow concatenate into
  // per_as in first-attribution order — both identical to a serial pass.
  AggregateTable out = std::move(table_);
  out.devices.reserve(devices_.size());
  for (auto& [mac, scan_dev] : devices_) {
    const auto [entry, fresh] = out.devices.try_emplace(mac);
    assert(fresh);
    (void)fresh;
    DeviceAggregate& dev = entry->second;
    dev = std::move(scan_dev.dev);
    if (scan_dev.first_span.ad != nullptr) {
      dev.per_as.reserve(1 + scan_dev.overflow.size());
      dev.per_as.push_back(std::move(scan_dev.first_span));
      for (PerAsSpan& span : scan_dev.overflow) {
        dev.per_as.push_back(std::move(span));
      }
    }
  }
  if (bgp_ != nullptr) build_rollups(out);
  return out;
}

AggregateTable Accumulator::materialize() const {
  // The copying twin of finish(): same insertion order, same first_span +
  // overflow concatenation, same rollup build — so the produced table is
  // field-for-field what finish() would return — but the scan records stay
  // behind for the next delta to merge into.
  AggregateTable out = table_;
  out.devices.reserve(devices_.size());
  for (const auto& [mac, scan_dev] : devices_) {
    const auto [entry, fresh] = out.devices.try_emplace(mac);
    assert(fresh);
    (void)fresh;
    DeviceAggregate& dev = entry->second;
    dev = scan_dev.dev;
    if (scan_dev.first_span.ad != nullptr) {
      dev.per_as.reserve(1 + scan_dev.overflow.size());
      dev.per_as.push_back(scan_dev.first_span);
      for (const PerAsSpan& span : scan_dev.overflow) {
        dev.per_as.push_back(span);
      }
    }
  }
  if (bgp_ != nullptr) build_rollups(out);
  return out;
}

void note_table_metrics(const AggregateTable& table,
                        telemetry::Registry* registry) {
  if (registry == nullptr) return;
  registry->counter("analysis.passes").inc();
  registry->counter("analysis.rows_scanned").add(table.rows_scanned);
  registry->gauge("analysis.devices").set_u64(table.devices.size());
  registry->gauge("analysis.attributed_as").set_u64(table.as_rollups.size());
}

}  // namespace scent::analysis
