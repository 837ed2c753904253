// bench_table2_fig13_tracking - reproduces the §6 device-tracking case
// study: Table 2 and Figures 13a/13b.
//
// Paper: after a discovery scan, ten EUI-64 IIDs are chosen at random (no
// two from the same AS or country, multi-AS IIDs excluded) and tracked for
// a week using the inferred per-AS allocation size and per-device rotation
// pool; 9-10 of 10 are re-found every day (Fig 13a). A second set of ten
// IIDs that demonstrably rotate is tracked the same way: 6-8 of 10 found
// daily, and all ten have rotated by day 4 (Fig 13b). Table 2 reports probe
// costs: some devices found within hundreds of probes vs the ~2^32 a naive
// /64 sweep of their BGP prefix would need.
//
// Shape to reproduce: high daily recovery for random IIDs, slightly lower
// for forced rotators, rotation accumulating over the week, and mean probe
// counts orders of magnitude below the naive sweep.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>

#include "bench_util.h"
#include "core/inference.h"
#include "core/pathology.h"
#include "core/tracker.h"

namespace {

using namespace scent;

struct Candidate {
  net::MacAddress mac;
  routing::Asn asn = 0;
  std::string country;
  unsigned bgp_length = 32;
  bool rotated_in_discovery = false;
};

struct TrackRecord {
  Candidate candidate;
  std::vector<core::TrackAttempt> attempts;

  [[nodiscard]] std::size_t days_found() const {
    std::size_t n = 0;
    for (const auto& a : attempts) n += a.found ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::size_t distinct_prefixes() const {
    std::set<std::uint64_t> nets;
    for (const auto& a : attempts) {
      if (a.found) nets.insert(a.address.network());
    }
    return nets.size();
  }
  [[nodiscard]] double mean_probes() const {
    if (attempts.empty()) return 0;
    double sum = 0;
    for (const auto& a : attempts) sum += static_cast<double>(a.probes_sent);
    return sum / static_cast<double>(attempts.size());
  }
  [[nodiscard]] double stddev_probes() const {
    if (attempts.size() < 2) return 0;
    const double mean = mean_probes();
    double ss = 0;
    for (const auto& a : attempts) {
      const double d = static_cast<double>(a.probes_sent) - mean;
      ss += d * d;
    }
    return std::sqrt(ss / static_cast<double>(attempts.size()));
  }
};

}  // namespace

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  bench::banner("Table 2 / Figure 13 - the device-tracking case study",
                "random set: 9-10/10 found daily; rotating set: 6-8/10, all "
                "rotated by day 4; probe cost orders below naive 2^32");

  sim::PaperWorldOptions options;
  bench::Pipeline pipeline{options};

  // Discovery phase: a week of daily probing (stands in for the paper's
  // use of the long §5 campaign's inferences).
  const auto discovery = pipeline.campaign(/*days=*/7);
  const auto& bgp = pipeline.world.internet.bgp();

  // Exclusions: IIDs seen in multiple ASes (§5.5 pathologies).
  std::set<net::MacAddress> excluded;
  for (const auto& m : core::find_multi_as_iids(discovery.observations, bgp)) {
    excluded.insert(m.mac);
  }

  // Per-AS rotation pool medians; per-device pools.
  std::map<routing::Asn, core::RotationPoolInference> pool_inference;
  std::map<net::MacAddress, Candidate> candidates;
  for (const auto& obs : discovery.observations.all()) {
    const auto mac = net::embedded_mac(obs.response);
    if (!mac || excluded.contains(*mac)) continue;
    const auto attribution = bgp.lookup(obs.response);
    if (!attribution) continue;
    pool_inference[attribution->origin_asn].observe(obs.response);
    Candidate& c = candidates[*mac];
    c.mac = *mac;
    c.asn = attribution->origin_asn;
    c.country = attribution->country;
    c.bgp_length = attribution->bgp_prefix.length();
  }
  for (auto& [mac, c] : candidates) {
    c.rotated_in_discovery =
        discovery.observations.networks_of(mac).size() > 1;
  }

  std::map<routing::Asn, unsigned> as_pool_length;
  for (const auto& [asn, inference] : pool_inference) {
    as_pool_length[asn] = inference.median_length().value_or(64);
  }

  // Selection. Set A: random IIDs, no two sharing an AS or country.
  // Set B: IIDs that rotated during discovery (paper: "did exhibit prefix
  // rotation"), distinct ASes where possible.
  sim::Rng rng{0x13A};
  std::vector<Candidate> shuffled;
  shuffled.reserve(candidates.size());
  for (const auto& [mac, c] : candidates) shuffled.push_back(c);
  std::sort(shuffled.begin(), shuffled.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.mac < b.mac;
            });
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }

  std::vector<Candidate> set_a;
  {
    std::set<routing::Asn> used_as;
    std::set<std::string> used_cc;
    for (const auto& c : shuffled) {
      if (set_a.size() >= 10) break;
      if (used_as.contains(c.asn) || used_cc.contains(c.country)) continue;
      used_as.insert(c.asn);
      used_cc.insert(c.country);
      set_a.push_back(c);
    }
  }
  std::vector<Candidate> set_b;
  {
    std::set<routing::Asn> used_as;
    for (const auto& c : shuffled) {
      if (set_b.size() >= 10) break;
      if (!c.rotated_in_discovery) continue;
      if (used_as.contains(c.asn)) continue;
      used_as.insert(c.asn);
      set_b.push_back(c);
    }
    // Relax the distinct-AS constraint if the world has too few rotators.
    for (const auto& c : shuffled) {
      if (set_b.size() >= 10) break;
      if (!c.rotated_in_discovery) continue;
      if (std::none_of(set_b.begin(), set_b.end(), [&](const Candidate& x) {
            return x.mac == c.mac;
          })) {
        set_b.push_back(c);
      }
    }
  }
  std::printf("\ncandidates: %zu (excluded multi-AS: %zu); set A: %zu, "
              "set B (rotators): %zu\n",
              candidates.size(), excluded.size(), set_a.size(), set_b.size());

  // Tracking phase: one week, day-outer so every tracker lives through the
  // same advancing week on the shared clock.
  const auto track_set = [&](const std::vector<Candidate>& set,
                             std::uint64_t seed) {
    std::vector<TrackRecord> records;
    std::vector<core::Tracker> trackers;
    for (const auto& c : set) {
      core::TrackerConfig config;
      config.target_mac = c.mac;
      config.allocation_length =
          discovery.allocation_length_by_as.contains(c.asn)
              ? discovery.allocation_length_by_as.at(c.asn)
              : 56;
      const unsigned pool_len = as_pool_length.at(c.asn);
      const auto pool = pool_inference.at(c.asn).pool_for(c.mac, pool_len);
      if (!pool) continue;
      config.pool = *pool;
      config.seed = sim::mix64(seed, c.mac.bits());
      config.registry = &pipeline.registry;

      TrackRecord record;
      record.candidate = c;
      record.attempts.reserve(7);
      records.push_back(std::move(record));
      trackers.emplace_back(*pipeline.prober, config);
    }

    const std::int64_t start_day = sim::day_of(pipeline.clock.now()) + 1;
    for (std::int64_t day = start_day; day < start_day + 7; ++day) {
      pipeline.clock.advance_to(day * sim::kDay + sim::hours(12));
      for (std::size_t i = 0; i < trackers.size(); ++i) {
        records[i].attempts.push_back(trackers[i].locate(day));
      }
    }
    return records;
  };

  const auto records_a = track_set(set_a, 0xA);
  const auto records_b = track_set(set_b, 0xB);

  // ---- Table 2 (for the rotating set, like the paper).
  core::TextTable table{{"IID#", "Mean probes", "StdDev", "BGP", "ASN", "CC",
                         "#Days", "#/64s"}};
  for (std::size_t i = 0; i < records_b.size(); ++i) {
    const auto& r = records_b[i];
    char mean[32];
    char sd[32];
    std::snprintf(mean, sizeof mean, "%.1f", r.mean_probes());
    std::snprintf(sd, sizeof sd, "%.1f", r.stddev_probes());
    table.add_row({"#" + std::to_string(i + 1), mean, sd,
                   "/" + std::to_string(r.candidate.bgp_length),
                   std::to_string(r.candidate.asn), r.candidate.country,
                   std::to_string(r.days_found()),
                   std::to_string(r.distinct_prefixes())});
  }
  std::printf("\nTable 2 - tracked rotating EUI-64 IIDs over one week:\n");
  table.print(std::cout);

  // ---- Figure 13a/13b: per-day discovery counts.
  const auto daily_found = [](const std::vector<TrackRecord>& records,
                              std::size_t day) {
    std::size_t n = 0;
    for (const auto& r : records) {
      if (day < r.attempts.size() && r.attempts[day].found) ++n;
    }
    return n;
  };
  const auto daily_rotated = [](const std::vector<TrackRecord>& records,
                                std::size_t day) {
    // IIDs whose prefix has changed from their first-seen prefix by `day`.
    std::size_t n = 0;
    for (const auto& r : records) {
      std::set<std::uint64_t> nets;
      for (std::size_t d = 0; d <= day && d < r.attempts.size(); ++d) {
        if (r.attempts[d].found) nets.insert(r.attempts[d].address.network());
      }
      if (nets.size() > 1) ++n;
    }
    return n;
  };

  std::printf("\nFig 13a (random set)        Fig 13b (rotating set)\n");
  std::printf("day  found  rotated         day  found  rotated\n");
  std::size_t min_found_a = 10;
  std::size_t min_found_b = 10;
  for (std::size_t day = 0; day < 7; ++day) {
    const std::size_t fa = daily_found(records_a, day);
    const std::size_t fb = daily_found(records_b, day);
    min_found_a = std::min(min_found_a, fa);
    min_found_b = std::min(min_found_b, fb);
    std::printf("%3zu  %5zu  %7zu         %3zu  %5zu  %7zu\n", day, fa,
                daily_rotated(records_a, day), day, fb,
                daily_rotated(records_b, day));
  }

  // Probe-cost contrast vs the naive sweep (2^(64-32) /64s for a /32).
  double best_mean = 1e18;
  for (const auto& r : records_b) {
    if (r.days_found() > 0) best_mean = std::min(best_mean, r.mean_probes());
  }
  std::printf("\ncheapest rotating IID: %.0f probes/day on average vs ~4.3B "
              "for a naive per-/64 sweep of a /32 (paper IID#3: 379)\n",
              best_mean);

  const std::size_t rotated_b_final = daily_rotated(records_b, 6);
  const bool ok = records_a.size() >= 8 && records_b.size() >= 5 &&
                  min_found_a + 2 >= records_a.size() &&
                  2 * min_found_b >= records_b.size() &&
                  2 * rotated_b_final >= records_b.size() &&
                  best_mean < 100000;
  std::printf("\nshape check: setA_daily>=%zu/%zu:%s setB_found>=half:%s "
              "setB_rotates:%s cheap_tracking:%s\n",
              min_found_a, records_a.size(),
              min_found_a + 2 >= records_a.size() ? "yes" : "NO",
              2 * min_found_b >= records_b.size() ? "yes" : "NO",
              2 * rotated_b_final >= records_b.size() ? "yes" : "NO",
              best_mean < 100000 ? "yes" : "NO");

  pipeline.print_telemetry();
  return ok ? 0 : 1;
}
