#include "core/bootstrap.h"

#include <algorithm>
#include <map>

#include "analysis/engine.h"
#include "container/flat_hash.h"
#include "core/sweep_ingest.h"
#include "engine/sweep.h"
#include "netbase/eui64.h"
#include "probe/target_generator.h"
#include "probe/traceroute.h"
#include "sim/rng.h"
#include "telemetry/span.h"

namespace scent::core {
namespace {

/// Low-density cut: unique EUI responders <= threshold (paper §4.2: 2 of
/// 256 probes, i.e. density < 0.01).
constexpr std::uint64_t kDensityLowThreshold = 2;
/// Gap between the two rotation-detection snapshots (paper §4.3: 24 h).
constexpr sim::Duration kSnapshotGap = sim::kDay;
/// Hop limit for traceroute-mode seeding (stage 0's CAIDA-style traceroute
/// campaign records the last responsive hop within it).
constexpr unsigned kTracerouteMaxHops = 12;

/// Deduplicates and sorts a prefix list.
std::vector<net::Prefix> sorted_unique(std::vector<net::Prefix> prefixes) {
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                 prefixes.end());
  return prefixes;
}

std::vector<RotatorGroup> group_rotators(
    const std::vector<net::Prefix>& rotating_48s,
    const routing::BgpTable& bgp, bool by_country) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& prefix : rotating_48s) {
    const auto attribution = bgp.lookup(prefix.base());
    if (!attribution) continue;
    const std::string key = by_country
                                ? attribution->country
                                : std::to_string(attribution->origin_asn);
    ++counts[key];
  }
  std::vector<RotatorGroup> out;
  out.reserve(counts.size());
  for (const auto& [key, count] : counts) out.push_back({key, count});
  std::sort(out.begin(), out.end(),
            [](const RotatorGroup& a, const RotatorGroup& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  return out;
}

}  // namespace

std::vector<RotatorGroup> rotators_by_asn(
    const std::vector<net::Prefix>& rotating_48s,
    const routing::BgpTable& bgp) {
  return group_rotators(rotating_48s, bgp, /*by_country=*/false);
}

std::vector<RotatorGroup> rotators_by_country(
    const std::vector<net::Prefix>& rotating_48s,
    const routing::BgpTable& bgp) {
  return group_rotators(rotating_48s, bgp, /*by_country=*/true);
}

BootstrapResult run_bootstrap(sim::Internet& internet,
                              sim::VirtualClock& clock,
                              probe::Prober& prober,
                              const BootstrapOptions& options) {
  BootstrapResult result;
  const std::uint64_t base_sent = prober.counters().sent;
  telemetry::Span funnel_span{options.registry, "bootstrap"};
  telemetry::Span seed_span{options.registry, "seed"};

  engine::SweepOptions sweep_options;
  sweep_options.threads = options.threads;
  sweep_options.seed = options.seed;
  sweep_options.merge_registry = prober.telemetry();
  sweep_options.trace = options.trace;

  // Engine-backed sweep straight into the result store: shard traffic is
  // folded into the funnel prober's ledger, per-unit store slices come
  // back for the stages that classify per unit.
  const auto sweep = [&](const std::vector<engine::SweepUnit>& units) {
    const SweepIngest ingest =
        sweep_into_store(internet, clock, units, prober.options(),
                         sweep_options, result.observations);
    prober.accumulate_counters(ingest.counters);
    return ingest;
  };

  // ---- Stage 0: seed. One last-hop probe per /48 of every advertised
  // prefix that is /32-or-more-specific but shorter than /48.
  std::vector<net::Prefix> advertisements;
  for (const auto& ad : internet.bgp().dump()) {
    if (ad.prefix.length() >= options.min_advert_length &&
        ad.prefix.length() < 48) {
      advertisements.push_back(ad.prefix);
    }
  }
  advertisements = sorted_unique(std::move(advertisements));

  // EUI last hop per probed /48; /48s sharing a last-hop EUI with another
  // /48 are discarded (not a per-customer /48, per the paper's "unique
  // responsive EUI-64 last hop" filter).
  container::FlatMap<net::MacAddress, std::vector<net::Prefix>,
                     net::MacAddressHash>
      seed_by_mac;
  if (options.seed_with_traceroute) {
    // Literal CAIDA-style seeding: a full traceroute per /48 whose last
    // responsive hop is the periphery. Serial — the per-target probe
    // count depends on responses, so there is no a-priori schedule for
    // the engine to shard deterministically.
    for (const auto& advert : advertisements) {
      for (unsigned round = 0; round < options.probes_per_48; ++round) {
        probe::SubnetTargets targets{advert, 48,
                                     sim::mix64(options.seed, 0x5EED, round)};
        net::Ipv6Address target;
        while (targets.next(target)) {
          const auto trace =
              probe::traceroute(prober, target, kTracerouteMaxHops);
          const auto last = trace.last_hop();
          if (!last) continue;
          result.observations.add(Observation{
              target, last->address, wire::Icmpv6Type::kTimeExceeded, 0,
              clock.now()});
          if (const auto mac = net::embedded_mac(last->address)) {
            seed_by_mac[*mac].push_back(net::Prefix{target, 48});
          }
        }
      }
    }
  } else {
    // One probe at a random IID in a pseudorandom /64 of each /48 (the
    // /48 subnet target already randomizes all bits below /48).
    std::vector<engine::SweepUnit> units;
    units.reserve(advertisements.size() * options.probes_per_48);
    for (const auto& advert : advertisements) {
      for (unsigned round = 0; round < options.probes_per_48; ++round) {
        units.push_back(
            {advert, 48, sim::mix64(options.seed, 0x5EED, round)});
      }
    }
    const std::size_t stage_begin = result.observations.size();
    sweep(units);
    const ObservationStore& store = result.observations;
    for (std::size_t i = stage_begin; i < store.size(); ++i) {
      if (const auto mac = net::embedded_mac(store.response(i))) {
        seed_by_mac[*mac].push_back(net::Prefix{store.target(i), 48});
      }
    }
  }
  for (auto& [mac, prefixes] : seed_by_mac) {
    const auto distinct = sorted_unique(std::move(prefixes));
    if (distinct.size() == 1) result.seed_48s.push_back(distinct.front());
  }
  result.seed_48s = sorted_unique(std::move(result.seed_48s));

  // The /32s (covering advertisements) containing seed /48s.
  {
    std::vector<net::Prefix> seed_32s;
    for (const auto& p48 : result.seed_48s) {
      const auto attribution = internet.bgp().lookup(p48.base());
      if (attribution) seed_32s.push_back(attribution->bgp_prefix);
    }
    result.seed_32s = sorted_unique(std::move(seed_32s));
  }
  seed_span.stop();
  telemetry::Span expand_span{options.registry, "expand"};

  // ---- Stage 1 (§4.1): exhaustive /48 expansion of the seed /32s.
  container::FlatMap<net::MacAddress, std::vector<net::Prefix>,
                     net::MacAddressHash>
      expand_by_mac;
  {
    std::vector<engine::SweepUnit> units;
    units.reserve(result.seed_32s.size() * options.probes_per_48);
    for (const auto& p32 : result.seed_32s) {
      for (unsigned round = 0; round < options.probes_per_48; ++round) {
        units.push_back({p32, 48, sim::mix64(options.seed, 0xE49A, round)});
      }
    }
    const std::size_t stage_begin = result.observations.size();
    sweep(units);
    const ObservationStore& store = result.observations;
    for (std::size_t i = stage_begin; i < store.size(); ++i) {
      if (const auto mac = net::embedded_mac(store.response(i))) {
        expand_by_mac[*mac].push_back(net::Prefix{store.target(i), 48});
      }
    }
  }
  {
    std::vector<net::Prefix> expanded;
    for (auto& [mac, prefixes] : expand_by_mac) {
      const auto distinct = sorted_unique(std::move(prefixes));
      if (distinct.size() == 1) expanded.push_back(distinct.front());
    }
    result.expanded_48s = sorted_unique(std::move(expanded));
  }
  expand_span.stop();
  telemetry::Span density_span{options.registry, "density"};

  // ---- Stage 2 (§4.2): density classification, one probe per /56.
  {
    std::vector<engine::SweepUnit> units;
    units.reserve(result.expanded_48s.size());
    for (const auto& p48 : result.expanded_48s) {
      units.push_back({p48, 56, sim::mix64(options.seed, 0xDE45)});
    }
    const SweepIngest ingest = sweep(units);
    for (std::size_t u = 0; u < units.size(); ++u) {
      const net::Prefix p48 = result.expanded_48s[u];
      const UnitIngest& unit = ingest.units[u];
      const ObservationStore::View responsive =
          result.observations.view(unit.obs_begin, unit.obs_end);
      const DensityResult density = classify_density(
          p48, unit.sent, responsive, kDensityLowThreshold);
      result.densities.push_back(density);
      switch (density.klass) {
        case DensityClass::kHigh:
          result.high_density_48s.push_back(p48);
          break;
        case DensityClass::kLow:
          result.low_density_48s.push_back(p48);
          break;
        case DensityClass::kUnresponsive:
          result.unresponsive_48s.push_back(p48);
          break;
      }
    }
  }
  density_span.stop();
  telemetry::Span rotation_span{options.registry, "rotation"};

  // ---- Stage 3 (§4.3): two same-seed snapshots, one probe per /64 of
  // every high-density /48, kSnapshotGap apart.
  const auto sweep_snapshot = [&]() -> analysis::RowWindow {
    std::vector<engine::SweepUnit> units;
    units.reserve(result.high_density_48s.size());
    for (const auto& p48 : result.high_density_48s) {
      units.push_back({p48, 64, sim::mix64(options.seed, 0x5A59)});
    }
    const std::size_t stage_begin = result.observations.size();
    sweep(units);
    return analysis::RowWindow{stage_begin, result.observations.size()};
  };

  const sim::TimePoint snap1_start = clock.now();
  const analysis::RowWindow first_window = sweep_snapshot();
  clock.advance_to(snap1_start + kSnapshotGap);
  const analysis::RowWindow second_window = sweep_snapshot();

  // One fused pass reconstructs both snapshots' <target, response> maps
  // via windowed replay instead of re-walking each snapshot's row range;
  // no attribution or sighting state is needed here.
  analysis::AnalysisOptions analysis_options;
  analysis_options.threads = options.threads;
  analysis_options.trace = options.trace;
  analysis_options.attribute = false;
  analysis_options.collect_sightings = false;
  analysis_options.windows = {first_window, second_window};
  const analysis::AggregateTable table = analysis::analyze(
      result.observations, nullptr, analysis_options, options.registry);

  result.verdicts =
      detect_rotation(table.window_snapshots[0], table.window_snapshots[1],
                      /*churn_threshold=*/0, options.registry);
  for (const auto& v : result.verdicts) {
    if (v.rotating) result.rotating_48s.push_back(v.prefix);
  }
  rotation_span.stop();

  // ---- Funnel accounting.
  result.probes_sent = prober.counters().sent - base_sent;
  result.total_addresses = result.observations.unique_responses();
  result.eui64_addresses = result.observations.unique_eui64_responses();
  result.unique_iids = result.observations.unique_eui64_iids();
  funnel_span.stop();

  if (options.registry != nullptr) {
    telemetry::Registry& reg = *options.registry;
    reg.gauge("funnel.probes").set_u64(result.probes_sent);
    reg.gauge("funnel.responses").set_u64(result.observations.size());
    reg.gauge("funnel.addresses").set_u64(result.total_addresses);
    reg.gauge("funnel.eui64_addresses").set_u64(result.eui64_addresses);
    reg.gauge("funnel.unique_iids").set_u64(result.unique_iids);
    reg.gauge("funnel.seed_48s").set_u64(result.seed_48s.size());
    reg.gauge("funnel.expanded_48s").set_u64(result.expanded_48s.size());
    reg.gauge("funnel.high_density_48s")
        .set_u64(result.high_density_48s.size());
    reg.gauge("funnel.rotating_48s").set_u64(result.rotating_48s.size());
  }
  if (options.journal != nullptr) {
    options.journal->event(
        "funnel",
        {{"probes", result.probes_sent},
         {"responses", result.observations.size()},
         {"addresses", result.total_addresses},
         {"eui64_addresses", result.eui64_addresses},
         {"unique_iids", result.unique_iids},
         {"seed_48s", result.seed_48s.size()},
         {"expanded_48s", result.expanded_48s.size()},
         {"high_density_48s", result.high_density_48s.size()},
         {"rotating_48s", result.rotating_48s.size()}});
    for (const auto& v : result.verdicts) {
      if (!v.rotating) continue;
      options.journal->event("rotation_window_detected",
                             {{"prefix", v.prefix.to_string()},
                              {"eui_targets", v.eui_targets},
                              {"changed", v.changed}});
    }
  }
  return result;
}

}  // namespace scent::core
