// join_dossiers.cpp - cross-dataset device dossiers (DESIGN.md §5l).
//
// The IPvSeeYou coupling, end to end: a rotation corpus built from EUI-64
// snapshot days is joined against a MAC-keyed geolocation feed, producing
// one dossier per device — its rotation history across two providers, its
// vendor (resolved from the leaked MAC's OUI), and the feed's street-level
// anchor. The derived reports fall out of the dossier table: which MACs
// surfaced behind more than one AS, and when each device switched
// providers.
//
// The join runs the partitioned out-of-core engine with a spill directory,
// so the same binary demonstrates the full pipeline: radix partition ->
// spilled runs -> partition-wise merge-join with block pruning -> P-way
// canonical merge. Output files are byte-identical at any --threads and
// --partitions (check.sh cmp's 1-thread vs 8-thread runs).
//
// Flags (shared ones in example_util.h):
//   --threads=N       join worker shards (oversubscription allowed: the
//                     merge contract makes results identical anyway)
//   --partitions=P    radix fan-out (default 8, rounded to a power of two)
//   --days=N          corpus campaign length (default 6)
//   --devices=N       CPE fleet size (default 4096)
//   --out-dir=DIR     corpus, feed, spill and report files land here

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/dossier.h"
#include "core/observation.h"
#include "corpus/geo_feed.h"
#include "corpus/snapshot.h"
#include "join/join.h"
#include "netbase/eui64.h"
#include "oui/oui_registry.h"
#include "routing/bgp_table.h"
#include "sim/geo_feed.h"
#include "sim/rng.h"
#include "telemetry/metrics.h"

#include "example_util.h"

namespace {

using namespace scent;

constexpr std::uint64_t kFleetOui = 0x3810d5;       // AVM GmbH (builtin)
constexpr std::uint64_t kAlienOui = 0xf4f26d;       // feed-only devices
constexpr std::uint64_t kProviderA = 0x20010db8ULL << 32;  // 2001:db8::/32
constexpr std::uint64_t kProviderB = 0x20014860ULL << 32;  // 2001:4860::/32
constexpr std::uint32_t kAsnA = 64496;
constexpr std::uint32_t kAsnB = 64497;

/// Device i's /64 on `day`: rotates daily inside its provider's /32; a
/// quarter of the fleet moves from provider A to B halfway through.
std::uint64_t network_of(std::uint64_t device, std::int64_t day,
                         std::int64_t days) {
  const bool switched = (device % 4 == 3) && day >= days / 2;
  const std::uint64_t base = switched ? kProviderB : kProviderA;
  const std::uint64_t slot =
      sim::mix64(device, static_cast<std::uint64_t>(day)) & 0xffffff;
  return base | (slot << 8);
}

}  // namespace

int main(int argc, char** argv) {
  const examples::Cli cli = examples::Cli::parse(argc, argv);
  if (const int rc = cli.require_valid()) return rc;

  std::int64_t days = 6;
  std::uint64_t devices = 4096;
  unsigned partitions = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--days=", 7) == 0) {
      days = std::strtol(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--devices=", 10) == 0) {
      devices = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--partitions=", 13) == 0) {
      partitions = static_cast<unsigned>(
          std::strtoul(argv[i] + 13, nullptr, 10));
    }
  }
  if (days < 1) days = 1;
  if (devices < 1) devices = 1;

  // --- The rotation corpus: one snapshot per day, every device answering
  // EUI-64 probes from that day's rotated /64.
  std::vector<std::string> day_paths;
  for (std::int64_t day = 0; day < days; ++day) {
    core::ObservationStore store;
    for (std::uint64_t i = 0; i < devices; ++i) {
      core::Observation obs;
      const std::uint64_t network = network_of(i, day, days);
      obs.target = net::Ipv6Address{network, 1};
      obs.response = net::Ipv6Address{
          network, net::mac_to_eui64(net::MacAddress{(kFleetOui << 24) | i})};
      obs.type = wire::Icmpv6Type::kEchoReply;
      obs.code = 0;
      obs.time = static_cast<sim::TimePoint>(
          static_cast<std::uint64_t>(day) * 86400000000ULL + i);
      store.add(obs);
    }
    corpus::SnapshotWriter writer;
    writer.append(store);
    day_paths.push_back(cli.path("join_day_" + std::to_string(day) +
                                 ".snap"));
    if (!writer.write(day_paths.back())) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   day_paths.back().c_str());
      return 1;
    }
  }

  // --- The geolocation feed: the fleet's OUI (joins) plus an alien OUI the
  // corpus never saw — its MAC-disjoint blocks are what the engine prunes.
  sim::GeoFeedSpec spec;
  spec.seed = 7;
  spec.ouis = {static_cast<std::uint32_t>(kFleetOui),
               static_cast<std::uint32_t>(kAlienOui)};
  spec.devices_per_oui = devices;
  spec.base_asn = 64500;
  spec.asn_count = 4;
  spec.first_day = 0;
  spec.last_day = days - 1;
  const sim::GeoFeedGenerator generator{spec};
  const std::string feed_path = cli.path("join_geo_feed.gfd");
  {
    corpus::GeoFeedWriter writer;
    if (!writer.open(feed_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", feed_path.c_str());
      return 1;
    }
    for (std::uint64_t i = 0; i < generator.records(); ++i) {
      writer.append(generator.record(i));
    }
    if (!writer.finish()) {
      std::fprintf(stderr, "error: feed write failed\n");
      return 1;
    }
  }

  // --- The attribution view both join sides agree on.
  routing::BgpTable bgp;
  bgp.announce(routing::Advertisement{
      net::Prefix(net::Ipv6Address{kProviderA, 0}, 32), kAsnA, "DE",
      "Provider-A"});
  bgp.announce(routing::Advertisement{
      net::Prefix(net::Ipv6Address{kProviderB, 0}, 32), kAsnB, "DE",
      "Provider-B"});

  // --- The join.
  telemetry::Registry registry;
  join::JoinOptions options;
  options.threads = cli.threads;
  options.partitions = partitions;
  options.spill_dir = cli.path("join_spill");
  options.bgp = &bgp;
  options.telemetry = &registry;
  join::DossierJoin engine{options};
  for (std::int64_t day = 0; day < days; ++day) {
    engine.add_corpus_day(day_paths[static_cast<std::size_t>(day)], day);
  }
  engine.add_geo_feed(feed_path);

  const auto table = engine.run_table();
  if (!table) {
    std::fprintf(stderr, "error: join failed\n");
    return 1;
  }
  const join::JoinStats& stats = engine.stats();

  // --- Reports. dossiers.tsv: one line per device; timelines.tsv: the
  // cross-AS story. Both byte-identical at any thread count / fan-out.
  const oui::Registry& vendors = oui::builtin_registry();
  const std::string dossiers_path = cli.path("dossiers.tsv");
  std::FILE* out = std::fopen(dossiers_path.c_str(), "w");
  if (out == nullptr) return 1;
  std::fprintf(out,
               "mac\tvendor\tsightings\tdistinct_asns\tfirst_day\tlast_day\t"
               "anchor_lat_udeg\tanchor_lon_udeg\tanchor_asn\n");
  for (const analysis::DeviceDossier& d : table->rows()) {
    const auto vendor = vendors.vendor(d.mac);
    std::vector<std::uint32_t> asns;
    for (const analysis::DossierSighting& s : d.sightings) {
      if (s.asn != 0) asns.push_back(s.asn);
    }
    std::sort(asns.begin(), asns.end());
    asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
    if (d.anchors.empty()) {
      std::fprintf(out, "%s\t%s\t%zu\t%zu\t%lld\t%lld\t-\t-\t-\n",
                   d.mac.to_string().c_str(),
                   vendor ? std::string(*vendor).c_str() : "(unknown)",
                   d.sightings.size(), asns.size(),
                   static_cast<long long>(d.sightings.front().day),
                   static_cast<long long>(d.sightings.back().day));
    } else {
      const analysis::GeoAnchor& a = d.anchors.front();
      std::fprintf(out, "%s\t%s\t%zu\t%zu\t%lld\t%lld\t%d\t%d\t%u\n",
                   d.mac.to_string().c_str(),
                   vendor ? std::string(*vendor).c_str() : "(unknown)",
                   d.sightings.size(), asns.size(),
                   static_cast<long long>(d.sightings.front().day),
                   static_cast<long long>(d.sightings.back().day),
                   a.lat_udeg, a.lon_udeg, a.asn);
    }
  }
  std::fclose(out);

  const auto reuse = analysis::cross_as_mac_reuse(*table);
  const auto switches = analysis::provider_switch_timeline(*table);
  const std::string timelines_path = cli.path("timelines.tsv");
  out = std::fopen(timelines_path.c_str(), "w");
  if (out == nullptr) return 1;
  std::fprintf(out, "kind\tmac\tdetail\tday\n");
  for (const analysis::MacReuse& r : reuse) {
    std::string asns;
    for (const std::uint32_t asn : r.asns) {
      if (!asns.empty()) asns += ",";
      asns += std::to_string(asn);
    }
    std::fprintf(out, "reuse\t%s\t%s\t%lld-%lld\n", r.mac.to_string().c_str(),
                 asns.c_str(), static_cast<long long>(r.first_day),
                 static_cast<long long>(r.last_day));
  }
  for (const analysis::ProviderSwitch& s : switches) {
    std::fprintf(out, "switch\t%s\t%u->%u\t%lld\n", s.mac.to_string().c_str(),
                 s.from_asn, s.to_asn, static_cast<long long>(s.day));
  }
  std::fclose(out);

  const auto census = analysis::dossier_vendor_census(*table, vendors);
  std::printf("join: %llu corpus rows x %llu feed rows -> %llu dossiers "
              "(%.0f%% anchored)\n",
              static_cast<unsigned long long>(stats.corpus_rows),
              static_cast<unsigned long long>(stats.geo_rows),
              static_cast<unsigned long long>(stats.dossiers),
              100.0 * analysis::anchored_fraction(*table));
  std::printf("      %u threads, %u partitions, %llu spill runs "
              "(%.1f MB), blocks read %llu, pruned %llu\n",
              stats.threads, stats.partitions,
              static_cast<unsigned long long>(stats.spill_runs),
              static_cast<double>(stats.spill_bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(stats.blocks_read),
              static_cast<unsigned long long>(stats.blocks_pruned));
  std::printf("      %zu cross-AS reuse MACs, %zu provider switches\n",
              reuse.size(), switches.size());
  for (const auto& [vendor, count] : census) {
    std::printf("      vendor %-24s %llu devices\n", vendor.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("reports: %s, %s\n", dossiers_path.c_str(),
              timelines_path.c_str());
  return 0;
}
