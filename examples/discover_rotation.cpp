// discover_rotation.cpp - end-to-end §4 discovery walkthrough.
//
// Runs the full funnel against a compact simulated Internet and narrates
// every stage: traceroute seeding, /48 expansion, density classification,
// and two-snapshot rotation detection — ending with the per-AS rotator
// table an attacker would use to pick targets.

#include <cstdio>
#include <iostream>

#include "core/bootstrap.h"
#include "core/io.h"
#include "core/report.h"
#include "corpus/snapshot.h"
#include "probe/prober.h"
#include "probe/traceroute.h"
#include "probe/target_generator.h"
#include "sim/scenario.h"
#include "telemetry/export.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"

#include "example_util.h"

int main(int argc, char** argv) {
  using namespace scent;

  // --threads=N shards every funnel sweep (bit-identical at any value);
  // --out-dir=DIR is where the journal and corpus artifacts land.
  const examples::Cli cli = examples::Cli::parse(argc, argv);
  if (const int rc = cli.require_valid()) return rc;
  const unsigned threads = cli.threads;
  examples::TraceSink trace_sink{cli};

  // A small world: one rotating and one static provider (plus everything
  // the paper's pipeline needs: BGP view, ICMPv6 semantics, EUI-64 CPE).
  sim::PaperWorldOptions options;
  options.tail_as_count = 8;
  options.scale = 0.5;
  sim::PaperWorld world = sim::make_paper_world(options);
  sim::VirtualClock clock{sim::hours(9)};
  probe::ProberOptions popt;
  popt.wire_mode = false;       // flip to true for full packet serialization
  popt.packets_per_second = 500000;
  probe::Prober prober{world.internet, clock, popt};

  // Telemetry: the registry collects per-stage spans and counters, the
  // journal records the funnel + every detected rotation window as JSONL.
  // Both sinks, and the trace collector, hang off the registry.
  telemetry::Registry registry;
  registry.set_clock(&clock);
  prober.attach_telemetry(registry);
  telemetry::Journal journal;
  journal.open(cli.path("discover_rotation_journal.jsonl"));
  journal.set_clock(&clock);
  registry.attach_journal(&journal);
  registry.attach_trace(trace_sink.collector());

  // --- Step 0 (flavor): a single yarrp-style traceroute shows why the CPE
  // is the "last hop": core routers answer Time Exceeded, then the CPE
  // answers with an unreachable error from its EUI-64 WAN address.
  const auto& versatel = world.internet.provider(world.versatel);
  const net::Prefix victim_alloc = versatel.allocation({0, 3}, clock.now());
  const auto trace =
      probe::traceroute(prober, probe::target_in(victim_alloc, 7), 12);
  std::printf("traceroute to a customer prefix:\n");
  for (const auto& hop : trace.hops) {
    std::printf("  %2u  %-40s %s%s\n", hop.distance,
                hop.address.to_string().c_str(),
                std::string{wire::to_string(hop.type)}.c_str(),
                net::is_eui64(hop.address) ? "   <- EUI-64 CPE" : "");
  }

  // --- The funnel.
  core::BootstrapOptions boot;
  boot.probes_per_48 = 8;
  boot.threads = threads;
  boot.registry = &registry;
  const core::BootstrapResult funnel =
      core::run_bootstrap(world.internet, clock, prober, boot);

  std::printf("\nfunnel stages:\n");
  std::printf("  seed /48s with unique EUI-64 last hop : %zu\n",
              funnel.seed_48s.size());
  std::printf("  covering /32s expanded                : %zu\n",
              funnel.seed_32s.size());
  std::printf("  /48s with unique EUI-64 responses     : %zu\n",
              funnel.expanded_48s.size());
  std::printf("  high density (>2 unique EUI-64)       : %zu\n",
              funnel.high_density_48s.size());
  std::printf("  low density / unresponsive            : %zu / %zu\n",
              funnel.low_density_48s.size(), funnel.unresponsive_48s.size());
  std::printf("  rotating (changed between snapshots)  : %zu\n",
              funnel.rotating_48s.size());
  std::printf("  probes sent                           : %llu\n",
              static_cast<unsigned long long>(funnel.probes_sent));
  std::printf("  addresses / EUI-64 / unique IIDs      : %llu / %llu / %llu\n",
              static_cast<unsigned long long>(funnel.total_addresses),
              static_cast<unsigned long long>(funnel.eui64_addresses),
              static_cast<unsigned long long>(funnel.unique_iids));

  std::printf("\nrotating /48s by origin AS:\n");
  core::TextTable table{{"ASN", "# /48"}};
  for (const auto& group :
       core::rotators_by_asn(funnel.rotating_48s, world.internet.bgp())) {
    table.add_row({"AS" + group.key, std::to_string(group.count)});
  }
  table.print(std::cout);

  // Persist the funnel's outputs: the rotating /48 target list as text
  // (greppable) and the bootstrap corpus as a binary snapshot (the default
  // persistence format — block-compressed and checksummed).
  const std::string prefixes_path = cli.path("rotating_48s.txt");
  if (core::save_prefixes(prefixes_path, funnel.rotating_48s,
                          "rotating /48s discovered by the funnel")) {
    std::printf("\n  rotating /48s: %s\n", prefixes_path.c_str());
  }
  corpus::SnapshotWriter snapshot;
  snapshot.set_threads(threads);
  snapshot.append(funnel.observations);
  const std::string snapshot_path = cli.path("bootstrap.snap");
  if (snapshot.write(snapshot_path)) {
    std::printf(
        "  corpus snapshot: %s (format %u, %llu rows, %llu bytes on disk)\n",
        snapshot_path.c_str(), corpus::kSnapshotFormatVersion,
        static_cast<unsigned long long>(snapshot.rows()),
        static_cast<unsigned long long>(snapshot.encoded_size()));
    // Windowed re-read of the middle third of the corpus: the reader
    // decodes only the blocks overlapping the row window and skips the
    // rest — the predicate ChainInput scans lean on.
    corpus::SnapshotReader reread;
    std::vector<net::Ipv6Address> window;
    if (reread.open(snapshot_path) &&
        reread.read_responses(window, reread.rows() / 3, reread.rows() / 3)) {
      std::printf("  window re-read (middle third, %zu rows): "
                  "blocks read/skipped: %llu/%llu\n",
                  window.size(),
                  static_cast<unsigned long long>(reread.blocks_read()),
                  static_cast<unsigned long long>(reread.blocks_skipped()));
    }
  }

  std::printf("\n");
  telemetry::print_summary(stdout, registry);
  if (journal.close()) {
    std::printf("  journal: %s (%zu events)\n",
                cli.path("discover_rotation_journal.jsonl").c_str(),
                journal.events_written());
  }

  if (!trace_sink.finish()) return 1;
  return funnel.rotating_48s.empty() ? 1 : 0;
}
