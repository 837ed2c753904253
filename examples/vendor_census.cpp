// vendor_census.cpp - per-AS CPE manufacturer census (§5.1).
//
// Every EUI-64 response embeds the CPE's MAC; its OUI names the
// manufacturer. One sweep per provider yields the per-AS vendor breakdown
// and homogeneity index — the reconnaissance an attacker with a
// vendor-specific exploit would run first.

#include <cstdio>
#include <iostream>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "core/io.h"
#include "core/report.h"
#include "oui/oui_registry.h"
#include "probe/prober.h"
#include "sim/scenario.h"
#include "telemetry/metrics.h"

#include "example_util.h"

int main(int argc, char** argv) {
  using namespace scent;

  // --out-dir=DIR routes the census corpus export.
  const examples::Cli cli = examples::Cli::parse(argc, argv);
  if (const int rc = cli.require_valid()) return rc;
  examples::TraceSink trace_sink{cli};

  sim::PaperWorldOptions options;
  options.tail_as_count = 6;
  options.scale = 0.5;
  sim::PaperWorld world = sim::make_paper_world(options);
  sim::VirtualClock clock{sim::hours(12)};
  probe::ProberOptions popt;
  popt.wire_mode = false;
  popt.packets_per_second = 1000000;
  probe::Prober prober{world.internet, clock, popt};

  // One probe per customer allocation in every pool: each responsive CPE
  // leaks its MAC exactly once.
  core::ObservationStore store;
  for (std::size_t p = 0; p < world.internet.provider_count(); ++p) {
    for (const auto& pool : world.internet.provider(p).pools()) {
      store.add_all(prober.sweep_subnets(pool.config().prefix,
                                         pool.config().allocation_length,
                                         0xCE45 + p));
    }
  }

  // One fused pass over the corpus; the census derives from the merged
  // per-device aggregate table (as would any other report — no rescans).
  telemetry::Registry registry;
  registry.attach_trace(trace_sink.collector());
  analysis::AnalysisOptions aopt;
  aopt.collect_targets = false;
  aopt.collect_sightings = false;
  const analysis::AggregateTable agg =
      analysis::analyze(store, &world.internet.bgp(), aopt, &registry);
  const auto census =
      analysis::homogeneity(agg, oui::builtin_registry(), /*min_iids=*/50);

  core::TextTable table{
      {"ASN", "CC", "IIDs", "homogeneity", "dominant vendor", "runner-up"}};
  for (const auto& as : census) {
    char index_text[16];
    std::snprintf(index_text, sizeof index_text, "%.3f", as.index());
    table.add_row({std::to_string(as.asn), as.country,
                   std::to_string(as.unique_iids), index_text,
                   as.dominant_vendor(),
                   as.vendors.size() > 1 ? as.vendors[1].vendor : "-"});
  }
  table.print(std::cout);

  std::printf("\nfused pass: %llu rows -> %zu EUI-64 devices, %zu attributed ASes\n",
              static_cast<unsigned long long>(agg.rows_scanned),
              agg.devices.size(), agg.as_rollups.size());
  std::printf("\n%zu ASes; a homogeneity index near 1.0 means one vendor's\n"
              "firmware fleet-wide — a monoculture a vendor-specific exploit "
              "can sweep.\n",
              census.size());

  // Export the census corpus as CSV — the text debug/export path (binary
  // snapshots are the default persistence format; see corpus/snapshot.h).
  const std::string csv_path = cli.path("vendor_census_observations.csv");
  if (core::save_observations(csv_path, store)) {
    std::printf("corpus export: %s (%zu observations)\n", csv_path.c_str(),
                store.size());
  }
  if (!trace_sink.finish()) return 1;
  return census.empty() ? 1 : 0;
}
