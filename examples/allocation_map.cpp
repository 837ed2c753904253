// allocation_map.cpp - render a provider's allocation policy as a map.
//
// The §3.2.1 reconnaissance primitive: probe one address in every /64 of a
// /48 and plot which source address answered, Figure-3 style. The banding
// directly reveals how the provider carves customer delegations — /56
// bands, /60 sub-bands, or per-/64 pixels — without any provider
// cooperation.

#include <cstdio>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "core/observation.h"
#include "core/report.h"
#include "probe/prober.h"
#include "sim/scenario.h"

#include "example_util.h"

namespace {

using namespace scent;

void map_one(probe::Prober& prober, const sim::Internet& internet,
             std::size_t provider_index, telemetry::TraceCollector* trace) {
  const auto& provider = internet.provider(provider_index);
  const auto& pool = provider.pools()[0];
  const net::Prefix p48{pool.config().prefix.base(), 48};

  core::AllocationGrid grid;
  core::ObservationStore store;
  probe::SubnetTargets targets{p48, 64, 0xA110};
  net::Ipv6Address target;
  while (targets.next(target)) {
    const auto r = prober.probe_one(target);
    if (!r.responded) continue;
    store.add(r);
    grid.mark(r.target.byte(6), r.target.byte(7),
              grid.intern(r.response_source.iid() ^
                          r.response_source.network()));
  }

  // Algorithm 1 over the sweep: one fused pass accumulates every device's
  // probed-target /64 span; the median derives from the aggregate table.
  analysis::AnalysisOptions aopt;
  aopt.trace = trace;
  aopt.attribute = false;
  aopt.collect_sightings = false;
  const analysis::AggregateTable table = analysis::analyze(store, nullptr,
                                                           aopt);

  std::printf("\n%s (AS%u, %s) - %s\n", provider.config().name.c_str(),
              provider.config().asn, provider.config().country.c_str(),
              p48.to_string().c_str());
  std::printf("distinct responding CPE: %zu; inferred allocation: /%u\n",
              grid.distinct_sources(),
              analysis::allocation_median(table).value_or(0));
  std::printf("%s", grid.render(20, 72).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scent;
  // Shared flags accepted for CLI uniformity; the map renders to stdout.
  const examples::Cli cli = examples::Cli::parse(argc, argv);
  if (const int rc = cli.require_valid()) return rc;
  examples::TraceSink trace_sink{cli};
  sim::PaperWorldOptions options;
  options.tail_as_count = 0;
  options.inject_pathologies = false;
  sim::PaperWorld world = sim::make_paper_world(options);
  sim::VirtualClock clock{sim::hours(12)};
  probe::ProberOptions popt;
  popt.wire_mode = false;
  popt.packets_per_second = 1000000;
  probe::Prober prober{world.internet, clock, popt};

  std::printf("Each character = one sampled /64; letters are distinct\n"
              "responding CPE addresses, '.' is silence (Figure 3 style).\n");
  telemetry::TraceCollector* trace = trace_sink.collector();
  map_one(prober, world.internet, world.entel, trace);      // /56 bands
  map_one(prober, world.internet, world.bhtelecom, trace);  // /60 sub-bands
  map_one(prober, world.internet, world.starcat, trace);    // /64 pixels
  return trace_sink.finish() ? 0 : 1;
}
