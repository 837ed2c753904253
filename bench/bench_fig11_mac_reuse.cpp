// bench_fig11_mac_reuse - reproduces Figure 11 and the §5.5 pathologies.
//
// Paper: of 9M distinct EUI-64 IIDs, ~10k appeared in multiple ASes. One
// IID (the all-zero default MAC) appeared in 12 distinct ASes; another
// class — vendor MAC reuse — shows the same IID daily in ASes on several
// continents for the whole campaign, which disqualifies it as a tracking
// identifier.
//
// Shape to reproduce: the multi-AS population split into default-MAC,
// concurrent-reuse, and provider-switch classes; the planted reused MAC
// observed in several countries concurrently, day after day.
#include <cstdio>
#include <iostream>
#include <set>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Figure 11 / s5.5 - multi-AS EUI-64 IIDs and MAC reuse",
                "all-zero MAC in 12 ASes; reused vendor MACs concurrently "
                "on several continents daily");

  bench::Pipeline pipeline;
  const auto campaign = pipeline.campaign(/*days=*/21);
  const auto& bgp = pipeline.world.internet.bgp();

  // One fused pass: the pathology classes and both presence timelines
  // derive from its per-AS day sets.
  analysis::AnalysisOptions analysis_options;
  analysis_options.threads = bench::g_threads;
  analysis_options.collect_targets = false;
  analysis_options.collect_sightings = false;
  const analysis::AggregateTable table =
      analysis::analyze(campaign.observations, &bgp, analysis_options);

  const auto multi = analysis::multi_as_iids(table);
  std::size_t default_mac = 0;
  std::size_t reuse = 0;
  std::size_t switches = 0;
  std::size_t other = 0;
  for (const auto& m : multi) {
    switch (m.kind) {
      case core::PathologyKind::kDefaultMac: ++default_mac; break;
      case core::PathologyKind::kConcurrentReuse: ++reuse; break;
      case core::PathologyKind::kProviderSwitch: ++switches; break;
      case core::PathologyKind::kMultiAsOther: ++other; break;
    }
  }
  std::printf("\nmulti-AS IIDs: %zu total (default-mac=%zu, "
              "concurrent-reuse=%zu, provider-switch=%zu, other=%zu)\n",
              multi.size(), default_mac, reuse, switches, other);

  // The planted reused MAC: daily per-AS presence (the Figure 11 series).
  const auto presence =
      analysis::presence_of(table, pipeline.world.reused_mac);
  std::printf("\nFigure 11 - daily AS observations of %s:\n",
              pipeline.world.reused_mac.to_string().c_str());
  std::size_t concurrent_days = 0;
  std::set<routing::Asn> all_asns;
  std::set<std::string> countries;
  for (const auto& [day, asns] : presence.days) {
    std::printf("  day %2lld:",
                static_cast<long long>(day));
    for (const auto asn : asns) {
      all_asns.insert(asn);
      std::printf(" AS%u", asn);
    }
    if (asns.size() >= 2) ++concurrent_days;
    std::printf("\n");
  }
  for (const auto asn : all_asns) {
    for (const auto& ad : bgp.dump()) {
      if (ad.origin_asn == asn) {
        countries.insert(ad.country);
        break;
      }
    }
  }
  std::printf("seen in %zu ASes across %zu countries; concurrent on "
              "%zu/%zu observed days\n",
              all_asns.size(), countries.size(), concurrent_days,
              presence.days.size());

  // The zero MAC's AS spread.
  const auto zero_presence =
      analysis::presence_of(table, pipeline.world.default_mac);
  std::set<routing::Asn> zero_asns;
  for (const auto& [day, asns] : zero_presence.days) {
    zero_asns.insert(asns.begin(), asns.end());
  }
  std::printf("all-zero MAC seen in %zu distinct ASes (paper: 12)\n",
              zero_asns.size());

  const bool ok = reuse >= 1 && default_mac >= 1 && all_asns.size() >= 3 &&
                  countries.size() >= 2 &&
                  concurrent_days * 2 >= presence.days.size() &&
                  zero_asns.size() >= 4;
  std::printf("\nshape check: %s\n", ok ? "yes" : "NO");

  pipeline.print_telemetry();
  return ok ? 0 : 1;
}
