// bench_fig12_provider_switch - reproduces Figure 12: customers switching
// ISPs, detected purely from probing.
//
// Paper: two EUI-64 IIDs each moved between the two German residential
// providers (AS8881 Versatel <-> AS3320 DTAG) mid-campaign; neither was
// seen in its former network again — the signature of a service-provider
// change rather than a dual-homed backup link.
//
// Shape to reproduce: both planted switchers classified as
// provider-switch with the right directions and a clean hand-off day.
#include <cstdio>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Figure 12 - EUI-64 IIDs changing between German ISPs",
                "one IID AS8881->AS3320 mid-campaign, one the reverse; "
                "neither returns to its former AS");

  bench::Pipeline pipeline;
  const auto campaign = pipeline.campaign(/*days=*/44);
  const auto& bgp = pipeline.world.internet.bgp();

  // One fused pass: both timelines and the classification derive from it.
  analysis::AnalysisOptions analysis_options;
  analysis_options.threads = bench::g_threads;
  analysis_options.collect_targets = false;
  analysis_options.collect_sightings = false;
  const analysis::AggregateTable table =
      analysis::analyze(campaign.observations, &bgp, analysis_options);

  const auto report = [&](net::MacAddress mac, const char* label) {
    const auto presence = analysis::presence_of(table, mac);
    std::printf("\n%s (%s): day->AS timeline\n", label,
                mac.to_string().c_str());
    for (const auto& [day, asns] : presence.days) {
      std::printf("  day %2lld:", static_cast<long long>(day));
      for (const auto asn : asns) std::printf(" AS%u", asn);
      std::printf("\n");
    }
    return presence;
  };

  report(pipeline.world.switcher_ab, "switcher A (Versatel -> DTAG)");
  report(pipeline.world.switcher_ba, "switcher B (DTAG -> Versatel)");

  const auto multi = analysis::multi_as_iids(table);
  bool ab_ok = false;
  bool ba_ok = false;
  for (const auto& m : multi) {
    if (m.kind != core::PathologyKind::kProviderSwitch) continue;
    if (m.mac == pipeline.world.switcher_ab && m.switch_from == 8881 &&
        m.switch_to == 3320) {
      ab_ok = true;
      std::printf("\nswitcher A classified: AS%u -> AS%u on day %lld\n",
                  m.switch_from, m.switch_to,
                  static_cast<long long>(m.switch_day));
    }
    if (m.mac == pipeline.world.switcher_ba && m.switch_from == 3320 &&
        m.switch_to == 8881) {
      ba_ok = true;
      std::printf("switcher B classified: AS%u -> AS%u on day %lld\n",
                  m.switch_from, m.switch_to,
                  static_cast<long long>(m.switch_day));
    }
  }

  std::printf("\nshape check: A(8881->3320)=%s B(3320->8881)=%s\n",
              ab_ok ? "yes" : "NO", ba_ok ? "yes" : "NO");

  pipeline.print_telemetry();
  return (ab_ok && ba_ok) ? 0 : 1;
}
