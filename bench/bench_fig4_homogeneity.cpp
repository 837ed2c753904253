// bench_fig4_homogeneity - reproduces Figure 4 and the §5.1 vendor analysis.
//
// Paper: grouping the unique EUI-64 IIDs of each AS by the manufacturer OUI
// embedded in their MACs shows strong homogeneity — of 87 ASes with >= 100
// IIDs, more than half have a single vendor covering > 90% of the fleet,
// three quarters are above ~0.67, and even the least homogeneous AS is above
// ~1/3. NetCologne (AS8422) is 99.98% AVM; Viettel (AS7552) is 99.6% ZTE.
//
// Shape to reproduce: the homogeneity CDF quantiles and the two named ASes'
// dominant vendors.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/homogeneity.h"
#include "oui/oui_registry.h"

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Figure 4 - per-AS CPE manufacturer homogeneity",
                ">1/2 of ASes above 0.9; 3/4 above 0.67; min above ~0.35; "
                "NetCologne=AVM 99.98%, Viettel=ZTE 99.6%");

  bench::Pipeline pipeline{/*run_funnel=*/false};

  // Homogeneity needs one sighting per device, not a longitudinal
  // campaign: sweep every pool of every provider once at allocation
  // granularity.
  bench::Stopwatch timer;
  core::ObservationStore store;
  for (std::size_t p = 0; p < pipeline.world.internet.provider_count(); ++p) {
    const auto& provider = pipeline.world.internet.provider(p);
    for (const auto& pool : provider.pools()) {
      const auto results = pipeline.prober->sweep_subnets(
          pool.config().prefix, pool.config().allocation_length, 0xF16 + p);
      store.add_all(results);
    }
  }
  timer.lap("census sweep complete");
  std::printf("  %zu observations, %zu unique IIDs\n", store.size(),
              store.unique_eui64_iids());

  const auto analysis = core::analyze_homogeneity(
      store, pipeline.world.internet.bgp(), oui::builtin_registry(),
      /*min_iids=*/100);

  // Named-provider spot checks.
  double netcologne_index = 0;
  double viettel_index = 0;
  std::string netcologne_vendor;
  std::string viettel_vendor;
  std::vector<double> indices;
  for (const auto& as : analysis) {
    indices.push_back(as.index());
    if (as.asn == 8422) {
      netcologne_index = as.index();
      netcologne_vendor = as.dominant_vendor();
    }
    if (as.asn == 7552) {
      viettel_index = as.index();
      viettel_vendor = as.dominant_vendor();
    }
  }

  const core::Cdf cdf = core::Cdf::of(indices);
  bench::print_cdf("Homogeneity index CDF over ASes (Figure 4)", cdf,
                   "index");

  std::printf("\nNamed providers (paper: 99.98%% / 99.6%%):\n");
  std::printf("  AS8422 NetCologne : %-22s %.4f\n", netcologne_vendor.c_str(),
              netcologne_index);
  std::printf("  AS7552 Viettel    : %-22s %.4f\n", viettel_vendor.c_str(),
              viettel_index);

  const double above_09 = 1.0 - cdf.at(0.9);
  const double above_067 = 1.0 - cdf.at(0.67);
  std::printf("\nASes analyzed: %zu (>=100 IIDs)\n", analysis.size());
  std::printf("fraction with index>0.9 : %.2f (paper: >0.50)\n", above_09);
  std::printf("fraction with index>0.67: %.2f (paper: ~0.75)\n", above_067);
  std::printf("minimum index           : %.2f (paper: >1/3)\n", cdf.min());

  const bool ok = above_09 > 0.4 && above_067 > 0.6 && cdf.min() > 0.3 &&
                  netcologne_vendor == "AVM GmbH" &&
                  viettel_vendor == "ZTE Corporation" &&
                  netcologne_index > 0.99 && viettel_index > 0.98;
  std::printf("shape check: %s\n", ok ? "yes" : "NO");

  pipeline.print_telemetry();
  return ok ? 0 : 1;
}
