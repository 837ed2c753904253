// bench_fig8_prefixes_per_iid - reproduces Figure 8: distinct /64s per IID.
//
// Paper: over the 44-day campaign, ~25% of EUI-64 IIDs were seen in exactly
// one /64 (non-rotators plus devices that rotated out of the probed space),
// ~70% in more than one, and a tiny pathological tail reached thousands of
// /64s (MAC reuse across many devices).
//
// Shape to reproduce: a ~quarter mass at 1, a majority above 1, and a heavy
// multi-order-of-magnitude tail from the planted shared-MAC clones.
#include <algorithm>
#include <cstdio>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "bench_util.h"

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Figure 8 - distinct /64 prefixes per EUI-64 IID",
                "~25% of IIDs in one /64; ~70% in more; extreme tail from "
                "MAC reuse (paper max ~30k /64s)");

  bench::Pipeline pipeline;
  const auto campaign = pipeline.campaign(/*days=*/28);

  // Distinct /64s come from each device's sighting list; no attribution.
  analysis::AnalysisOptions analysis_options;
  analysis_options.threads = bench::g_threads;
  analysis_options.collect_targets = false;
  analysis_options.attribute = false;
  const analysis::AggregateTable table =
      analysis::analyze(campaign.observations, nullptr, analysis_options);

  std::vector<std::uint64_t> prefixes_per_iid;
  std::uint64_t max_count = 0;
  net::MacAddress max_mac;
  for (const auto& [mac, device] : table.devices) {
    const auto networks = analysis::networks_of(table, mac);
    prefixes_per_iid.push_back(networks.size());
    if (networks.size() > max_count) {
      max_count = networks.size();
      max_mac = mac;
    }
  }

  const core::Cdf cdf = core::Cdf::of(prefixes_per_iid);
  bench::print_quantiles("distinct /64s per IID", cdf);

  const double at_one = cdf.at(1.0);
  const double above_one = 1.0 - at_one;
  std::printf("\nIIDs observed: %zu\n", prefixes_per_iid.size());
  std::printf("fraction in exactly one /64 : %.2f (paper ~0.25)\n", at_one);
  std::printf("fraction in multiple /64s   : %.2f (paper ~0.70)\n",
              above_one);
  std::printf("heaviest IID                : %s in %llu /64s "
              "(planted clone tail; paper ~30k)\n",
              max_mac.to_string().c_str(),
              static_cast<unsigned long long>(max_count));

  // Log-scale histogram of the tail.
  std::printf("\ncount-of-/64s histogram (log buckets):\n");
  const std::uint64_t buckets[] = {1, 2, 4, 8, 16, 32, 64, 128, 1u << 20};
  std::uint64_t prev = 0;
  for (const std::uint64_t b : buckets) {
    const std::size_t count = static_cast<std::size_t>(
        (cdf.at(static_cast<double>(b)) - cdf.at(static_cast<double>(prev))) *
        static_cast<double>(prefixes_per_iid.size()) + 0.5);
    if (b >= (1u << 20)) {
      std::printf("  >%3llu : %zu\n", static_cast<unsigned long long>(prev),
                  count);
    } else {
      std::printf("  (%llu,%llu] : %zu\n",
                  static_cast<unsigned long long>(prev),
                  static_cast<unsigned long long>(b), count);
    }
    prev = b;
  }

  const double median = cdf.quantile(0.5);
  const bool ok = at_one > 0.05 && at_one < 0.6 && above_one > 0.4 &&
                  max_count >= 20 * static_cast<std::uint64_t>(
                                       std::max(1.0, median));
  std::printf("\nshape check: %s\n", ok ? "yes" : "NO");

  pipeline.print_telemetry();
  return ok ? 0 : 1;
}
