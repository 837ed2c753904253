// bench_fig7_pool_vs_bgp - reproduces Figure 7: inferred rotation pool
// sizes vs BGP-advertised prefix sizes.
//
// Paper: Algorithm 2 on the 44-day corpus gives a per-AS rotation pool
// size; comparing against the covering BGP prefix (Routeviews) shows (i)
// more than half the probed ASes have a /64 "pool" — i.e. no measurable
// rotation, the §4.3 detector's appearance/disappearance false positives —
// and (ii) for rotators, pools sit roughly /16 *inside* the BGP prefix: an
// EUI-64 IID wanders through only ~2^-16 of the space an attacker would
// naively search.
//
// Shape to reproduce: a large /64 mode in the pool CDF, BGP prefixes
// clustered near /32, and a wide (>= 8 bit) median gap between the curves.
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "core/inference.h"

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Figure 7 - rotation pool sizes vs BGP prefix sizes",
                ">1/2 of ASes show /64 pools (no rotation observed); "
                "rotators' pools sit ~/16 inside the BGP prefix");

  bench::Pipeline pipeline;
  const auto campaign = pipeline.campaign(/*days=*/28);

  // Algorithm 2 per AS; BGP prefix length per AS from attribution.
  std::map<routing::Asn, core::RotationPoolInference> per_as;
  std::map<routing::Asn, unsigned> bgp_length;
  for (const auto& obs : campaign.observations.all()) {
    const auto attribution =
        pipeline.world.internet.bgp().lookup(obs.response);
    if (!attribution) continue;
    per_as[attribution->origin_asn].observe(obs.response);
    bgp_length[attribution->origin_asn] = attribution->bgp_prefix.length();
  }

  std::vector<unsigned> pool_lengths;
  std::vector<unsigned> bgp_lengths;
  std::size_t non_rotating = 0;
  for (const auto& [asn, inference] : per_as) {
    const auto median = inference.median_length();
    if (!median) continue;
    pool_lengths.push_back(*median);
    bgp_lengths.push_back(bgp_length.at(asn));
    if (*median == 64) ++non_rotating;
  }

  const core::Cdf pool_cdf = core::Cdf::of(pool_lengths);
  const core::Cdf bgp_cdf = core::Cdf::of(bgp_lengths);
  bench::print_cdf("Inferred rotation pool size per AS (Algorithm 2)",
                   pool_cdf, "prefix len");
  bench::print_cdf("BGP-advertised prefix size per AS", bgp_cdf,
                   "prefix len");

  const double pool_median = pool_cdf.quantile(0.5);
  const double bgp_median = bgp_cdf.quantile(0.5);
  const double fraction_64 =
      static_cast<double>(non_rotating) / static_cast<double>(
                                              pool_lengths.size());
  std::printf("\nASes: %zu; /64-pool fraction: %.2f (paper: >0.5)\n",
              pool_lengths.size(), fraction_64);
  std::printf("median pool /%g vs median BGP /%g -> gap %.0f bits "
              "(paper: ~16)\n",
              pool_median, bgp_median, pool_median - bgp_median);

  // For rotating ASes only, the gap quantifies the attacker's saving.
  std::vector<unsigned> rotating_gaps;
  for (std::size_t i = 0; i < pool_lengths.size(); ++i) {
    if (pool_lengths[i] < 64) {
      rotating_gaps.push_back(pool_lengths[i] - bgp_lengths[i]);
    }
  }
  if (!rotating_gaps.empty()) {
    bench::print_quantiles("pool-inside-BGP gap (bits), rotators only",
                           core::Cdf::of(rotating_gaps));
  }

  const bool ok = fraction_64 > 0.35 && fraction_64 < 0.85 &&
                  pool_median - bgp_median >= 8 && bgp_cdf.quantile(0.5) <= 34;
  std::printf("shape check: %s\n", ok ? "yes" : "NO");

  pipeline.print_telemetry();
  return ok ? 0 : 1;
}
