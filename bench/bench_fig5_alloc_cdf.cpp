// bench_fig5_alloc_cdf - reproduces Figure 5: inferred allocation sizes.
//
// Paper, Fig 5a (per-IID CDF, single day of probing): a plurality (~40%) of
// EUI-64 IIDs receive /56 delegations, ~30% receive /64s, with an
// inflection at /60. Fig 5b (per-AS median CDF): /56 is the most common
// (~50% of ASes), ~25% allocate /64s, the rest fall between.
//
// Shape to reproduce: /56 plurality and /64 second in the per-IID
// distribution with a visible /60 step; /56 majority among AS medians.
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "core/inference.h"

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Figure 5 - inferred customer allocation sizes",
                "5a: ~40% of IIDs at /56, ~30% at /64, inflection at /60; "
                "5b: ~50% of ASes median /56, ~25% median /64");

  bench::Pipeline pipeline;

  // A single day of per-/64 probing over the rotating /48s — exactly the
  // paper's Fig 5a data collection.
  const auto campaign = pipeline.campaign(/*days=*/1);

  core::AllocationSizeInference global;
  std::map<routing::Asn, core::AllocationSizeInference> per_as;
  for (const auto& obs : campaign.observations.all()) {
    global.observe(obs.target, obs.response);
    if (const auto attribution =
            pipeline.world.internet.bgp().lookup(obs.response)) {
      per_as[attribution->origin_asn].observe(obs.target, obs.response);
    }
  }

  // --- Figure 5a: per-IID CDF.
  const auto iid_lengths = global.per_device_lengths();
  const core::Cdf iid_cdf = core::Cdf::of(iid_lengths);
  bench::print_cdf("Fig 5a - inferred allocation size per EUI-64 IID",
                   iid_cdf, "prefix len");

  std::map<unsigned, std::size_t> histogram;
  for (const unsigned len : iid_lengths) ++histogram[len];
  const auto share = [&](unsigned len) {
    return histogram.contains(len)
               ? static_cast<double>(histogram.at(len)) /
                     static_cast<double>(iid_lengths.size())
               : 0.0;
  };
  std::printf("\nper-IID shares: /56=%.2f (paper ~0.40)  /64=%.2f (paper "
              "~0.30)  /60=%.2f (inflection)\n",
              share(56), share(64), share(60));

  // --- Figure 5b: per-AS median CDF.
  std::vector<unsigned> as_medians;
  for (const auto& [asn, inference] : per_as) {
    if (inference.device_count() < 3) continue;  // too few IIDs to call
    if (const auto median = inference.median_length()) {
      as_medians.push_back(*median);
    }
  }
  const core::Cdf as_cdf = core::Cdf::of(as_medians);
  bench::print_cdf("Fig 5b - median inferred allocation size per AS", as_cdf,
                   "prefix len");

  std::map<unsigned, std::size_t> as_histogram;
  for (const unsigned len : as_medians) ++as_histogram[len];
  const double as_56 =
      as_histogram.contains(56)
          ? static_cast<double>(as_histogram.at(56)) /
                static_cast<double>(as_medians.size())
          : 0.0;
  std::printf("\nper-AS /56 share: %.2f (paper ~0.50 of ASes)\n", as_56);

  // Shape: /56 is the per-IID plurality, /64 is substantial, and /56 is the
  // most common AS median.
  bool slash56_plurality = true;
  for (const auto& [len, count] : histogram) {
    if (len != 56 && count > histogram[56]) slash56_plurality = false;
  }
  const bool ok = slash56_plurality && share(64) > 0.10 && share(56) > 0.25 &&
                  as_56 >= 0.4;
  std::printf("shape check: %s\n", ok ? "yes" : "NO");

  pipeline.print_telemetry();
  return ok ? 0 : 1;
}
