// bench_fig3_allocation_maps - reproduces Figure 3: per-provider customer
// allocation maps obtained purely by probing.
//
// Paper: probing one address per /64 of a /48 and plotting the responding
// source address per (7th byte, 8th byte) of the target reveals the
// provider's allocation policy: Entel (BO) shows /56 bands, BH Telecom (BA)
// shows /60 sub-bands, Starcat (JP) is per-/64 pixelated with an
// unallocated upper region. Black (here '.') marks silence.
//
// Shape to reproduce: the three banding patterns, and Algorithm 1 medians
// of /56, /60, /64 respectively.
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace scent;

/// Probes every /64 of `p48` and renders the response-address banding.
/// Returns the Algorithm 1 median allocation length for the /48.
unsigned map_prefix(bench::Pipeline& pipeline, net::Prefix p48,
                    const char* provider, unsigned expected) {
  const auto map = bench::map_allocations(*pipeline.prober, p48, 0x316);
  std::printf("\n--- %s  %s  (%llu/65536 /64s responsive, %zu distinct "
              "CPE, inferred allocation /%u, expected /%u)\n",
              provider, p48.to_string().c_str(),
              static_cast<unsigned long long>(map.responsive_64s),
              map.grid.distinct_sources(), map.median, expected);
  std::printf("%s", map.grid.render(24, 72).c_str());
  return map.median;
}

}  // namespace

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  bench::banner(
      "Figure 3 - inferring customer allocation policies by probing",
      "Entel /56 banding; BH Telecom /60 banding; Starcat /64 pixels with "
      "unallocated upper quarter");

  bench::Pipeline pipeline{/*run_funnel=*/false};

  const auto pool_48 = [&](std::size_t provider_index) {
    const auto& pool =
        pipeline.world.internet.provider(provider_index).pools()[0];
    return net::Prefix{pool.config().prefix.base(), 48};
  };

  const unsigned entel =
      map_prefix(pipeline, pool_48(pipeline.world.entel), "Entel (BO)", 56);
  const unsigned bh = map_prefix(pipeline, pool_48(pipeline.world.bhtelecom),
                                 "BH Telecom (BA)", 60);
  const unsigned starcat = map_prefix(
      pipeline, pool_48(pipeline.world.starcat), "Starcat (JP)", 64);

  std::printf("\nshape check: entel=/56:%s bhtelecom=/60:%s starcat=/64:%s\n",
              entel == 56 ? "yes" : "NO", bh == 60 ? "yes" : "NO",
              starcat == 64 ? "yes" : "NO");

  pipeline.print_telemetry();
  return (entel == 56 && bh == 60 && starcat == 64) ? 0 : 1;
}
