// bench_fig6_multi_alloc - reproduces Figure 6: one provider, two policies.
//
// Paper: two /48s of the same ISP (Versatel) show different internal
// structure — 2001:16b8:501::/48 is carved into /64 customer allocations
// while 2001:16b8:11f9::/48 is carved into /56s. An adversary who assumes a
// single allocation size for the AS mis-probes one of them; the paper's §6
// handles this by scanning at the larger size first and falling back.
//
// Shape to reproduce: per-/48 Algorithm 1 medians of /64 and /56 within one
// AS, visibly different banding, and the probe-cost gap between the two
// policies (1x vs 256x per /48).
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Figure 6 - a provider with multiple allocation sizes",
                "Versatel: one /48 carved into /64s, another into /56s");

  bench::Pipeline pipeline{/*run_funnel=*/false};

  const auto& versatel = pipeline.world.internet.provider(
      pipeline.world.versatel);
  // The last pool is the /64-allocating /48 (Fig 6a); the first /46 pool's
  // leading /48 shows /56 banding (Fig 6b).
  const auto& pool64 = versatel.pools().back();
  const auto& pool56 = versatel.pools().front();
  const net::Prefix p48_64{pool64.config().prefix.base(), 48};
  const net::Prefix p48_56{pool56.config().prefix.base(), 48};

  const auto r64 = bench::map_allocations(*pipeline.prober, p48_64, 0x616);
  std::printf("\n--- Fig 6a: %s (inferred /%u, %zu CPE)\n%s",
              p48_64.to_string().c_str(), r64.median,
              r64.grid.distinct_sources(), r64.grid.render(16, 64).c_str());
  const auto r56 = bench::map_allocations(*pipeline.prober, p48_56, 0x616);
  std::printf("\n--- Fig 6b: %s (inferred /%u, %zu CPE)\n%s",
              p48_56.to_string().c_str(), r56.median,
              r56.grid.distinct_sources(), r56.grid.render(16, 64).c_str());

  std::printf("\nprobe-cost note: enumerating every CPE needs %llu probes in "
              "the /64-allocating /48 but only 256 in the /56 one (256x "
              "saving, §3.2.1).\n",
              static_cast<unsigned long long>(65536));

  const bool ok = r64.median == 64 && r56.median == 56 &&
                  r64.grid.distinct_sources() > r56.grid.distinct_sources();
  std::printf("shape check: fig6a=/64:%s fig6b=/56:%s\n",
              r64.median == 64 ? "yes" : "NO", r56.median == 56 ? "yes" : "NO");

  pipeline.print_telemetry();
  return ok ? 0 : 1;
}
