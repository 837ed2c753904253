// bench_fig9_pool_walk - reproduces Figure 9: per-IID prefix walks.
//
// Paper: three AS8881 EUI-64 IIDs tracked daily each have their /64 prefix
// advance by a constant stride every day, wrapping modulo the /46 rotation
// pool; an IID visits several /48s before wrapping. This regularity lets an
// attacker *predict* tomorrow's prefix.
//
// Shape to reproduce: linear-mod-pool /64 walks for three devices, the
// wrap, multiple /48s visited, and a fitted stride model that predicts the
// next day's prefix exactly.
#include <cstdio>

#include <set>

#include "bench_util.h"
#include "core/predictor.h"
#include "core/tracker.h"

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Figure 9 - daily /64 prefix increments modulo the pool",
                "AS8881 IIDs advance by a fixed stride each day, wrap mod "
                "the /46, and visit 3+ /48s before wrapping");

  bench::Pipeline pipeline{/*run_funnel=*/false};

  const auto& versatel =
      pipeline.world.internet.provider(pipeline.world.versatel);
  const auto& pool = versatel.pools()[0];
  const net::Prefix pool_prefix = pool.config().prefix;
  const unsigned alloc_len = pool.config().allocation_length;

  constexpr int kDays = 18;
  constexpr std::size_t kDevices = 3;
  const std::size_t device_picks[kDevices] = {3, 57, 211};

  // Track three devices daily by probing (attacker view), recording the
  // observed /64 index within the pool.
  std::vector<std::vector<core::Sighting>> walks{kDevices};
  for (int day = 0; day < kDays; ++day) {
    pipeline.clock.advance_to(sim::days(day) + sim::hours(12));
    for (std::size_t i = 0; i < kDevices; ++i) {
      core::TrackerConfig config;
      config.target_mac = pool.devices()[device_picks[i]].mac;
      config.pool = pool_prefix;
      config.allocation_length = alloc_len;
      config.seed = 0x919 + i;
      core::Tracker tracker{*pipeline.prober, config};
      const auto attempt = tracker.locate(day);
      if (attempt.found) {
        walks[i].push_back(
            core::Sighting{day, attempt.address.network()});
      }
    }
  }

  // Print the walks as /64-index-within-pool series plus the /48 visited.
  const std::uint64_t pool_base = pool_prefix.base().network();
  std::printf("\nday   IID#1 (/64 idx, /48#)   IID#2   IID#3\n");
  for (int day = 0; day < kDays; ++day) {
    std::printf("d%-3d", day);
    for (std::size_t i = 0; i < kDevices; ++i) {
      bool printed = false;
      for (const auto& s : walks[i]) {
        if (s.day == day) {
          const std::uint64_t idx = s.network - pool_base;
          std::printf("  %8llu (#%llu)",
                      static_cast<unsigned long long>(idx),
                      static_cast<unsigned long long>(idx >> 16));
          printed = true;
        }
      }
      if (!printed) std::printf("        (missed)");
    }
    std::printf("\n");
  }

  // Fit stride models and verify predictions against ground truth.
  bool all_fit = true;
  bool wrap_seen = false;
  std::size_t multi_48 = 0;
  for (std::size_t i = 0; i < kDevices; ++i) {
    const auto model = core::fit_stride(walks[i], pool_prefix, alloc_len);
    if (!model) {
      all_fit = false;
      continue;
    }
    std::set<std::uint64_t> visited_48s;
    for (std::size_t k = 1; k < walks[i].size(); ++k) {
      if (walks[i][k].network < walks[i][k - 1].network) wrap_seen = true;
    }
    for (const auto& s : walks[i]) visited_48s.insert(s.network >> 16);
    if (visited_48s.size() >= 3) ++multi_48;

    // Predict the next day and compare with ground truth.
    pipeline.clock.advance_to(sim::days(kDays) + sim::hours(12));
    const net::Prefix predicted = model->predict_allocation(kDays);
    const net::Prefix actual = versatel.allocation(
        {0, device_picks[i]}, pipeline.clock.now());
    std::printf("IID#%zu stride=%llu support=%.2f predicted=%s actual=%s %s\n",
                i + 1, static_cast<unsigned long long>(model->stride),
                model->support, predicted.to_string().c_str(),
                actual.to_string().c_str(),
                predicted == actual ? "HIT" : "miss");
    if (predicted != actual) all_fit = false;
  }

  std::printf("\nshape check: strides_fit_and_predict=%s wrap_observed=%s "
              "iids_in_3plus_/48s=%zu/3\n",
              all_fit ? "yes" : "NO", wrap_seen ? "yes" : "NO", multi_48);

  pipeline.print_telemetry();
  return (all_fit && wrap_seen && multi_48 >= 2) ? 0 : 1;
}
