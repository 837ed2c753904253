// bench_fig10_pool_density - reproduces Figure 10: rotation pool dynamics.
//
// Paper: probing an AS8881 /46 rotation pool hourly for a week shows that
// prefix reassignment happens almost entirely between 00:00 and 06:00, and
// that on any given day one /48 of the pool holds the majority of EUI-64
// addresses, one holds almost none, and the other two exchange density in
// opposite directions.
//
// Shape to reproduce: address movement concentrated in the early-morning
// window; skewed per-/48 densities whose ranks shift across days.
#include <array>
#include <set>
#include <cstdio>
#include <unordered_set>

#include "bench_util.h"

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Figure 10 - /46 rotation pool density over a week, hourly",
                "reassignment at 00:00-06:00; one /48 dense, one empty, two "
                "in transition");

  bench::Pipeline pipeline{/*run_funnel=*/false};

  const auto& pool = pipeline.world.internet.provider(pipeline.world.versatel)
                         .pools()[0];
  const net::Prefix pool_prefix = pool.config().prefix;
  constexpr int kHours = 7 * 24;

  // Hourly sweep: one probe per /56; count EUI-64 responders per /48.
  // Movement compares each MAC's slot *set* between consecutive sweeps so
  // that a vendor-reused MAC occupying several slots at once (the §5.5
  // pathology, planted in this pool) does not register as perpetual motion.
  std::vector<std::array<std::size_t, 4>> density(kHours);
  std::vector<std::size_t> moved(kHours, 0);
  std::unordered_map<net::MacAddress, std::set<std::uint64_t>,
                     net::MacAddressHash>
      last_slots;

  for (int hour = 0; hour < kHours; ++hour) {
    pipeline.clock.advance_to(sim::hours(hour));
    const auto results =
        pipeline.prober->sweep_subnets(pool_prefix, 56, 0xF10);
    std::array<std::size_t, 4> counts{};
    std::unordered_map<net::MacAddress, std::set<std::uint64_t>,
                       net::MacAddressHash>
        slots;
    for (const auto& r : results) {
      if (!net::is_eui64(r.response_source)) continue;
      const std::uint64_t idx =
          r.response_source.network() - pool_prefix.base().network();
      ++counts[(idx >> 16) & 3];
      slots[*net::embedded_mac(r.response_source)].insert(idx);
    }
    for (const auto& [mac, current] : slots) {
      const auto it = last_slots.find(mac);
      if (it == last_slots.end()) continue;
      bool overlap = false;
      for (const std::uint64_t s : current) {
        if (it->second.contains(s)) {
          overlap = true;
          break;
        }
      }
      if (!overlap) ++moved[hour];
    }
    last_slots = std::move(slots);
    density[hour] = counts;
  }

  // Print one row every 3 hours for days 1-3 (day 0 has no prior state).
  std::printf("\nhour-of-week  /48#0  /48#1  /48#2  /48#3  moved\n");
  for (int hour = 24; hour < 4 * 24; hour += 3) {
    std::printf("d%u %02u:00     %5zu  %5zu  %5zu  %5zu  %5zu\n",
                static_cast<unsigned>(hour / 24),
                static_cast<unsigned>(hour % 24), density[hour][0],
                density[hour][1], density[hour][2], density[hour][3],
                moved[hour]);
  }

  // Shape checks. (1) Movement is confined to the 00:00-06:00 window.
  std::size_t window_moves = 0;
  std::size_t outside_moves = 0;
  for (int hour = 24; hour < kHours; ++hour) {
    if (hour % 24 <= 6) {
      window_moves += moved[hour];
    } else {
      outside_moves += moved[hour];
    }
  }
  std::printf("\nmovement inside 00:00-06:00 window: %zu; outside: %zu\n",
              window_moves, outside_moves);

  // (2) Daily density skew at noon: max /48 well above min /48, and the
  // dense /48 changes identity across the week.
  std::unordered_set<int> dense_48s;
  bool skew_every_day = true;
  for (int day = 0; day < 7; ++day) {
    const auto& counts = density[day * 24 + 12];
    std::size_t max_c = 0;
    std::size_t min_c = SIZE_MAX;
    int argmax = 0;
    for (int k = 0; k < 4; ++k) {
      if (counts[static_cast<std::size_t>(k)] > max_c) {
        max_c = counts[static_cast<std::size_t>(k)];
        argmax = k;
      }
      min_c = std::min(min_c, counts[static_cast<std::size_t>(k)]);
    }
    dense_48s.insert(argmax);
    if (max_c < 2 * (min_c + 1)) skew_every_day = false;
    std::printf("day %d noon: dense=/48#%d (%zu) sparse=%zu\n", day, argmax,
                max_c, min_c);
  }

  const bool ok = window_moves > 20 * (outside_moves + 1) &&
                  skew_every_day && dense_48s.size() >= 2;
  std::printf("\nshape check: window_confined=%s daily_skew=%s "
              "dense_48_rotates=%s\n",
              window_moves > 20 * (outside_moves + 1) ? "yes" : "NO",
              skew_every_day ? "yes" : "NO",
              dense_48s.size() >= 2 ? "yes" : "NO");

  pipeline.print_telemetry();
  return ok ? 0 : 1;
}
