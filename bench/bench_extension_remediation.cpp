// bench_extension_remediation - beyond-paper: the §8 fix rolling out.
//
// The paper's disclosure led a major CPE vendor to replace EUI-64 SLAAC
// with privacy extensions "in the next release of their OS". This harness
// models that rollout: a Versatel-like fleet receives the firmware upgrade
// in waves, and an attacker keeps running the §6 tracking attack against a
// panel of victims. Tracking success decays exactly with upgrade coverage —
// and, crucially, upgraded devices still answer probes (availability is
// unaffected); they are simply unlinkable.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/tracker.h"

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Extension - EUI-64 deprecation rollout vs tracking (§8)",
                "vendor ships privacy extensions; tracking success decays "
                "with upgrade coverage, reaching zero at full deployment");

  core::TextTable table{{"upgraded fraction", "victims still trackable",
                         "track rate (days 10-13)"}};

  telemetry::Registry registry;

  bool monotone = true;
  double last_rate = 1.1;
  double rate_at_zero = 0;
  double rate_at_full = 1;
  for (const double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    sim::PaperWorld world = sim::make_tiny_world(0x06F5, 256);
    // Upgrade wave lands during days 2-8.
    sim::schedule_privacy_upgrades(world.internet, world.versatel, fraction,
                                   sim::days(2), sim::days(8), 0xF1);

    sim::VirtualClock clock{sim::hours(12)};
    probe::Prober prober{world.internet, clock, bench::kFastProbing};
    registry.set_clock(&clock);
    prober.attach_telemetry(registry);
    char wave_name[32];
    std::snprintf(wave_name, sizeof wave_name, "rollout_%.0f%%",
                  fraction * 100);
    telemetry::Span wave_span{&registry, wave_name};
    const auto& pool = world.internet.provider(world.versatel).pools()[0];

    // A panel of 24 victims tracked daily for two weeks.
    constexpr std::size_t kVictims = 24;
    std::vector<core::Tracker> trackers;
    for (std::size_t v = 0; v < kVictims; ++v) {
      core::TrackerConfig config;
      config.target_mac = pool.devices()[v * 9].mac;
      config.pool = pool.config().prefix;
      config.allocation_length = pool.config().allocation_length;
      config.seed = sim::mix64(0x06F5, v);
      config.registry = &registry;
      trackers.emplace_back(prober, config);
    }

    std::size_t late_found = 0;
    std::size_t late_attempts = 0;
    std::size_t still_trackable = 0;
    std::vector<bool> found_late(kVictims, false);
    for (std::int64_t day = 0; day < 14; ++day) {
      clock.advance_to(sim::days(day) + sim::hours(12));
      for (std::size_t v = 0; v < kVictims; ++v) {
        const auto attempt = trackers[v].locate(day);
        if (day >= 10) {
          ++late_attempts;
          if (attempt.found) {
            ++late_found;
            found_late[v] = true;
          }
        }
      }
    }
    for (const bool f : found_late) still_trackable += f ? 1 : 0;

    const double rate = static_cast<double>(late_found) /
                        static_cast<double>(late_attempts);
    if (fraction == 0.0) rate_at_zero = rate;
    if (fraction == 1.0) rate_at_full = rate;
    if (rate > last_rate + 0.05) monotone = false;
    last_rate = rate;

    table.add_row({bench::fixed(fraction * 100, 0) + "%",
                   std::to_string(still_trackable) + "/" +
                       std::to_string(kVictims),
                   bench::fixed(rate, 2)});
  }

  table.print(std::cout);
  std::printf("\n(track rate = post-rollout daily re-identification success "
              "across the victim panel)\n");

  registry.set_clock(nullptr);
  bench::write_telemetry(registry);

  const bool ok = monotone && rate_at_zero > 0.95 && rate_at_full < 0.05;
  std::printf("\nshape check: monotone_decay=%s full_fix_untrackable=%s\n",
              monotone ? "yes" : "NO", rate_at_full < 0.05 ? "yes" : "NO");
  return ok ? 0 : 1;
}
