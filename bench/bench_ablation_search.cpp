// bench_ablation_search - ablations of the paper's search-space reductions.
//
// The paper's Figure 2 argument: the customer allocation size bounds the
// search from above and the rotation pool from below. This harness
// quantifies each reduction separately on a Versatel-like /32 target,
// plus the §5.4 stride predictor as a third (beyond-paper) level:
//
//   strategy                          expected probes to re-find a device
//   naive: every /64 of the /32       ~2^31 (never completes here)
//   pool-bounded: every /64 of /46    ~2^17
//   + allocation-aware: every /56     ~2^9   (the paper's 256x saving)
//   + stride prediction               ~1     (beyond-paper extension)
//
// Shape to reproduce: each level cuts expected probes by orders of
// magnitude; the measured ratios match the arithmetic.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/tracker.h"

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Ablation - search-space reduction levels (Figure 2, §3.2)",
                "pool bound ~2^17 probes, allocation-aware ~2^9, stride "
                "prediction ~1");

  bench::Pipeline pipeline{/*run_funnel=*/false};
  const auto& versatel =
      pipeline.world.internet.provider(pipeline.world.versatel);
  const auto& pool = versatel.pools()[0];

  constexpr std::size_t kDevices = 12;
  constexpr int kDays = 5;

  struct Level {
    const char* name;
    net::Prefix search;
    unsigned granularity;
    bool predict;
  };
  const Level levels[] = {
      {"pool /46, per-/64 sweep", pool.config().prefix, 64, false},
      {"pool /46, per-/56 sweep (allocation-aware)", pool.config().prefix,
       56, false},
      {"pool /46, per-/56 + stride prediction", pool.config().prefix, 56,
       true},
  };

  // Victims: EUI-64 devices that answer probes (an attacker tracking a
  // privacy-mode or silent CPE has no scent to follow in any strategy).
  std::vector<net::MacAddress> victims;
  for (const auto& device : pool.devices()) {
    if (victims.size() >= kDevices) break;
    if (device.mode == sim::AddressingMode::kEui64 &&
        device.error_behavior != sim::ErrorBehavior::kSilent) {
      victims.push_back(device.mac);
    }
  }

  core::TextTable table{
      {"strategy", "mean probes/day", "steady-state (day 2+)", "found rate"}};
  double means[3] = {0, 0, 0};
  double steady_means[3] = {0, 0, 0};
  int level_index = 0;
  for (const auto& level : levels) {
    // Each level replays the same virtual week with its own clock (and its
    // own prober bound to it), so strategies are compared like for like.
    sim::VirtualClock clock{sim::hours(12)};
    probe::Prober prober{pipeline.world.internet, clock, bench::kFastProbing};

    double total_probes = 0;
    double steady_probes = 0;  // days 2+ only: past the warm-up sweeps
    int steady_attempts = 0;
    int total_attempts = 0;
    int total_found = 0;
    // Day-outer iteration: all trackers live through the same advancing
    // week (a per-device inner day loop would freeze the shared clock for
    // every device after the first).
    std::vector<core::Tracker> trackers;
    for (std::size_t d = 0; d < victims.size(); ++d) {
      core::TrackerConfig config;
      config.target_mac = victims[d];
      config.pool = level.search;
      config.allocation_length = level.granularity;
      config.seed = sim::mix64(0xAB1A, d);
      trackers.emplace_back(prober, config);
    }
    for (int day = 0; day < kDays; ++day) {
      clock.advance_to(sim::days(day) + sim::hours(12));
      for (auto& tracker : trackers) {
        if (level.predict && day >= 2) tracker.update_prediction();
        const auto attempt = tracker.locate(day);
        total_probes += static_cast<double>(attempt.probes_sent);
        ++total_attempts;
        total_found += attempt.found ? 1 : 0;
        if (day >= 2) {
          steady_probes += static_cast<double>(attempt.probes_sent);
          ++steady_attempts;
        }
      }
    }
    const double mean = total_probes / total_attempts;
    const double steady = steady_probes / steady_attempts;
    means[level_index] = mean;
    steady_means[level_index] = steady;
    ++level_index;
    table.add_row({level.name, bench::fixed(mean, 1), bench::fixed(steady, 1),
                   bench::fixed(static_cast<double>(total_found) /
                                    total_attempts, 2)});
  }

  // The naive level is arithmetic, not measurement: a /32 swept per /64.
  std::printf("\n(naive reference: a /32 swept per-/64 needs ~%.2e probes "
              "per attempt — 5 days at 10kpps, §6)\n", std::pow(2.0, 31));
  table.print(std::cout);

  std::printf("\nreduction factors (steady state): per-/64 -> per-/56: "
              "%.1fx; per-/56 -> predicted: %.0fx\n",
              steady_means[0] / steady_means[1],
              steady_means[1] / steady_means[2]);
  std::printf("(note: per-/56 halves *expected* time-to-hit vs per-/64 — any "
              "probe into the victim's /56 answers — but cuts the sweep "
              "budget and full-enumeration cost 256x, §3.2.1)\n");

  const bool ok = means[0] > 1.5 * means[1] &&
                  steady_means[1] > 20 * steady_means[2] &&
                  steady_means[2] < 10;
  std::printf("shape check: %s\n", ok ? "yes" : "NO");

  pipeline.print_telemetry();
  return ok ? 0 : 1;
}
