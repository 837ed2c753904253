// bench_ablation_detection - ablations of the §4 rotation-detection design.
//
// Two design choices the paper discusses but does not sweep:
//   1. Snapshot spacing/count: two snapshots 24h apart miss providers whose
//      rotation period exceeds a day; more snapshots widen the window at
//      linear probe cost.
//   2. Churn threshold: the paper deliberately flags a /48 on *any* changed
//      <target, response> pair to catch gradual rotation; a stricter
//      threshold trades false positives (service churn) for false negatives
//      (slow rotators).
//
// Ground truth from the simulator (which pools actually rotate) scores
// precision/recall for each setting — the measurement-validation step the
// real study could not perform.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/rotation_detector.h"
#include "probe/target_generator.h"

namespace {

using namespace scent;

/// A focused world: one daily rotator, one 3-day rotator, one static
/// provider with service churn (the §4.3 false-positive source).
sim::PaperWorld detection_world(std::uint64_t seed) {
  sim::WorldBuilder builder{seed};
  sim::PaperWorld world;

  const auto add = [&](routing::Asn asn, const char* name, const char* cc,
                       const char* advert, sim::RotationPolicy::Kind kind,
                       sim::Duration period, double churn) {
    sim::ProviderSpec spec;
    spec.asn = asn;
    spec.name = name;
    spec.country = cc;
    spec.advertisement = *net::Prefix::parse(advert);
    spec.vendors = {{net::Oui{0x3810d5}, 1.0}};
    spec.eui64_fraction = 1.0;
    spec.low_byte_fraction = 0.0;
    spec.silent_fraction = 0.0;
    spec.churn_fraction = churn;
    sim::PoolSpec pool;
    pool.pool_length = 48;
    pool.allocation_length = 56;
    pool.rotation.kind = kind;
    pool.rotation.period = period;
    pool.rotation.stride = 61;
    pool.device_count = 200;
    spec.pools.push_back(pool);
    return builder.add_provider(spec);
  };

  world.versatel = add(65101, "DailyRotator", "DE", "2001:db8::/40",
                       sim::RotationPolicy::Kind::kStride, sim::kDay, 0.0);
  world.ote = add(65102, "SlowRotator", "GR", "2a02:580::/40",
                  sim::RotationPolicy::Kind::kShuffle, sim::days(3), 0.0);
  world.viettel = add(65103, "StaticChurny", "VN", "2406:da00::/40",
                      sim::RotationPolicy::Kind::kStatic, sim::kDay, 0.10);
  world.internet = builder.take();
  return world;
}

struct Score {
  bool daily = false;
  bool slow = false;
  bool churny = false;
  std::uint64_t probes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  bench::banner("Ablation - snapshot count and churn threshold (§4.3)",
                "2 snapshots @24h catch daily rotators, miss slow ones; "
                "any-change threshold admits churn false positives");

  core::TextTable table{{"snapshots", "threshold", "daily(TP)", "slow(TP)",
                         "static-churny(FP)", "probes"}};
  // Shape: the paper's setting (2 snapshots, threshold 0) must catch the
  // daily rotator; 5 snapshots at threshold 0 must catch the slow one too.
  bool paper_setting_daily = false;
  bool five_snapshot_slow = false;

  telemetry::Registry registry;

  for (const unsigned snapshots : {2u, 3u, 5u}) {
    for (const std::uint64_t threshold : {0ULL, 2ULL, 8ULL}) {
      sim::PaperWorld world = detection_world(0xDE7EC7);
      sim::VirtualClock clock{sim::hours(10)};
      probe::Prober prober{world.internet, clock, bench::kFastProbing};
      registry.set_clock(&clock);
      prober.attach_telemetry(registry);
      char setting_name[48];
      std::snprintf(setting_name, sizeof setting_name,
                    "detect_s%u_t%llu", snapshots,
                    static_cast<unsigned long long>(threshold));
      telemetry::Span setting_span{&registry, setting_name};

      const net::Prefix pools[3] = {
          net::Prefix{world.internet.provider(world.versatel)
                          .pools()[0].config().prefix.base(), 48},
          net::Prefix{world.internet.provider(world.ote)
                          .pools()[0].config().prefix.base(), 48},
          net::Prefix{world.internet.provider(world.viettel)
                          .pools()[0].config().prefix.base(), 48},
      };

      // Take N snapshots 24h apart; flag a /48 if ANY consecutive pair
      // reports churn above the threshold.
      std::vector<core::Snapshot> snaps(snapshots);
      std::uint64_t probes = 0;
      for (unsigned s = 0; s < snapshots; ++s) {
        clock.advance_to(sim::days(s) + sim::hours(10));
        for (const auto& p48 : pools) {
          probe::SubnetTargets targets{p48, 64, 0x57A9};
          net::Ipv6Address target;
          while (targets.next(target)) {
            ++probes;
            const auto r = prober.probe_one(target);
            if (r.responded) snaps[s].record(r.target, r.response_source);
          }
        }
      }

      Score score;
      score.probes = probes;
      for (unsigned s = 0; s + 1 < snapshots; ++s) {
        for (const auto& v : core::detect_rotation(snaps[s], snaps[s + 1],
                                                   threshold, &registry)) {
          if (!v.rotating) continue;
          if (pools[0].contains(v.prefix)) score.daily = true;
          if (pools[1].contains(v.prefix)) score.slow = true;
          if (pools[2].contains(v.prefix)) score.churny = true;
        }
      }

      if (threshold == 0 && snapshots == 2) paper_setting_daily = score.daily;
      if (threshold == 0 && snapshots == 5) five_snapshot_slow = score.slow;
      table.add_row({std::to_string(snapshots), std::to_string(threshold),
                     score.daily ? "detected" : "missed",
                     score.slow ? "detected" : "missed",
                     score.churny ? "flagged" : "clean",
                     std::to_string(score.probes)});
    }
  }

  std::printf("\n(ground truth: DailyRotator and SlowRotator rotate; "
              "StaticChurny does not but has 10%% service churn)\n\n");
  table.print(std::cout);

  registry.set_clock(nullptr);
  bench::write_telemetry(registry);

  const bool ok = paper_setting_daily && five_snapshot_slow;
  std::printf("\nshape check: paper_setting_catches_daily=%s "
              "five_snapshots_catch_slow=%s\n",
              paper_setting_daily ? "yes" : "NO",
              five_snapshot_slow ? "yes" : "NO");
  return ok ? 0 : 1;
}
