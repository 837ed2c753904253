// track_device.cpp - the §6 attack, end to end, against one victim.
//
// An off-path "attacker" (this program) knows only a victim CPE's EUI-64
// IID (e.g. harvested once from a web log or a previous scan). It infers
// the provider's allocation size and the device's rotation pool purely by
// probing, then re-locates the victim every day for a week as the provider
// rotates its prefix — finally learning the rotation stride well enough to
// predict tomorrow's prefix before probing it.

#include <cstdio>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "core/observation.h"
#include "core/tracker.h"
#include "probe/prober.h"
#include "sim/scenario.h"
#include "telemetry/export.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"

#include "example_util.h"

int main(int argc, char** argv) {
  using namespace scent;

  // --out-dir=DIR routes the per-attempt tracker journal.
  const examples::Cli cli = examples::Cli::parse(argc, argv);
  if (const int rc = cli.require_valid()) return rc;
  examples::TraceSink trace_sink{cli};

  sim::PaperWorld world = sim::make_tiny_world(0xCA5E, 64);
  sim::VirtualClock clock{sim::hours(12)};
  probe::ProberOptions popt;
  popt.packets_per_second = 10000;  // the paper's probing rate
  popt.wire_mode = true;            // real packets end to end
  probe::Prober prober{world.internet, clock, popt};

  telemetry::Registry registry;
  registry.set_clock(&clock);
  prober.attach_telemetry(registry);
  telemetry::Journal journal;
  journal.open(cli.path("track_device_journal.jsonl"));
  journal.set_clock(&clock);
  registry.attach_journal(&journal);
  registry.attach_trace(trace_sink.collector());

  const auto& provider = world.internet.provider(world.versatel);
  const auto& pool = provider.pools()[0];

  // The victim: device 17. The attacker knows only its MAC (== EUI-64 IID).
  const net::MacAddress victim_mac = pool.devices()[17].mac;
  std::printf("victim EUI-64 IID: %s (vendor MAC %s)\n\n",
              net::Ipv6Address{0, net::mac_to_eui64(victim_mac)}
                  .to_string()
                  .c_str(),
              victim_mac.to_string().c_str());

  // --- Inference. Algorithm 1 (allocation size) needs a *single day* of
  // per-/64 probing: across days, rotation moves devices between targets
  // and would inflate the apparent allocation — the noise the paper's §5.2
  // warns about. Algorithm 2 (rotation pool) wants the opposite: as many
  // days as possible, and only needs the response addresses, so the cheap
  // one-probe-per-/56 sweep suffices.
  core::ObservationStore store;
  {
    clock.advance_to(sim::hours(12));
    store.add_all(prober.sweep_subnets(pool.config().prefix, 64, 0xDA5E));
  }
  const std::size_t day0_rows = store.size();
  for (int day = 1; day < 5; ++day) {
    clock.advance_to(sim::days(day) + sim::hours(12));
    store.add_all(prober.sweep_subnets(pool.config().prefix, 56,
                                       0xDA5E + day));
  }
  // Both algorithms derive from one aggregate table built in a single fused
  // pass over the corpus; Algorithm 1 reads only the day-0 target spans (the
  // [0, day0_rows) window), Algorithm 2 the full-week response spans.
  analysis::AnalysisOptions aopt;
  aopt.attribute = false;
  aopt.collect_sightings = false;
  const analysis::AggregateTable day0 = analysis::analyze(
      analysis::StoreInput{store, 0, day0_rows}, nullptr, aopt, &registry);
  const analysis::AggregateTable week =
      analysis::analyze(store, nullptr, aopt, &registry);
  const unsigned alloc_len = analysis::allocation_median(day0).value_or(56);
  const unsigned pool_len = analysis::pool_median(week).value_or(48);
  const auto victim_pool = analysis::pool_for(week, victim_mac, pool_len);
  std::printf("inferred: allocation /%u, rotation pool /%u -> search %s\n\n",
              alloc_len, pool_len,
              victim_pool ? victim_pool->to_string().c_str() : "(unknown)");
  if (!victim_pool) return 1;

  // --- Tracking: a week of daily re-location.
  core::TrackerConfig config;
  config.target_mac = victim_mac;
  config.pool = *victim_pool;
  config.allocation_length = alloc_len;
  config.seed = 0x7AC;
  config.registry = &registry;
  core::Tracker tracker{prober, config};

  std::printf("day  probes  method      victim address\n");
  for (std::int64_t day = 5; day < 12; ++day) {
    clock.advance_to(sim::days(day) + sim::hours(12));
    if (day >= 7) tracker.update_prediction();
    const auto attempt = tracker.locate(day);
    std::printf("%3lld  %6llu  %-10s  %s\n", static_cast<long long>(day),
                static_cast<unsigned long long>(attempt.probes_sent),
                attempt.found_by_prediction ? "predicted" : "sweep",
                attempt.found ? attempt.address.to_string().c_str()
                              : "(not found)");
    if (!attempt.found) return 1;

    // Verify against simulator ground truth: the attack really did follow
    // the right device.
    const auto truth = provider.wan_address({0, 17}, clock.now());
    if (attempt.address != truth) {
      std::printf("MISMATCH vs ground truth %s\n", truth.to_string().c_str());
      return 1;
    }
  }

  std::printf("\nthe victim's prefix rotated daily, yet every address above "
              "is the same household.\n");

  std::printf("\n");
  telemetry::print_summary(stdout, registry);
  if (journal.close()) {
    std::printf("  journal: %s (%zu events)\n",
                cli.path("track_device_journal.jsonl").c_str(),
                journal.events_written());
  }
  return trace_sink.finish() ? 0 : 1;
}
