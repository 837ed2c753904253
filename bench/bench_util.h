// bench_util.h - shared scaffolding for the experiment harnesses.
//
// Every bench binary regenerates one of the paper's tables or figures
// against the simulated Internet. Most need the same pipeline front end:
// build the paper-shaped world, run the §4 discovery funnel, then (for the
// longitudinal figures) the §5 campaign. This header provides that pipeline
// with bench-friendly defaults, the shared output helpers, and the
// telemetry plumbing: one metrics registry + event journal per pipeline,
// attached to every stage, summarized by print_telemetry() and dumped as
// JSON for the bench trajectory.
#pragma once

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/bootstrap.h"
#include "core/io.h"
#include "core/campaign.h"
#include "core/report.h"
#include "core/tracker.h"
#include "example_util.h"
#include "probe/prober.h"
#include "sim/scenario.h"
#include "telemetry/export.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace scent::bench {

/// Wall-clock stopwatch for stage banners.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void lap(const char* label) {
    std::printf("  [%6.2fs] %s\n", seconds(), label);
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Worker-thread count for every engine-backed sweep a bench runs (the
/// bootstrap funnel and campaign days). 1 = serial, 0 = hardware
/// concurrency. The engine's determinism contract makes any value produce
/// a bit-identical corpus, so figures and tables are unchanged by it.
inline unsigned g_threads = 1;

/// Resolves the thread request from the SCENT_THREADS value `env` (null
/// when unset) and any `--threads=N` flags; a flag wins over the
/// environment. Every value must pass examples::parse_threads — plain
/// decimal digits in [0, examples::kMaxThreads] — so "-1" can no longer
/// wrap to 4294967295 shards. On a bad value returns false, leaves
/// `threads` unchanged and names the offender in `bad`.
[[nodiscard]] inline bool threads_request(const char* env, int argc,
                                          char** argv, unsigned& threads,
                                          std::string& bad) {
  unsigned value = threads;
  if (env != nullptr && !examples::parse_threads(env, value)) {
    bad = std::string{"SCENT_THREADS="} + env;
    return false;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0 &&
        !examples::parse_threads(argv[i] + 10, value)) {
      bad = argv[i];
      return false;
    }
  }
  threads = value;
  return true;
}

/// Parses `--threads=N` (or the SCENT_THREADS environment variable; the
/// flag wins) into g_threads. Call first thing in main(); every bench
/// accepts the flag so any figure or table can be regenerated sharded. A
/// value that is not a thread count exits with status 2.
inline unsigned parse_threads(int argc, char** argv) {
  std::string bad;
  if (!threads_request(std::getenv("SCENT_THREADS"), argc, argv, g_threads,
                       bad)) {
    std::fprintf(stderr, "error: %s is not a number in [0, %u]\n",
                 bad.c_str(), examples::kMaxThreads);
    std::exit(2);
  }
  if (g_threads != 1) {
    std::printf("sweep threads: %u%s\n", g_threads,
                g_threads == 0 ? " (hardware concurrency)" : "");
  }
  return g_threads;
}

/// Prints the standard bench banner.
inline void banner(const char* experiment, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

/// Default artifact paths every bench shares (cwd-relative, gitignored).
inline constexpr const char* kJournalPath = ".scent_journal.jsonl";
inline constexpr const char* kTelemetryJsonPath = ".scent_telemetry.json";

/// The common world + funnel front end.
struct Pipeline {
  sim::PaperWorld world;
  sim::VirtualClock clock{sim::hours(10)};
  std::unique_ptr<probe::Prober> prober;
  core::BootstrapResult funnel;

  /// Per-pipeline telemetry: spans and counters from every stage land
  /// in the registry; notable events (funnel records, rotation windows,
  /// tracker hits) land in the journal at kJournalPath, attached to the
  /// registry so each stage reaches it through the one handle.
  telemetry::Registry registry;
  telemetry::Journal journal;

  /// Builds the world and runs the §4 funnel. Probing uses the logical
  /// fast path at an elevated virtual rate so multi-million-probe stages
  /// finish inside one virtual day, exactly as the paper's zmap runs did
  /// in wall-clock hours. The funnel's rotating-/48 list is cached on disk
  /// (keyed by world seed) so the figure benches that share the default
  /// world do not each re-pay the ~50M-probe discovery cost; pass
  /// use_cache=false to force a fresh funnel.
  explicit Pipeline(const sim::PaperWorldOptions& world_options,
                    bool run_funnel = true, bool use_cache = true) {
    registry.set_clock(&clock);
    if (!journal.open(kJournalPath)) {
      std::printf("  warning: cannot open journal %s\n", kJournalPath);
    }
    journal.set_clock(&clock);
    registry.attach_journal(&journal);

    Stopwatch timer;
    {
      telemetry::Span span{&registry, "world_build"};
      world = sim::make_paper_world(world_options);
    }
    timer.lap("world built");

    probe::ProberOptions probe_options;
    probe_options.wire_mode = false;
    probe_options.packets_per_second = 2000000;
    prober = std::make_unique<probe::Prober>(world.internet, clock,
                                             probe_options);
    prober->attach_telemetry(registry);

    if (!run_funnel) return;

    const std::string cache_path = cache_file(world_options);
    if (use_cache && load_rotating_cache(cache_path)) {
      std::printf("  funnel: %zu rotating /48s (cached: %s)\n",
                  funnel.rotating_48s.size(), cache_path.c_str());
      timer.lap("funnel loaded from cache");
      return;
    }

    core::BootstrapOptions boot;
    boot.probes_per_48 = 8;
    boot.threads = g_threads;
    boot.registry = &registry;
    funnel = core::run_bootstrap(world.internet, clock, *prober, boot);
    std::printf("  funnel: %" PRIu64 " probes, %zu seed /48s, %zu expanded, "
                "%zu high-density, %zu rotating /48s\n",
                funnel.probes_sent, funnel.seed_48s.size(),
                funnel.expanded_48s.size(), funnel.high_density_48s.size(),
                funnel.rotating_48s.size());
    timer.lap("funnel complete");
    if (use_cache) save_rotating_cache(cache_path);
  }

  /// Cache path keyed by the world-shaping options (a changed world must
  /// not reuse a stale rotating-/48 list).
  [[nodiscard]] static std::string cache_file(
      const sim::PaperWorldOptions& o) {
    const std::uint64_t key = sim::mix64(
        o.seed, sim::mix64(o.tail_as_count,
                           static_cast<std::uint64_t>(o.scale * 1000)),
        sim::mix64(o.devices_per_tail_pool, o.versatel_pool_count,
                   o.inject_pathologies ? 1 : 0));
    char name[64];
    std::snprintf(name, sizeof name, ".scent_funnel_cache_%016" PRIx64 ".txt",
                  key);
    return name;
  }

  bool load_rotating_cache(const std::string& path) {
    const auto prefixes = core::load_prefixes(path);
    if (!prefixes || prefixes->empty()) return false;
    funnel.rotating_48s = *prefixes;
    return true;
  }

  void save_rotating_cache(const std::string& path) const {
    if (!core::save_prefixes(path, funnel.rotating_48s,
                             "scent funnel cache: rotating /48s")) {
      std::printf("  warning: failed to write funnel cache %s\n",
                  path.c_str());
    }
  }

  /// Runs the §5 campaign over the funnel's rotating /48s.
  core::CampaignResult campaign(unsigned days) {
    Stopwatch timer;
    core::CampaignOptions options;
    options.days = days;
    options.threads = g_threads;
    options.registry = &registry;
    auto result = core::run_campaign(world.internet, clock, *prober,
                                     funnel.rotating_48s, options);
    std::printf("  campaign: %u days, %" PRIu64 " probes, %" PRIu64
                " responses, %zu unique IIDs\n",
                days, result.probes_sent, result.responses,
                result.observations.unique_eui64_iids());
    timer.lap("campaign complete");
    return result;
  }

  /// A tracker pre-wired to this pipeline's telemetry sinks.
  [[nodiscard]] core::Tracker make_tracker(core::TrackerConfig config) {
    config.registry = &registry;
    return core::Tracker{*prober, std::move(config)};
  }

  /// Prints the per-stage telemetry summary plus the funnel line(s), dumps
  /// the registry as JSON for the bench trajectory, and closes the
  /// journal. Call once, after the experiment's own output.
  void print_telemetry(const char* json_path = kTelemetryJsonPath) {
    std::printf("\n");
    telemetry::print_summary(stdout, registry);
    const auto gauge = [&](const char* name) -> const telemetry::Gauge* {
      return registry.find_gauge(name);
    };
    // Funnel lines read back the gauges the stages published — the same
    // values the stage results report, so bench output and telemetry
    // output must agree exactly.
    if (gauge("funnel.probes") != nullptr) {
      std::printf("  funnel: %" PRId64 " probes -> %" PRId64
                  " responses -> %" PRId64 " EUI-64 addrs -> %" PRId64
                  " unique IIDs\n",
                  gauge("funnel.probes")->value(),
                  gauge("funnel.responses")->value(),
                  gauge("funnel.eui64_addresses")->value(),
                  gauge("funnel.unique_iids")->value());
    }
    if (gauge("campaign.probes") != nullptr) {
      std::printf("  campaign funnel: %" PRId64 " probes -> %" PRId64
                  " responses -> %" PRId64 " EUI-64 addrs -> %" PRId64
                  " unique IIDs\n",
                  gauge("campaign.probes")->value(),
                  gauge("campaign.responses")->value(),
                  gauge("campaign.eui64_addresses")->value(),
                  gauge("campaign.unique_iids")->value());
    }
    if (telemetry::write_json(json_path, registry)) {
      std::printf("  telemetry json: %s, journal: %s (%zu events)\n",
                  json_path, journal.path().c_str(),
                  journal.events_written());
    } else {
      std::printf("  warning: failed to write telemetry json %s\n", json_path);
    }
    if (!journal.close()) {
      std::printf("  warning: journal write failed (%s)\n",
                  journal.path().c_str());
    }
  }
};

/// Prints a CDF as a fixed set of (value, fraction) steps.
inline void print_cdf(const char* title, const core::Cdf& cdf,
                      const char* value_label) {
  std::printf("\n%s  (n=%zu)\n", title, cdf.size());
  std::printf("  %-14s cum.fraction\n", value_label);
  for (const auto& [value, fraction] : cdf.steps()) {
    std::printf("  %-14.6g %.4f\n", value, fraction);
  }
}

/// Compact quantile summary for wide CDFs.
inline void print_quantiles(const char* title, const core::Cdf& cdf) {
  std::printf("%s: min=%g p10=%g p25=%g p50=%g p75=%g p90=%g max=%g (n=%zu)\n",
              title, cdf.min(), cdf.quantile(0.10), cdf.quantile(0.25),
              cdf.quantile(0.50), cdf.quantile(0.75), cdf.quantile(0.90),
              cdf.max(), cdf.size());
}

}  // namespace scent::bench
