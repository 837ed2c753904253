// bench_util.h - shared scaffolding for the experiment harnesses.
//
// Every bench binary regenerates one of the paper's tables or figures
// against the simulated Internet. Most need the same pipeline front end:
// build the paper-shaped world, then take the §4 discovery funnel and (for
// the longitudinal figures) the §5 campaign from one on-disk paper chain,
// building whatever the chain lacks. This header provides that pipeline
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
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/bootstrap.h"
#include "core/campaign.h"
#include "core/inference.h"
#include "core/report.h"
#include "example_util.h"
#include "probe/prober.h"
#include "probe/target_generator.h"
#include "sim/scenario.h"
#include "telemetry/export.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace scent::bench {

/// Wall-clock stopwatch for stage banners.
class Stopwatch {
 public:
  /// Timing goes to stderr: a bench's stdout is its figure, identical at
  /// any thread count.
  void lap(const char* label) const {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    std::fprintf(stderr, "  [%6.2fs] %s\n", elapsed.count(), label);
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
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
    std::fprintf(stderr, "sweep threads: %u%s\n", g_threads,
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

/// The probing every bench uses: the logical fast path at an elevated
/// virtual rate, so multi-million-probe stages finish inside one virtual
/// day, exactly as the paper's zmap runs did in wall-clock hours.
inline const probe::ProberOptions kFastProbing{.packets_per_second = 2000000,
                                               .wire_mode = false};

/// Default artifact paths every bench shares (cwd-relative, gitignored).
inline constexpr const char* kJournalPath = ".scent_journal.jsonl";
inline constexpr const char* kTelemetryJsonPath = ".scent_telemetry.json";

/// Prints `registry`'s summary to stderr (timings stay off the figure)
/// and dumps it as JSON to kTelemetryJsonPath. False if the dump fails.
inline bool write_telemetry(const telemetry::Registry& registry) {
  telemetry::print_summary(stderr, registry);
  if (telemetry::write_json(kTelemetryJsonPath, registry)) return true;
  std::fprintf(stderr, "  warning: failed to write telemetry json %s\n",
               kTelemetryJsonPath);
  return false;
}

/// The paper chain every funnel bench shares: `funnel.txt`, the §4
/// funnel's record, plus the §5 campaign's checkpoint chain. A campaign
/// always runs through run_campaign's resume path: it replays
/// min(days, chain) days and sweeps only the days past the chain's end.
/// So one 44-day chain serves every shorter figure, and a bench's stdout
/// does not depend on what ran in the directory before. `rm -rf
/// .scent_chain` forces a fresh §4 discovery.
///
/// One writer per chain directory. A bench writes the chain when it
/// rebuilds the funnel record or asks for more days than the chain holds;
/// benches may share a chain concurrently only if none of them does.
inline constexpr const char* kChainDir = ".scent_chain";
inline const std::string kFunnelRecordPath =
    std::string{kChainDir} + "/funnel.txt";

/// What the rest of the paper chain needs from the §4 funnel: every number
/// a bench prints or publishes about it, the rotating /48s the campaign
/// probes, and the clock where the funnel left it.
struct FunnelRecord {
  std::uint64_t world_key = 0;  ///< Pipeline::world_key of its world.
  std::uint64_t clock_us = 0;   ///< clock.now() after the funnel.
  std::uint64_t probes_sent = 0;
  std::uint64_t responses = 0;  ///< The funnel.responses gauge.
  std::uint64_t seed_48s = 0;
  std::uint64_t expanded_48s = 0;
  std::uint64_t high_density_48s = 0;
  std::uint64_t total_addresses = 0;
  std::uint64_t eui64_addresses = 0;
  std::uint64_t unique_iids = 0;
  std::vector<net::Prefix> rotating_48s;
};

/// funnel.txt layout: one "name value" line per field in this order, then
/// "rotating_48s N", N prefix lines and "end".
inline constexpr std::pair<const char*, std::uint64_t FunnelRecord::*>
    kFunnelRecordFields[] = {
        {"world_key", &FunnelRecord::world_key},
        {"clock_us", &FunnelRecord::clock_us},
        {"probes_sent", &FunnelRecord::probes_sent},
        {"responses", &FunnelRecord::responses},
        {"seed_48s", &FunnelRecord::seed_48s},
        {"expanded_48s", &FunnelRecord::expanded_48s},
        {"high_density_48s", &FunnelRecord::high_density_48s},
        {"total_addresses", &FunnelRecord::total_addresses},
        {"eui64_addresses", &FunnelRecord::eui64_addresses},
        {"unique_iids", &FunnelRecord::unique_iids},
};

/// Writes `record` to `path` through a temporary file and a rename, so a
/// reader sees the old record or the whole new one. False on any I/O
/// failure.
inline bool save_funnel_record(const std::string& path,
                               const FunnelRecord& record) {
  const std::string tmp = path + ".tmp";
  std::ofstream out{tmp};
  for (const auto& [name, field] : kFunnelRecordFields) {
    out << name << ' ' << record.*field << '\n';
  }
  out << "rotating_48s " << record.rotating_48s.size() << '\n';
  for (const auto& prefix : record.rotating_48s) {
    out << prefix.to_string() << '\n';
  }
  out << "end\n";
  out.close();
  return !out.fail() && std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Reads the record at `path`. nullopt if the file is missing, malformed,
/// truncated (no "end", or fewer prefixes than it records) or was written
/// for another world than `world_key`.
[[nodiscard]] inline std::optional<FunnelRecord> load_funnel_record(
    const std::string& path, std::uint64_t world_key) {
  std::ifstream in{path};
  FunnelRecord record;
  std::string name;
  for (const auto& [expected, field] : kFunnelRecordFields) {
    if (!(in >> name >> record.*field) || name != expected) {
      return std::nullopt;
    }
  }
  std::size_t count = 0;
  if (record.world_key != world_key || !(in >> name >> count) ||
      name != "rotating_48s") {
    return std::nullopt;
  }
  while (in >> name && name != "end") {
    const auto prefix = net::Prefix::parse(name);
    if (!prefix) return std::nullopt;
    record.rotating_48s.push_back(*prefix);
  }
  // A truncated file runs out before "end", or before `count` prefixes.
  if (!in || record.rotating_48s.size() != count) return std::nullopt;
  return record;
}

/// The common world + funnel front end.
struct Pipeline {
  sim::PaperWorld world;
  sim::VirtualClock clock{sim::hours(10)};
  std::unique_ptr<probe::Prober> prober;
  FunnelRecord funnel;

  /// Per-pipeline telemetry: spans and counters from every stage land
  /// in the registry; notable events (funnel records, rotation windows,
  /// tracker hits) land in the journal at kJournalPath, attached to the
  /// registry so each stage reaches it through the one handle.
  telemetry::Registry registry;
  telemetry::Journal journal;

  /// Builds the default paper world and, with `run_funnel`, takes the §4
  /// funnel from the paper chain (kChainDir): a valid record restores the
  /// funnel and the clock it left; otherwise the whole chain is deleted,
  /// the funnel runs and its record is written.
  explicit Pipeline(bool run_funnel = true) {
    registry.set_clock(&clock);
    if (!journal.open(kJournalPath)) {
      std::fprintf(stderr, "  warning: cannot open journal %s\n",
                   kJournalPath);
    }
    journal.set_clock(&clock);
    registry.attach_journal(&journal);

    Stopwatch timer;
    {
      telemetry::Span span{&registry, "world_build"};
      world = sim::make_paper_world(sim::PaperWorldOptions{});
    }
    timer.lap("world built");

    prober =
        std::make_unique<probe::Prober>(world.internet, clock, kFastProbing);
    prober->attach_telemetry(registry);

    if (!run_funnel) return;

    const std::uint64_t key = world_key();
    if (auto record = load_funnel_record(kFunnelRecordPath, key)) {
      funnel = std::move(*record);
      clock.advance_to(static_cast<sim::TimePoint>(funnel.clock_us));
      registry.gauge("funnel.probes").set_u64(funnel.probes_sent);
      registry.gauge("funnel.responses").set_u64(funnel.responses);
      registry.gauge("funnel.eui64_addresses").set_u64(funnel.eui64_addresses);
      registry.gauge("funnel.unique_iids").set_u64(funnel.unique_iids);
      timer.lap("funnel record loaded");
    } else {
      std::error_code ec;
      std::filesystem::remove_all(kChainDir, ec);
      std::filesystem::create_directories(kChainDir, ec);
      const core::BootstrapResult result = core::run_bootstrap(
          world.internet, clock, *prober,
          {.probes_per_48 = 8, .threads = g_threads, .registry = &registry});
      funnel = FunnelRecord{key, static_cast<std::uint64_t>(clock.now()),
                            result.probes_sent, result.observations.size(),
                            result.seed_48s.size(), result.expanded_48s.size(),
                            result.high_density_48s.size(),
                            result.total_addresses, result.eui64_addresses,
                            result.unique_iids, result.rotating_48s};
      timer.lap("funnel complete");
      if (!save_funnel_record(kFunnelRecordPath, funnel)) {
        std::fprintf(stderr, "  warning: failed to write funnel record %s\n",
                     kFunnelRecordPath.c_str());
      }
    }
    std::printf("  funnel: %" PRIu64 " probes, %" PRIu64 " seed /48s, %" PRIu64
                " expanded, %" PRIu64 " high-density, %zu rotating /48s\n",
                funnel.probes_sent, funnel.seed_48s, funnel.expanded_48s,
                funnel.high_density_48s, funnel.rotating_48s.size());
  }

  /// Key of the world-shaping options: a changed world must not reuse a
  /// stale funnel record.
  [[nodiscard]] static std::uint64_t world_key(
      const sim::PaperWorldOptions& o = {}) {
    return sim::mix64(
        o.seed, sim::mix64(o.tail_as_count,
                           static_cast<std::uint64_t>(o.scale * 1000)),
        sim::mix64(o.devices_per_tail_pool, o.versatel_pool_count,
                   o.inject_pathologies ? 1 : 0));
  }

  /// Runs the §5 campaign over the funnel's rotating /48s, checkpointed
  /// into the paper chain: days the chain holds are replayed, later ones
  /// swept and appended.
  core::CampaignResult campaign(unsigned days) {
    Stopwatch timer;
    core::CampaignOptions options;
    options.days = days;
    options.threads = g_threads;
    options.checkpoint_dir = kChainDir;
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

  /// Writes the telemetry summary and JSON (write_telemetry), prints the
  /// funnel line(s) and closes the journal. Call once, after the
  /// experiment's own output. The artifact line goes to stderr: its
  /// journal event count depends on whether the run built the chain or
  /// replayed it.
  void print_telemetry() {
    std::printf("\n");
    const bool json_ok = write_telemetry(registry);
    // Funnel lines read back the gauges the stages published — the same
    // values the stage results report, so bench output and telemetry
    // output must agree exactly.
    for (const std::string stage : {"funnel", "campaign"}) {
      const auto gauge = [&](const char* name) {
        return registry.find_gauge(stage + name);
      };
      if (gauge(".probes") == nullptr) continue;
      std::printf("  %s: %" PRId64 " probes -> %" PRId64
                  " responses -> %" PRId64 " EUI-64 addrs -> %" PRId64
                  " unique IIDs\n",
                  stage == "funnel" ? "funnel" : "campaign funnel",
                  gauge(".probes")->value(), gauge(".responses")->value(),
                  gauge(".eui64_addresses")->value(),
                  gauge(".unique_iids")->value());
    }
    if (json_ok) {
      std::fprintf(stderr, "  telemetry json: %s, journal: %s (%zu events)\n",
                   kTelemetryJsonPath, journal.path().c_str(),
                   journal.events_written());
    }
    if (!journal.close()) {
      std::fprintf(stderr, "  warning: journal write failed (%s)\n",
                   journal.path().c_str());
    }
  }
};

/// One /48 probed once per /64, the view behind Figures 3 and 6.
struct AllocationMap {
  unsigned median = 0;  ///< Algorithm 1's median allocation length.
  std::uint64_t responsive_64s = 0;
  core::AllocationGrid grid;  ///< Response address per target /64.
};

inline AllocationMap map_allocations(probe::Prober& prober, net::Prefix p48,
                                     std::uint64_t seed) {
  probe::SubnetTargets targets{p48, 64, seed};
  core::AllocationSizeInference inference;
  AllocationMap map;
  net::Ipv6Address target;
  while (targets.next(target)) {
    const auto r = prober.probe_one(target);
    if (!r.responded) continue;
    ++map.responsive_64s;
    inference.observe(r.target, r.response_source);
    const int id = map.grid.intern(r.response_source.iid() ^
                                   r.response_source.network());
    map.grid.mark(r.target.byte(6), r.target.byte(7), id);
  }
  map.median = inference.median_length().value_or(0);
  return map;
}

/// `value` with `digits` decimals, for a table cell.
inline std::string fixed(double value, int digits) {
  char text[32];
  std::snprintf(text, sizeof text, "%.*f", digits, value);
  return text;
}

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
