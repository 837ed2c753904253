// serve_tracker.cpp - live queries against a campaign in flight (§5k).
//
// Runs a checkpointing daily campaign with a serve sink: every completed
// day is applied to a ServeTable as one delta and published as an
// immutable TableVersion, while concurrent query threads — the
// "tracker's operators" — pin the current version lock-free and run
// derive.h reports (pool/allocation medians, per-device pools, sighting
// histories, AS rollups) against it the whole time. No reader ever
// blocks a delta apply, and no delta apply ever tears a read: a pinned
// version stays frozen until its shared_ptr drops.
//
// Flags (shared ones in example_util.h):
//   --threads=N          sweep + delta-scan shards
//   --out-dir=DIR        checkpoint directory (resume replays the chain
//                        into the ServeTable before live days continue)
//   --days=N             campaign length (default 6)
//   --query-threads=N    concurrent reader threads (default 2)
//   --kill-after-day=K   exit hard with status 42 right after day K
//                        commits — rerun with the same arguments and the
//                        resumed ServeTable answers identically
//   --digest-only        print only the final version digest (the
//                        kill+resume harness's equality check)
//
// The digest folds every field of the final TableVersion — device
// aggregates, per-AS spans, rollups, both rotation windows — so two runs
// printing the same digest serve byte-identical answers.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "analysis/derive.h"
#include "core/campaign.h"
#include "core/rotation_detector.h"
#include "probe/prober.h"
#include "serve/serve_table.h"
#include "sim/rng.h"
#include "sim/scenario.h"
#include "telemetry/metrics.h"

#include "example_util.h"

namespace {

using namespace scent;

/// Order-sensitive digest of everything a reader could observe in the
/// version. threads_used is deliberately excluded — it is execution
/// metadata, and the whole point is that the answers do not depend on it.
std::uint64_t version_digest(const serve::TableVersion& v) {
  std::uint64_t d = 0x5EE0D16E57ULL;
  d = sim::mix64(d, v.version, static_cast<std::uint64_t>(v.day));
  d = sim::mix64(d, v.delta_rows, v.table.rows_scanned);
  d = sim::mix64(d, v.table.eui_rows, v.table.devices.size());
  for (const auto& [mac, dev] : v.table.devices) {
    d = sim::mix64(d, mac.bits(), dev.oui);
    d = sim::mix64(d, dev.observations, dev.day_bits);
    d = sim::mix64(d, dev.target_lo, dev.target_hi);
    d = sim::mix64(d, dev.response_lo, dev.response_hi);
    d = sim::mix64(d, static_cast<std::uint64_t>(dev.first_day),
                   static_cast<std::uint64_t>(dev.last_day));
    for (const auto& span : dev.per_as) {
      d = sim::mix64(d, span.asn, span.observations);
      d = sim::mix64(d, span.target_lo, span.target_hi);
      d = sim::mix64(d, span.response_lo, span.response_hi);
      for (const std::int64_t day : span.days.values()) {
        d = sim::mix64(d, static_cast<std::uint64_t>(day), 0x0DA1);
      }
    }
    for (const auto& s : dev.sightings) {
      d = sim::mix64(d, static_cast<std::uint64_t>(s.day), s.network);
    }
  }
  for (const auto& rollup : v.table.as_rollups) {
    d = sim::mix64(d, rollup.asn, rollup.observations);
    d = sim::mix64(d, rollup.devices, rollup.country.size());
  }
  const auto fold_window = [&d](const core::Snapshot& snap) {
    for (const auto& [target, response] : snap.map()) {
      d = sim::mix64(d, target.network(), target.iid());
      d = sim::mix64(d, response.network(), response.iid());
    }
  };
  fold_window(v.day_window);
  fold_window(v.prev_window);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scent;

  const examples::Cli cli = examples::Cli::parse(argc, argv);
  if (const int rc = cli.require_valid()) return rc;
  unsigned days = 6;
  unsigned query_threads = 2;
  long kill_after_day = -1;
  bool digest_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--days=", 7) == 0) {
      days = static_cast<unsigned>(std::strtoul(argv[i] + 7, nullptr, 10));
    } else if (std::strncmp(argv[i], "--query-threads=", 16) == 0) {
      query_threads =
          static_cast<unsigned>(std::strtoul(argv[i] + 16, nullptr, 10));
    } else if (std::strncmp(argv[i], "--kill-after-day=", 17) == 0) {
      kill_after_day = std::strtol(argv[i] + 17, nullptr, 10);
    } else if (std::strcmp(argv[i], "--digest-only") == 0) {
      digest_only = true;
    }
  }

  sim::PaperWorld world = sim::make_tiny_world(0xC4A1, 48);
  sim::VirtualClock clock{sim::hours(10)};
  probe::Prober prober{world.internet, clock,
                       {.packets_per_second = 1000000, .wire_mode = false}};

  std::vector<net::Prefix> targets;
  const auto& pool = world.internet.provider(world.versatel).pools()[0];
  for (std::uint64_t i = 0; i < 4; ++i) {
    targets.push_back(net::Prefix{
        pool.config().prefix.subnet(48, net::Uint128{i}).base(), 48});
  }

  telemetry::Registry registry;
  registry.set_clock(&clock);
  prober.attach_telemetry(registry);
  examples::TraceSink trace_sink{cli};

  serve::ServeOptions serve_options;
  serve_options.threads = cli.threads;
  serve_options.bgp = &world.internet.bgp();
  serve_options.registry = &registry;
  serve_options.trace = trace_sink.collector();
  serve::ServeTable table{serve_options};

  // Reader threads: pin the current version, run the day's reports
  // against it, repeat until the campaign finishes. They start before the
  // campaign (current() returns nullptr until the first publish) and see
  // every version go by.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  readers.reserve(query_threads);
  for (unsigned t = 0; t < query_threads; ++t) {
    readers.emplace_back([&table, &done, &queries] {
      std::uint64_t local = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto version = table.current();
        if (version == nullptr) {
          std::this_thread::yield();
          continue;
        }
        // A pinned TableVersion converts to const AggregateTable&, so the
        // derive.h reports take it directly.
        const auto alloc_median = analysis::allocation_median(*version);
        const auto rotation_pool_median = analysis::pool_median(*version);
        (void)alloc_median;
        (void)rotation_pool_median;
        local += 2;
        if (!version->table.devices.empty()) {
          const net::MacAddress mac = version->table.devices.begin()->first;
          if (const auto len = analysis::pool_length_for(*version, mac)) {
            (void)analysis::pool_for(*version, mac, *len);
          }
          (void)analysis::sightings_of(*version, mac);
          local += 2;
        }
      }
      queries.fetch_add(local, std::memory_order_relaxed);
    });
  }

  core::CampaignOptions options;
  options.days = days;
  options.threads = cli.threads;
  options.checkpoint_dir = cli.out_dir;
  options.registry = &registry;
  options.trace = trace_sink.collector();
  options.serve = &table;
  unsigned committed = 0;
  options.on_day_complete = [&](const core::DaySummary& summary) {
    if (!digest_only) {
      const auto version = table.current();
      std::printf("  day %lld served: version %llu, %zu devices, pool "
                  "median /%u\n",
                  static_cast<long long>(summary.day),
                  static_cast<unsigned long long>(
                      version != nullptr ? version->version : 0),
                  version != nullptr ? version->table.devices.size() : 0,
                  version != nullptr
                      ? analysis::pool_median(*version).value_or(0)
                      : 0);
    }
    if (kill_after_day >= 0 &&
        ++committed == static_cast<unsigned>(kill_after_day) + 1) {
      std::_Exit(42);
    }
  };

  const std::uint64_t wall_start = telemetry::TraceRecorder::now_wall_ns();
  const core::CampaignResult result =
      run_campaign(world.internet, clock, prober, targets, options);
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  const std::uint64_t wall_ns =
      telemetry::TraceRecorder::now_wall_ns() - wall_start;
  if (!trace_sink.finish()) return 1;

  const auto version = table.current();
  if (version == nullptr) {
    std::fprintf(stderr, "no version published\n");
    return 1;
  }
  const std::uint64_t digest = version_digest(*version);
  if (digest_only) {
    std::printf("%016llx\n", static_cast<unsigned long long>(digest));
    return result.checkpoint_ok ? 0 : 1;
  }

  const std::uint64_t total_queries =
      queries.load(std::memory_order_relaxed) + table.reads();
  std::printf("\ncampaign: %u days (%u resumed), %zu observations, "
              "%llu versions published\n",
              days, result.resumed_days, result.observations.size(),
              static_cast<unsigned long long>(table.versions_published()));
  std::printf("readers: %u threads, %llu version pins, %llu queries "
              "(%.0f queries/s against live ingest)\n",
              query_threads,
              static_cast<unsigned long long>(table.reads()),
              static_cast<unsigned long long>(total_queries),
              wall_ns > 0 ? 1e9 * static_cast<double>(total_queries) /
                                static_cast<double>(wall_ns)
                          : 0.0);

  // The final version carries the last two day windows — the §4.3
  // detector's inputs — so "did anything rotate overnight" is one call
  // against served state, no corpus rescan.
  const auto verdicts =
      core::detect_rotation(version->prev_window, version->day_window);
  std::size_t rotating = 0;
  for (const auto& verdict : verdicts) {
    if (verdict.rotating) ++rotating;
  }
  std::printf("rotation (day %lld vs previous): %zu of %zu /48s rotating\n",
              static_cast<long long>(version->day),
              rotating, verdicts.size());
  std::printf("serve digest: %016llx\n",
              static_cast<unsigned long long>(digest));
  return result.checkpoint_ok ? 0 : 1;
}
