// checkpoint_campaign.cpp - durable, resumable campaigns (§5f).
//
// Runs a daily campaign with checkpointing enabled: every completed day
// lands in <out-dir>/day_NNNN.snap plus a manifest. Kill the process at
// any point — rerunning with the same arguments resumes from the last
// committed day and finishes with a corpus *bit-identical* to an
// uninterrupted run, at any thread count.
//
// Flags:
//   --out-dir=DIR         checkpoint directory (required in practice)
//   --threads=N           sweep shards (0 = hardware concurrency)
//   --days=N              campaign length (default 6, at most 3650)
//   --kill-after-day=K    simulate a crash: exit hard with status 42 (no
//                         cleanup, like a kill -9) right after day K
//                         commits
//   --kill-mid-day=K      simulate a crash: exit hard with status 43 once
//                         day K's sweep has merged its rows — nothing
//                         about day K is committed yet, so a resume must
//                         replay it from scratch
//   --digest-only         print only the final corpus digest (for scripts)
//
// Every numeric flag is a plain decimal; anything else exits with status 2.
//
// The digest folds every observation column, every day summary, and the
// inferred allocation map into one 64-bit value, so two runs printing the
// same digest ran byte-identical campaigns.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/campaign.h"
#include "probe/prober.h"
#include "sim/rng.h"
#include "sim/scenario.h"
#include "telemetry/journal.h"
#include "telemetry/metrics.h"

#include "example_util.h"

namespace {

using namespace scent;

std::uint64_t campaign_digest(const core::CampaignResult& result) {
  std::uint64_t digest = 0xD16E57;
  const core::ObservationStore& store = result.observations;
  for (std::size_t i = 0; i < store.size(); ++i) {
    digest = sim::mix64(digest, store.target(i).network(),
                        store.target(i).iid());
    digest = sim::mix64(digest, store.response(i).network(),
                        store.response(i).iid());
    digest = sim::mix64(digest, store.type_code(i),
                        static_cast<std::uint64_t>(store.time(i)));
  }
  for (const auto& day : result.daily) {
    digest = sim::mix64(digest, static_cast<std::uint64_t>(day.day),
                        day.probes);
    digest = sim::mix64(digest, day.responses, day.unique_eui64_iids);
  }
  for (const auto& [asn, length] : result.allocation_length_by_as) {
    digest = sim::mix64(digest, asn, length);
  }
  digest = sim::mix64(digest, result.probes_sent, result.responses);
  return digest;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scent;

  const examples::Cli cli = examples::Cli::parse(argc, argv);
  if (const int rc = cli.require_valid()) return rc;
  unsigned days = 6;
  long kill_after_day = -1;  // -1 = no kill hook
  long kill_mid_day = -1;
  bool digest_only = false;
  bool flags_ok = true;
  for (int i = 1; i < argc; ++i) {
    flags_ok = examples::parse_flag(argv[i], "--days=", examples::kMaxDays,
                                    days) &&
               examples::parse_flag(argv[i], "--kill-after-day=",
                                    long{examples::kMaxDays},
                                    kill_after_day) &&
               examples::parse_flag(argv[i], "--kill-mid-day=",
                                    long{examples::kMaxDays}, kill_mid_day) &&
               flags_ok;
    if (std::strcmp(argv[i], "--digest-only") == 0) digest_only = true;
  }
  if (!flags_ok) return 2;

  // The same world every run: resume only works because the campaign is a
  // deterministic function of (world seed, campaign seed, clock schedule).
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
  telemetry::Journal journal;
  journal.open(cli.path("checkpoint_campaign_journal.jsonl"));
  journal.set_clock(&clock);
  registry.attach_journal(&journal);

  examples::TraceSink trace_sink{cli};
  registry.attach_trace(trace_sink.collector());

  core::CampaignOptions options;
  options.days = days;
  options.threads = cli.threads;
  options.checkpoint_dir = cli.out_dir;
  options.registry = &registry;
  unsigned committed = 0;
  options.on_day_complete = [&](const core::DaySummary& summary) {
    if (!digest_only) {
      std::printf("  day %lld committed: %llu probes, %llu responses\n",
                  static_cast<long long>(summary.day),
                  static_cast<unsigned long long>(summary.probes),
                  static_cast<unsigned long long>(summary.responses));
    }
    // Simulated crash: the snapshot + manifest for this day are already
    // durable, so exit as abruptly as a kill -9 (no flushes, no
    // destructors) and let the next run prove the chain resumes.
    if (kill_after_day >= 0 &&
        ++committed == static_cast<unsigned>(kill_after_day) + 1) {
      std::_Exit(42);
    }
  };
  // Mid-day kill hook: die the moment campaign day K (0-based, relative to
  // this run's first day) has drained its first rows. Day K's snapshot and
  // manifest entry are NOT durable yet — the resumed run must replay the
  // day in full and still land on the uninterrupted digest.
  if (kill_mid_day >= 0) {
    std::int64_t first_seen = -1;
    options.on_day_progress = [kill_mid_day, first_seen](
                                  std::int64_t day,
                                  std::size_t rows) mutable {
      if (first_seen < 0) first_seen = day;
      if (day - first_seen == kill_mid_day && rows > 0) std::_Exit(43);
    };
  }

  const core::CampaignResult result =
      run_campaign(world.internet, clock, prober, targets, options);
  journal.close();
  if (!trace_sink.finish()) return 1;

  const std::uint64_t digest = campaign_digest(result);
  if (digest_only) {
    std::printf("%016llx\n", static_cast<unsigned long long>(digest));
    return result.checkpoint_ok ? 0 : 1;
  }

  std::printf("\ncampaign: %u days (%u resumed from %s), %llu probes, "
              "%zu observations\n",
              days, result.resumed_days, cli.out_dir.c_str(),
              static_cast<unsigned long long>(result.probes_sent),
              result.observations.size());
  std::printf("corpus digest: %016llx\n",
              static_cast<unsigned long long>(digest));
  // The persistence funnel: what this run wrote (snapshots, total on-disk
  // bytes) and what the resume replay read (block skip counters; both zero
  // for an unresumed run).
  const std::uint64_t snap_bytes = static_cast<std::uint64_t>(
      registry.gauge("corpus.snapshot_bytes").value());
  const unsigned written_days = days - result.resumed_days;
  std::printf("snapshot funnel: v3 x %u days, %llu bytes on disk (%llu "
              "B/day), replay blocks read/skipped: %lld/%lld\n",
              written_days,
              static_cast<unsigned long long>(snap_bytes),
              static_cast<unsigned long long>(
                  written_days > 0 ? snap_bytes / written_days : 0),
              static_cast<long long>(
                  registry.gauge("corpus.blocks_read").value()),
              static_cast<long long>(
                  registry.gauge("corpus.blocks_skipped").value()));
  std::printf("snapshots: %s/day_0000.snap .. day_%04u.snap + manifest.txt\n",
              cli.out_dir.c_str(), days - 1);
  return result.checkpoint_ok ? 0 : 1;
}
