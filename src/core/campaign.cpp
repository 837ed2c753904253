#include "core/campaign.h"

#include <algorithm>
#include <map>
#include <memory>

#include "analysis/derive.h"
#include "analysis/engine.h"
#include "container/flat_hash.h"
#include "core/sweep_ingest.h"
#include "corpus/checkpoint.h"
#include "corpus/snapshot.h"
#include "engine/sweep.h"
#include "netbase/eui64.h"
#include "serve/serve_table.h"
#include "sim/rng.h"
#include "telemetry/journal.h"
#include "telemetry/span.h"

namespace scent::core {
namespace {

/// Order-sensitive digest of the target list. A checkpoint resumed against
/// different targets (or the same targets in a different order) would not
/// replay the same campaign, so the manifest pins this.
std::uint64_t targets_digest(const std::vector<net::Prefix>& targets) {
  std::uint64_t digest = 0x5C37D16E57ULL;
  for (const auto& prefix : targets) {
    digest = sim::mix64(digest, prefix.base().network(), prefix.base().iid());
    digest = sim::mix64(digest, prefix.length());
  }
  return digest;
}

/// Checkpoint manifests keep std::map (the on-disk ordering contract);
/// the in-memory result is flat-map backed. Both iterate ascending by
/// ASN, so the conversions preserve byte-identical serialization.
std::map<routing::Asn, unsigned> to_manifest_map(
    const container::FlatMap<routing::Asn, unsigned>& lengths) {
  std::map<routing::Asn, unsigned> out;
  for (const auto& [asn, length] : lengths) out.emplace(asn, length);
  return out;
}

container::FlatMap<routing::Asn, unsigned> from_manifest_map(
    const std::map<routing::Asn, unsigned>& lengths) {
  container::FlatMap<routing::Asn, unsigned> out;
  out.reserve(lengths.size());
  for (const auto& [asn, length] : lengths) out[asn] = length;
  return out;
}

/// Result of replaying a persisted checkpoint chain into a fresh result.
struct ResumeState {
  unsigned completed_days = 0;     ///< Days restored (start the loop here).
  std::int64_t first_day = 0;      ///< Absolute day index of campaign day 0.
  sim::TimePoint clock_cursor = 0; ///< Clock after the last restored day.
  std::uint64_t probes = 0;        ///< Restored probe/response totals —
  std::uint64_t responses = 0;     ///< the prober's counters died with the
                                   ///< interrupted process.
  std::uint64_t blocks_read = 0;   ///< Snapshot blocks decoded/skipped
  std::uint64_t blocks_skipped = 0;///< across the replayed chain.
};

/// Replays a prior checkpoint into `result`. Returns nullopt — with
/// `result` reset — if the manifest is incompatible with `options` or any
/// snapshot in the chain fails to load; the caller then starts over.
std::optional<ResumeState> replay_checkpoint(
    const corpus::CampaignCheckpoint& prior, const CampaignOptions& options,
    std::uint64_t digest, CampaignResult& result,
    telemetry::TraceRecorder* recorder) {
  const bool compatible =
      prior.seed == options.seed &&
      prior.scan_time_of_day == options.scan_time_of_day &&
      prior.allocation_granularity_after_day0 ==
          options.allocation_granularity_after_day0 &&
      prior.targets_digest == digest;
  if (!compatible) return std::nullopt;

  // Replay at most options.days — resuming with a shorter horizon than the
  // stored chain just truncates it; a longer one extends the campaign.
  const auto replay = static_cast<unsigned>(
      std::min<std::size_t>(prior.days.size(), options.days));

  ResumeState state;
  state.first_day = prior.first_day;
  for (unsigned day = 0; day < replay; ++day) {
    const corpus::CheckpointDay& record = prior.days[day];
    corpus::SnapshotReader reader;
    reader.set_trace(options.registry, recorder);
    // Replay is a full-corpus load; fan v2 block decode across the sweep
    // worker count (a wall-clock knob — decoded rows are identical).
    reader.set_threads(options.threads);
    const std::size_t before = result.observations.size();
    if (!reader.open(options.checkpoint_dir + "/" + record.snapshot_file) ||
        reader.rows() != record.rows ||
        !reader.read_into(result.observations)) {
      result = CampaignResult{};
      return std::nullopt;
    }
    state.blocks_read += reader.blocks_read();
    state.blocks_skipped += reader.blocks_skipped();
    if (result.observations.size() - before != record.rows) {
      result = CampaignResult{};
      return std::nullopt;
    }
    result.daily.push_back(DaySummary{record.day, record.probes,
                                      record.responses,
                                      record.unique_eui64_iids});
    state.probes += record.probes;
    state.responses += record.responses;
    state.clock_cursor = record.clock_us;
    ++state.completed_days;
  }
  if (state.completed_days > 0) {
    result.allocation_length_by_as =
        from_manifest_map(prior.allocation_length_by_as);
  }
  result.resumed_days = state.completed_days;
  return state;
}

}  // namespace

CampaignResult run_campaign(sim::Internet& internet, sim::VirtualClock& clock,
                            probe::Prober& prober,
                            const std::vector<net::Prefix>& targets,
                            const CampaignOptions& options) {
  CampaignResult result;
  const std::uint64_t base_sent = prober.counters().sent;
  const std::uint64_t base_received = prober.counters().received;
  telemetry::Registry* const registry = options.registry;
  telemetry::Span campaign_span{registry, "campaign"};

  // Driver-side flight recorder: campaign day phases as one trace lane,
  // stamped with the campaign clock's virtual time. Each stage is one
  // Span feeding both this ring and the registry's path tree.
  telemetry::TraceCollector* const trace = telemetry::trace_of(registry);
  std::unique_ptr<telemetry::TraceRecorder> recorder;
  if (trace != nullptr) {
    recorder =
        std::make_unique<telemetry::TraceRecorder>(trace->recorder_capacity());
    recorder->set_clock(&clock);
  }

  const bool checkpointing = !options.checkpoint_dir.empty();
  const std::uint64_t digest = targets_digest(targets);

  // Resume phase: replay any compatible checkpoint chain, then position
  // the clock where the interrupted run left it so the remaining days see
  // the exact virtual times an uninterrupted run would have.
  std::int64_t first_day = sim::day_of(clock.now());
  unsigned start_day = 0;
  std::uint64_t restored_probes = 0;
  std::uint64_t restored_responses = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t blocks_skipped = 0;
  corpus::CampaignCheckpoint manifest;
  if (checkpointing) {
    if (const auto prior = corpus::load_checkpoint(options.checkpoint_dir)) {
      const telemetry::Span resume_span{registry, "campaign.resume",
                                        recorder.get()};
      if (const auto resumed = replay_checkpoint(*prior, options, digest,
                                                 result, recorder.get())) {
        start_day = resumed->completed_days;
        first_day = resumed->first_day;
        restored_probes = resumed->probes;
        restored_responses = resumed->responses;
        blocks_read = resumed->blocks_read;
        blocks_skipped = resumed->blocks_skipped;
        if (start_day > 0) {
          clock.advance_to(resumed->clock_cursor);
          manifest.days.assign(prior->days.begin(),
                               prior->days.begin() + start_day);
          manifest.allocation_length_by_as = prior->allocation_length_by_as;
        }
        // Serve resume: re-apply the restored days as deltas, one per
        // day, in day order — only now that the whole replay validated
        // (a failed replay restarts the campaign, and must not leave
        // half a chain applied). Each day's rows sit at a known offset:
        // the chain records per-day row counts and replay appended them
        // in order into an initially-empty store.
        if (options.serve != nullptr && start_day > 0) {
          std::size_t row = 0;
          for (unsigned d = 0; d < start_day; ++d) {
            const corpus::CheckpointDay& record = prior->days[d];
            options.serve->apply(
                analysis::StoreInput{result.observations, row,
                                     row + record.rows},
                record.day);
            row += record.rows;
          }
        }
        if (start_day > 0) {
          telemetry::journal_event(
              registry, "campaign_resumed",
              {{"restored_days", std::uint64_t{start_day}},
               {"rows", std::uint64_t{result.observations.size()}},
               {"probes", restored_probes}});
        }
      } else {
        // Incompatible parameters or a broken snapshot chain: not this
        // campaign's checkpoint. Start over; day writes below replace it.
        telemetry::journal_event(registry, "checkpoint_discarded",
                                 {{"dir", options.checkpoint_dir}});
      }
    }
    manifest.seed = options.seed;
    manifest.first_day = first_day;
    manifest.scan_time_of_day = options.scan_time_of_day;
    manifest.allocation_granularity_after_day0 =
        options.allocation_granularity_after_day0;
    manifest.targets_digest = digest;
  }

  engine::SweepOptions sweep_options;
  sweep_options.threads = options.threads;
  sweep_options.seed = options.seed;
  sweep_options.registry = registry;

  std::uint64_t snapshot_bytes = 0;
  std::vector<engine::SweepUnit> day_units;
  for (unsigned day = start_day; day < options.days; ++day) {
    const std::int64_t abs_day = first_day + day;
    clock.advance_to(abs_day * sim::kDay + options.scan_time_of_day);
    const telemetry::Span day_span{registry, "campaign.day", recorder.get()};

    // The prober's counters are the day's probe/response ledger. The
    // engine's shard traffic is folded back into them after each sweep,
    // keeping the ledger identical to a serial run's.
    const std::uint64_t day_base_sent = prober.counters().sent;
    const std::uint64_t day_base_received = prober.counters().received;

    DaySummary summary;
    summary.day = abs_day;
    container::FlatSet<net::MacAddress, net::MacAddressHash> day_macs;

    day_units.clear();
    day_units.reserve(targets.size());
    for (const auto& p48 : targets) {
      unsigned granularity = 64;
      if (day > 0 && options.allocation_granularity_after_day0) {
        const auto attribution = internet.bgp().lookup(p48.base());
        if (attribution) {
          const auto it =
              result.allocation_length_by_as.find(attribution->origin_asn);
          if (it != result.allocation_length_by_as.end()) {
            granularity = it->second;
          }
        }
      }
      // Same seed every day: identical targets, identical order (§5).
      day_units.push_back(
          {p48, granularity,
           sim::mix64(options.seed, p48.base().network(), granularity)});
    }

    const std::size_t day_obs_begin = result.observations.size();
    {
      const telemetry::Span sweep_span{registry, "campaign.sweep",
                                       recorder.get()};
      const SweepIngest ingest =
          sweep_into_store(internet, clock, day_units, prober.options(),
                           sweep_options, result.observations);
      prober.accumulate_counters(ingest.counters);
    }
    const analysis::StoreInput day_rows{result.observations, day_obs_begin,
                                        result.observations.size()};

    {
      const telemetry::Span ingest_span{registry, "campaign.ingest",
                                        recorder.get()};
      const ObservationStore& store = result.observations;
      for (std::size_t i = day_obs_begin; i < store.size(); ++i) {
        if (const auto mac = net::embedded_mac(store.response(i))) {
          day_macs.insert(*mac);
        }
      }
      if (options.on_day_progress) {
        options.on_day_progress(abs_day, day_rows.rows());
      }
    }

    // Publish the day to the serve sink only after the progress hook: a
    // hook that throws leaves the ServeTable on the previous day's
    // version, in step with the durable chain.
    if (options.serve != nullptr) options.serve->apply(day_rows, abs_day);

    summary.probes = prober.counters().sent - day_base_sent;
    summary.responses = prober.counters().received - day_base_received;
    summary.unique_eui64_iids = day_macs.size();
    result.daily.push_back(summary);

    if (day == 0) {
      // Freeze the per-AS allocation sizes from Algorithm 1 on the
      // full-granularity day — used by subsequent days (and by trackers).
      // Day 0 swept into an empty store, so the day's rows are the whole
      // store, scanned here with the fused sharded analysis.
      const telemetry::Span infer_span{registry, "campaign.alloc_infer",
                                       recorder.get()};
      analysis::AnalysisOptions analysis_options;
      analysis_options.threads = options.threads;
      analysis_options.collect_sightings = false;
      const analysis::AggregateTable table =
          analysis::analyze(result.observations, &internet.bgp(),
                            analysis_options, registry);
      result.allocation_length_by_as =
          analysis::allocation_medians_by_as(table);
    }

    telemetry::journal_event(registry, "day_funnel",
                             {{"day", summary.day},
                              {"probes", summary.probes},
                              {"responses", summary.responses},
                              {"unique_iids", summary.unique_eui64_iids}});

    // Commit phase: persist the day's snapshot, then the manifest that
    // references it. Ordering matters — a crash between the two leaves a
    // manifest that simply does not know about the newest snapshot yet.
    if (checkpointing && result.checkpoint_ok) {
      const telemetry::Span checkpoint_span{registry, "campaign.checkpoint",
                                            recorder.get()};
      // Encodes straight from the day's rows in the store, across the sweep
      // worker count; the bytes are identical at any value.
      corpus::SnapshotWriter day_snapshot;
      day_snapshot.set_threads(options.threads);
      day_snapshot.set_trace(registry, recorder.get());
      day_snapshot.append(result.observations.view(
          day_obs_begin, result.observations.size()));
      corpus::CheckpointDay record;
      record.day = abs_day;
      record.probes = summary.probes;
      record.responses = summary.responses;
      record.unique_eui64_iids = summary.unique_eui64_iids;
      record.rows = day_snapshot.rows();
      record.clock_us = clock.now();
      record.snapshot_file = corpus::snapshot_file_name(day);
      manifest.allocation_length_by_as =
          to_manifest_map(result.allocation_length_by_as);

      const std::string snap_path =
          options.checkpoint_dir + "/" + record.snapshot_file;
      bool saved = day_snapshot.write(snap_path);
      if (saved) {
        snapshot_bytes += day_snapshot.encoded_size();
        manifest.days.push_back(std::move(record));
        const telemetry::Span manifest_span{registry, "campaign.manifest",
                                            recorder.get()};
        saved = corpus::save_checkpoint(options.checkpoint_dir, manifest);
      }
      if (saved) {
        telemetry::journal_event(registry, "checkpoint_saved",
                                 {{"day", summary.day},
                                  {"file", manifest.days.back().snapshot_file},
                                  {"rows", manifest.days.back().rows}});
      } else {
        // The campaign result in memory stays valid; the chain on disk is
        // no longer extendable, so stop paying for snapshot writes.
        result.checkpoint_ok = false;
        telemetry::journal_event(registry, "checkpoint_write_failed",
                                 {{"day", summary.day}});
      }
    }

    if (options.on_day_complete) options.on_day_complete(summary);
  }

  result.probes_sent = restored_probes + prober.counters().sent - base_sent;
  result.responses =
      restored_responses + prober.counters().received - base_received;
  campaign_span.stop();

  if (recorder != nullptr) trace->drain("campaign", *recorder);

  if (registry != nullptr) {
    telemetry::Registry& reg = *registry;
    reg.gauge("campaign.days").set_u64(options.days);
    reg.gauge("campaign.probes").set_u64(result.probes_sent);
    reg.gauge("campaign.responses").set_u64(result.responses);
    reg.gauge("campaign.eui64_addresses")
        .set_u64(result.observations.unique_eui64_responses());
    reg.gauge("campaign.unique_iids")
        .set_u64(result.observations.unique_eui64_iids());
    if (checkpointing) {
      reg.gauge("corpus.checkpoint_days").set_u64(manifest.days.size());
      reg.gauge("corpus.restored_days").set_u64(start_day);
      reg.gauge("corpus.snapshot_rows")
          .set_u64(result.observations.size());
      reg.gauge("corpus.snapshot_bytes").set_u64(snapshot_bytes);
      reg.gauge("corpus.blocks_read").set_u64(blocks_read);
      reg.gauge("corpus.blocks_skipped").set_u64(blocks_skipped);
    }
  }
  return result;
}

}  // namespace scent::core
