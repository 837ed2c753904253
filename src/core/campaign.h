// campaign.h - the §5 longitudinal measurement campaign.
//
// Probes an identified set of (rotating) /48s daily for several weeks,
// accumulating the observation corpus behind Figures 4-12. Day 0 sweeps
// every /64 of every target /48 (the granularity Algorithm 1 needs and the
// paper's daily mode); to keep simulated campaigns affordable, later days
// can optionally probe once per *inferred allocation* instead — the paper's
// own §5.2 observation that an attacker who knows the allocation size saves
// up to 256x. Both modes use the same seed every day, so targets and order
// repeat exactly as the paper's zmap configuration did.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "container/flat_hash.h"
#include "core/observation.h"
#include "netbase/prefix.h"
#include "probe/prober.h"
#include "routing/bgp_table.h"
#include "sim/internet.h"
#include "sim/sim_time.h"
#include "telemetry/metrics.h"

namespace scent::serve {
class ServeTable;
}  // namespace scent::serve

namespace scent::core {

struct DaySummary;

struct CampaignOptions {
  unsigned days = 44;  ///< Paper: 44 days, late July - early September.
  /// Time of day each daily scan starts (after the typical rotation
  /// window).
  sim::Duration scan_time_of_day = sim::hours(12);
  std::uint64_t seed = 0xCA3B;
  /// Day 0 always sweeps per /64. When true, later days probe once per
  /// inferred allocation; when false, every day sweeps per /64.
  bool allocation_granularity_after_day0 = true;

  /// Worker shards for the daily sweeps (engine executor); 0 = hardware
  /// concurrency. Any value yields a bit-identical corpus — the engine's
  /// determinism contract — so this is purely a wall-clock knob.
  unsigned threads = 1;

  /// When non-empty, the campaign checkpoints after every day: the day's
  /// observations land in `<dir>/day_NNNN.snap` (a corpus snapshot; a
  /// chain holding a file of another format version is discarded, like a
  /// corrupt one) and a manifest records the chain plus the clock cursor
  /// and frozen day-0 allocation inference. A
  /// rerun pointed at the same directory (with the same seed, schedule and
  /// targets — validated via the manifest) replays the completed days from
  /// the snapshots and continues from day N, producing a corpus and result
  /// bit-identical to an uninterrupted run at any thread count — the §5d
  /// determinism contract extended across process boundaries (§5f). An
  /// incompatible or corrupt checkpoint is discarded (journaled as such)
  /// and the campaign starts over.
  std::string checkpoint_dir;

  /// Optional telemetry handle. With a registry, every day runs under
  /// nested spans ("campaign/day/sweep", ".../ingest", ".../alloc_infer",
  /// ".../checkpoint" with its snapshot and manifest writes), the sweeps'
  /// probe counters and "sweep.unit" spans fold in under the day, and
  /// campaign totals land in `campaign.*` gauges. When a journal hangs off
  /// the registry, one "day_funnel" record is emitted per campaign day,
  /// plus checkpoint saves, failures and resumes. When a trace collector
  /// hangs off it, the driver records day/sweep/ingest/alloc_infer/
  /// checkpoint phase events into a "campaign" lane, the engine adds
  /// "sweep shard s" and "ingest shard s" lanes, day-0 inference adds
  /// "analysis shard s" lanes, and snapshot I/O is bracketed per section
  /// — one Perfetto-loadable timeline of the whole data plane. The same
  /// telemetry::Span writes each phase event and its path-tree entry.
  telemetry::Registry* registry = nullptr;

  /// Optional serve sink (DESIGN.md §5k): each swept day's rows are
  /// applied to this table by one ServeTable::apply and published as the
  /// next TableVersion, after on_day_progress has returned. On resume, the
  /// replayed days are re-applied one apply each from the restored snapshot
  /// chain (after the whole replay validates) before live days continue,
  /// so a killed-and-resumed campaign's ServeTable answers queries
  /// identically to an uninterrupted run's. Reader threads may query the
  /// table concurrently for the campaign's whole lifetime.
  serve::ServeTable* serve = nullptr;

  /// Invoked after each day is fully committed (summary recorded and, when
  /// checkpointing, its snapshot + manifest durably written). Drives the
  /// kill-and-resume harness; also usable for progress reporting.
  std::function<void(const DaySummary&)> on_day_complete;

  /// Invoked once per swept day with the day's row count, on the calling
  /// thread, after the shard merge and before anything about the day is
  /// committed: no serve version published, no snapshot or manifest
  /// written. Throwing (or killing the process) from here models dying
  /// with a swept but uncommitted day — the mid-day half of the
  /// kill-and-resume harness, which must resume bit-identically from the
  /// previous day's checkpoint.
  std::function<void(std::int64_t day, std::size_t rows)> on_day_progress;
};

/// Per-day funnel record. Probe/response counts are read back from the
/// prober's own counters (per-day deltas), not tallied by hand — the
/// prober is the single source of truth for what went on the wire.
struct DaySummary {
  std::int64_t day = 0;
  std::uint64_t probes = 0;
  std::uint64_t responses = 0;
  std::uint64_t unique_eui64_iids = 0;
};

struct CampaignResult {
  ObservationStore observations;
  std::vector<DaySummary> daily;
  std::uint64_t probes_sent = 0;
  std::uint64_t responses = 0;

  /// Per-AS inferred allocation length from the day-0 full sweep, keyed
  /// ascending by ASN (flat-map backed; insertion order == ASN order, so
  /// iteration — and every digest/manifest derived from it — matches the
  /// ordered std::map it replaced byte for byte).
  container::FlatMap<routing::Asn, unsigned> allocation_length_by_as;

  /// Days replayed from a checkpoint instead of being swept live.
  unsigned resumed_days = 0;
  /// False if a checkpoint write failed mid-campaign (the in-memory result
  /// is still valid; the on-disk chain is not resumable past that day).
  bool checkpoint_ok = true;
};

/// Runs the campaign against `targets` (typically the bootstrap's rotating
/// /48 set). Advances the clock day by day.
[[nodiscard]] CampaignResult run_campaign(sim::Internet& internet,
                                          sim::VirtualClock& clock,
                                          probe::Prober& prober,
                                          const std::vector<net::Prefix>& targets,
                                          const CampaignOptions& options = {});

}  // namespace scent::core
