// sweep_ingest.h - engine-backed sweeping straight into an ObservationStore.
//
// The bridge between the engine's sharded executor and the corpus every
// inference consumes. Each shard buffers its responsive results; after the
// join the buffers are ingested in shard order into the caller's store —
// the only pass that indexes a row — and, when requested, the new rows go
// to a snapshot writer. Because shards own contiguous unit ranges, the merged
// observation sequence — and the snapshot writer's byte stream — is
// identical to a single-threaded sweep over the same unit list. The
// per-unit [begin, end) ranges returned here let funnel stages slice the
// corpus exactly as the serial code sliced its per-unit result vectors.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/observation.h"
#include "engine/executor.h"
#include "engine/sweep.h"
#include "probe/prober.h"
#include "sim/internet.h"
#include "sim/sim_time.h"

namespace scent::corpus {
class SnapshotWriter;
}  // namespace scent::corpus

namespace scent::core {

/// One sweep unit's ledger after ingest.
struct UnitIngest {
  std::uint64_t sent = 0;
  std::uint64_t responded = 0;
  /// The unit's observations occupy [obs_begin, obs_end) in the target
  /// store (responsive probes only, in probe order).
  std::size_t obs_begin = 0;
  std::size_t obs_end = 0;
};

struct SweepIngest {
  std::vector<UnitIngest> units;      ///< Indexed like the input unit list.
  probe::Prober::Counters counters;   ///< Aggregate traffic, all shards.
  unsigned threads_used = 1;
};

/// Runs `units` through the sharded executor and appends every responsive
/// result to `store` in serial order — and to `snapshot`, if given (the
/// checkpointing campaign's day snapshot). The caller's clock ends at the
/// schedule end; Internet stats absorb all shard traffic.
SweepIngest sweep_into_store(sim::Internet& internet, sim::VirtualClock& clock,
                             std::span<const engine::SweepUnit> units,
                             const probe::ProberOptions& prober_options,
                             const engine::SweepOptions& options,
                             ObservationStore& store,
                             corpus::SnapshotWriter* snapshot = nullptr);

}  // namespace scent::core
