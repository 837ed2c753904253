// sweep_ingest.h - engine-backed sweeping straight into an ObservationStore.
//
// The bridge between the engine's sharded executor and the corpus every
// inference consumes. Shard 0's results come first in serial order, so its
// sink appends them straight into the caller's store while the other
// shards still probe; shards 1..N-1 stage their rows in chunks of the
// store's four columns, which the merge after the join copies in shard
// order (at one thread nothing is staged). Because shards own contiguous
// unit ranges, the merged observation sequence — and the store's index
// insertion history — is identical to a single-threaded sweep over the
// same unit list. The per-unit [begin, end) ranges returned here let
// funnel stages slice the corpus exactly as the serial code sliced its
// per-unit result vectors.
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
/// result to `store` in serial order. Shard 0 writes into `store` from its
/// own thread during the sweep, so nothing else may touch `store` until the
/// call returns; if a shard throws, `store` may keep shard 0's rows.
/// The caller's clock ends at the schedule end; Internet stats absorb all
/// shard traffic.
SweepIngest sweep_into_store(sim::Internet& internet, sim::VirtualClock& clock,
                             std::span<const engine::SweepUnit> units,
                             const probe::ProberOptions& prober_options,
                             const engine::SweepOptions& options,
                             ObservationStore& store);

}  // namespace scent::core
