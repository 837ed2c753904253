// bootstrap.h - the §4 discovery funnel: find every prefix-rotating network.
//
// Stage 0 (seed): discover /48s whose last responsive hop is an EUI-64
//   address, one probe per /48 of every BGP-advertised /32 (the CAIDA
//   routed-/48 campaign substitute; the yarrp-style traceroute engine
//   produces identical last-hop data and is exercised separately).
// Stage 1 (§4.1 expansion): for every /32 containing a seed /48, probe one
//   random-IID address in a random /64 of *each* of its /48s; keep the /48s
//   with a unique EUI-64 response.
// Stage 2 (§4.2 density): probe one address per /56 of each candidate /48;
//   classify high vs low density (<= 2 unique EUI responders is low).
// Stage 3 (§4.3 rotation): probe one address per /64 of each high-density
//   /48, twice, 24 h apart with the same seed (same targets, same order);
//   /48s whose <target, EUI response> pairs changed are rotating.
//
// The result is the set of rotating /48s plus the funnel accounting the
// paper reports (total addresses, EUI-64 share, unique IIDs).
#pragma once

#include <cstdint>
#include <vector>

#include "core/density.h"
#include "core/observation.h"
#include "core/rotation_detector.h"
#include "netbase/prefix.h"
#include "probe/prober.h"
#include "routing/bgp_table.h"
#include "sim/internet.h"
#include "sim/sim_time.h"
#include "telemetry/metrics.h"

namespace scent::core {

struct BootstrapOptions {
  std::uint64_t seed = 0xB007;
  /// Probes sent into each /48 during the seed and expansion stages. The
  /// paper sends one (a single random /64 per /48, §4.1), which misses
  /// sparsely allocated /48s with probability (1 - occupancy); raising this
  /// trades probe budget for recall.
  unsigned probes_per_48 = 1;
  /// Only advertisements at least this specific are expanded per-/48
  /// (paper: networks /32 or smaller).
  unsigned min_advert_length = 32;

  /// Stage-0 mode. The CAIDA seed the paper bootstraps from is a
  /// *traceroute* campaign (one traceroute per routed /48, last responsive
  /// hop recorded). When true, stage 0 runs literal hop-limited traceroutes
  /// and takes the EUI-64 *last hop*; when false (default) it sends one
  /// full-hop-limit probe per /48, which yields the identical last-hop
  /// answer at a fraction of the packet cost (no intermediate Time
  /// Exceeded churn — the same reason the paper itself switched from yarrp
  /// to zmap, §3.1).
  bool seed_with_traceroute = false;

  /// Worker shards for every sweep stage (engine executor); 0 = hardware
  /// concurrency. Bit-identical results at any value — purely a
  /// wall-clock knob. Traceroute-mode seeding stays serial (its per-hop
  /// probe count is response-dependent, so it has no a-priori schedule).
  unsigned threads = 1;

  /// Optional telemetry handle. With a registry, each stage runs under a
  /// span ("bootstrap/seed", ".../expand", ".../density", ".../rotation"),
  /// the sweeps' probe counters and "sweep.unit" spans fold in under the
  /// stage, and the funnel accounting lands in `funnel.*` gauges. When a
  /// journal hangs off the registry, a "funnel" record and one
  /// "rotation_window_detected" event per rotating /48 are emitted. When
  /// a trace collector hangs off it, every funnel sweep contributes
  /// "sweep shard s" / "ingest shard s" lanes and the rotation-stage
  /// analysis adds "analysis shard s" lanes (see
  /// engine::SweepOptions::registry).
  telemetry::Registry* registry = nullptr;
};

struct BootstrapResult {
  // Stage outputs.
  std::vector<net::Prefix> seed_48s;
  std::vector<net::Prefix> seed_32s;
  std::vector<net::Prefix> expanded_48s;
  std::vector<DensityResult> densities;
  std::vector<net::Prefix> high_density_48s;
  std::vector<net::Prefix> low_density_48s;
  std::vector<net::Prefix> unresponsive_48s;
  std::vector<RotationVerdict> verdicts;
  std::vector<net::Prefix> rotating_48s;

  // Funnel accounting (§4.3's closing paragraph).
  std::uint64_t probes_sent = 0;
  std::uint64_t total_addresses = 0;   ///< Distinct response addresses.
  std::uint64_t eui64_addresses = 0;   ///< ... of which EUI-64.
  std::uint64_t unique_iids = 0;       ///< Distinct embedded MACs.

  /// Every observation gathered across all stages (for reuse by analyses).
  ObservationStore observations;
};

/// Runs the full funnel against the (simulated) Internet.
[[nodiscard]] BootstrapResult run_bootstrap(sim::Internet& internet,
                                            sim::VirtualClock& clock,
                                            probe::Prober& prober,
                                            const BootstrapOptions& options = {});

/// Groups rotating /48s by BGP origin: the data behind Table 1.
struct RotatorGroup {
  std::string key;  ///< ASN as string, or country code.
  std::uint64_t count = 0;
};

[[nodiscard]] std::vector<RotatorGroup> rotators_by_asn(
    const std::vector<net::Prefix>& rotating_48s,
    const routing::BgpTable& bgp);
[[nodiscard]] std::vector<RotatorGroup> rotators_by_country(
    const std::vector<net::Prefix>& rotating_48s,
    const routing::BgpTable& bgp);

}  // namespace scent::core
