// tracker.h - the paper's §6 device-tracking attack.
//
// Given a target CPE's EUI-64 IID (equivalently its MAC), the AS's inferred
// customer allocation size (Algorithm 1) and the device's inferred rotation
// pool (Algorithm 2), the tracker re-locates the device after a prefix
// rotation by probing one address per allocation-sized block across the
// pool, in randomized order, until a response embeds the target IID. The
// allocation inference divides probe cost by 2^(64 - allocation_length);
// the pool inference bounds the space from above. An optional stride model
// (§5.4) checks the *predicted* next allocation first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/predictor.h"
#include "netbase/mac_address.h"
#include "netbase/prefix.h"
#include "probe/prober.h"
#include "telemetry/metrics.h"

namespace scent::core {

struct TrackerConfig {
  net::MacAddress target_mac;
  net::Prefix pool;                 ///< Inferred rotation pool to search.
  unsigned allocation_length = 56;  ///< Inferred per-AS allocation size.
  std::uint64_t seed = 0;

  /// When set, probe the model's predicted slot (and its neighbors) before
  /// falling back to the randomized pool sweep.
  std::optional<StrideModel> prediction;
  unsigned prediction_neighborhood = 2;

  /// Optional telemetry handle. With a registry, attempts run under a
  /// "tracker.locate" span and feed `tracker.*` counters plus the
  /// `tracker.probes_per_attempt` sketch; when a journal hangs off the
  /// registry, every attempt emits a "tracker_hit" / "tracker_miss" event.
  telemetry::Registry* registry = nullptr;
};

struct TrackAttempt {
  std::int64_t day = 0;
  bool found = false;
  std::uint64_t probes_sent = 0;
  net::Ipv6Address address;     ///< The device's WAN address when found.
  net::Prefix allocation;       ///< The allocation block it was found in.
  bool found_by_prediction = false;
};

/// Tracks one device across rotations. Stateless between attempts except
/// for the sighting history it feeds back into stride fitting.
class Tracker {
 public:
  Tracker(probe::Prober& prober, TrackerConfig config)
      : prober_(&prober), config_(std::move(config)) {}

  [[nodiscard]] const TrackerConfig& config() const noexcept {
    return config_;
  }

  /// One attempt: sweep the pool (prediction first if configured) until the
  /// target IID responds or the pool is exhausted. `day` labels the attempt
  /// and varies the sweep order.
  [[nodiscard]] TrackAttempt locate(std::int64_t day);

  /// Sightings accumulated from successful attempts, usable for stride
  /// fitting via update_prediction().
  [[nodiscard]] const std::vector<Sighting>& sightings() const noexcept {
    return sightings_;
  }

  /// Refits the stride model from accumulated sightings; returns true if a
  /// model with sufficient support was installed.
  bool update_prediction(double min_support = 0.6);

 private:
  [[nodiscard]] bool probe_and_check(net::Ipv6Address target,
                                     TrackAttempt& attempt);

  /// Records the attempt into the configured telemetry sinks.
  TrackAttempt finish(TrackAttempt attempt);

  probe::Prober* prober_;
  TrackerConfig config_;
  std::vector<Sighting> sightings_;
};

}  // namespace scent::core
