#include "core/rotation_detector.h"

#include <algorithm>

#include "corpus/snapshot.h"

namespace scent::core {
namespace {

struct Counts {
  std::uint64_t eui_targets = 0;
  std::uint64_t changed = 0;
};

/// Accumulate on the pre-masked upper-64 /48 bits — one mask per target
/// instead of constructing (and hashing) a Prefix value per lookup. The
/// Prefix is materialized only when verdicts are emitted.
using Per48 = container::FlatMap<std::uint64_t, Counts>;

constexpr std::uint64_t kMask48 = 0xffffffffffff0000ULL;

/// Shared verdict emission: sorts by prefix (robust to the accumulation
/// order, which differs between the full and incremental paths only in
/// principle) and feeds the rotation telemetry.
std::vector<RotationVerdict> emit_verdicts(const Per48& per_48,
                                           std::uint64_t churn_threshold,
                                           telemetry::Registry* registry) {
  std::vector<RotationVerdict> verdicts;
  verdicts.reserve(per_48.size());
  for (const auto& [net48, counts] : per_48) {
    RotationVerdict v;
    v.prefix = net::Prefix{net::Ipv6Address{net48, 0}, 48};
    v.eui_targets = counts.eui_targets;
    v.changed = counts.changed;
    v.rotating = counts.changed > churn_threshold;
    verdicts.push_back(v);
  }
  std::sort(verdicts.begin(), verdicts.end(),
            [](const RotationVerdict& a, const RotationVerdict& b) {
              return a.prefix < b.prefix;
            });

  if (registry != nullptr) {
    telemetry::QuantileSketch& churn = registry->sketch("rotation.churn_pct");
    std::uint64_t rotating = 0;
    for (const auto& v : verdicts) {
      if (v.rotating) ++rotating;
      if (v.eui_targets > 0) churn.observe(100 * v.changed / v.eui_targets);
    }
    registry->counter("rotation.checked_48s").add(verdicts.size());
    registry->counter("rotation.rotating_48s").add(rotating);
  }
  return verdicts;
}

}  // namespace

std::vector<RotationVerdict> detect_rotation(const Snapshot& first,
                                             const Snapshot& second,
                                             std::uint64_t churn_threshold,
                                             telemetry::Registry* registry) {
  Per48 per_48;

  // Targets responsive in the first snapshot: changed if missing from or
  // different in the second.
  for (const auto& [target, response] : first.map()) {
    Counts& c = per_48[target.network() & kMask48];
    ++c.eui_targets;
    const auto it = second.map().find(target);
    if (it == second.map().end() || it->second != response) ++c.changed;
  }
  // Targets that appeared only in the second snapshot are also churn.
  for (const auto& [target, response] : second.map()) {
    if (first.map().contains(target)) continue;
    Counts& c = per_48[target.network() & kMask48];
    ++c.eui_targets;
    ++c.changed;
  }
  return emit_verdicts(per_48, churn_threshold, registry);
}

std::optional<std::vector<RotationVerdict>> detect_rotation_incremental(
    corpus::SnapshotReader& prior, const Snapshot& second,
    std::uint64_t churn_threshold, telemetry::Registry* registry) {
  Per48 per_48;
  // The streamed pass needs the prior day's target set again for the
  // appeared-only-in-second pass; a flat set of addresses is 16 B/target —
  // far below the two-full-stores footprint the incremental mode avoids.
  container::FlatSet<net::Ipv6Address, net::Ipv6AddressHash> prior_targets;
  prior_targets.reserve(
      static_cast<std::size_t>(prior.eui_pair_count()));

  const bool streamed = prior.for_each_eui_pair(
      [&](net::Ipv6Address target, net::Ipv6Address response) {
        prior_targets.insert(target);
        Counts& c = per_48[target.network() & kMask48];
        ++c.eui_targets;
        const auto it = second.map().find(target);
        if (it == second.map().end() || it->second != response) ++c.changed;
      });
  if (!streamed) return std::nullopt;

  for (const auto& [target, response] : second.map()) {
    if (prior_targets.contains(target)) continue;
    Counts& c = per_48[target.network() & kMask48];
    ++c.eui_targets;
    ++c.changed;
  }
  return emit_verdicts(per_48, churn_threshold, registry);
}

}  // namespace scent::core
