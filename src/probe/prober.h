// prober.h - the zmap6-like high-speed ICMPv6 Echo Request engine.
//
// Sends paced Echo Request probes into the (simulated) Internet and collects
// the <target, response-source, ICMPv6 type/code, time> tuples every
// downstream inference consumes. Two delivery paths exist:
//   * wire mode: every probe is serialized to real IPv6+ICMPv6 bytes with a
//     valid checksum, delivered, and the response parsed and
//     checksum-verified — the path a real scanner exercises;
//   * fast mode: the logical probe API, bit-identical results, used for
//     campaign-scale sweeps where packet serialization would dominate
//     runtime. Tests assert the two paths agree.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "netbase/ipv6_address.h"
#include "probe/target_generator.h"
#include "sim/internet.h"
#include "sim/sim_time.h"
#include "telemetry/metrics.h"
#include "wire/icmpv6.h"

namespace scent::probe {

/// One probe's outcome. `responded == false` means the probe timed out
/// silently (unallocated space, silent CPE, loss, or rate limiting).
struct ProbeResult {
  net::Ipv6Address target;
  net::Ipv6Address response_source;
  wire::Icmpv6Type type = wire::Icmpv6Type::kEchoReply;
  std::uint8_t code = 0;
  sim::TimePoint sent_at = 0;
  bool responded = false;
};

struct ProberOptions {
  /// Probe rate; the paper scans at 10k packets per second (§3.1).
  std::uint64_t packets_per_second = 10000;

  /// Serialize/parse real packets (true) or use the logical path (false).
  bool wire_mode = true;

  /// Source address of the scanning vantage point.
  net::Ipv6Address vantage = net::Ipv6Address{0x2001067c2e8c0000ULL, 0x1};

  /// ICMP identifier marking this prober's probes.
  std::uint16_t identifier = 0x5C37;  // "SCnT"

  /// Hop limit on outgoing probes (zmap default-style; traceroute uses the
  /// dedicated engine instead).
  std::uint8_t hop_limit = 64;
};

class Prober {
 public:
  Prober(sim::Internet& internet, sim::VirtualClock& clock,
         ProberOptions options = {})
      : internet_(&internet), clock_(&clock), options_(options) {}

  [[nodiscard]] const ProberOptions& options() const noexcept {
    return options_;
  }

  /// Sends a single probe at the current virtual time and advances the
  /// clock by the inter-probe gap.
  ProbeResult probe_one(net::Ipv6Address target) {
    return probe_one(target, options_.hop_limit);
  }

  /// Same, with an explicit hop limit (used by the traceroute engine).
  ProbeResult probe_one(net::Ipv6Address target, std::uint8_t hop_limit);

  /// Receives batches of responsive results as a sweep streams them. The
  /// span aliases the prober's internal batch buffer and is valid only for
  /// the duration of the call — copy out anything kept.
  using ResultSink = std::function<void(std::span<const ProbeResult>)>;

  /// Streaming sweep over one target per /`sub_length` of `parent` in
  /// zmap-permuted order, emitting responsive results into `sink` in
  /// batches instead of materializing a full result vector. `sent`/
  /// `received` counters accumulate across calls.
  void sweep_subnets(net::Prefix parent, unsigned sub_length,
                     std::uint64_t seed, const ResultSink& sink);

  /// Vector adapter over the streaming sweep, for call sites that want
  /// the (responsive-only) results materialized.
  std::vector<ProbeResult> sweep_subnets(net::Prefix parent,
                                         unsigned sub_length,
                                         std::uint64_t seed);

  struct Counters {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  void reset_counters() noexcept { counters_ = {}; }

  /// Folds another prober's counters into this one — how the engine
  /// credits shard probers' traffic to the campaign prober, keeping the
  /// "prober counters are the probe ledger" contract across serial and
  /// sharded runs. Deliberately does not touch telemetry counters: shard
  /// registries are merged separately (telemetry::Registry::
  /// merge_counters_from), so events are never double-counted.
  void accumulate_counters(const Counters& delta) noexcept {
    counters_.sent += delta.sent;
    counters_.received += delta.received;
  }

  /// Routes this prober's traffic through caller-owned network state (see
  /// sim::NetContext) on the Internet's const, thread-safe path. nullptr
  /// (the default) uses the Internet's built-in mutable state.
  void set_net_context(sim::NetContext* ctx) noexcept { net_ctx_ = ctx; }

  /// Starts the wire-mode echo sequence stream at `start` (the engine
  /// derives a distinct stream per shard from mix64(seed, shard_index)).
  /// Affects only the bytes on the wire, never the result fields.
  void seed_sequence(std::uint16_t start) noexcept { sequence_ = start; }

  /// Mirrors every probe into the registry's `probe.sent` / `probe.received`
  /// / `probe.wire_drops` counters. Counter pointers are cached here so the
  /// hot path pays one branch plus one add per event; the registry's
  /// counters accumulate for its lifetime (reset_counters() does not touch
  /// them — registry deltas are the caller's concern).
  void attach_telemetry(telemetry::Registry& registry) {
    telemetry_ = &registry;
    tm_sent_ = &registry.counter("probe.sent");
    tm_received_ = &registry.counter("probe.received");
    tm_wire_drops_ = &registry.counter("probe.wire_drops");
  }

  /// The attached registry, if any (shared with the traceroute engine).
  [[nodiscard]] telemetry::Registry* telemetry() const noexcept {
    return telemetry_;
  }

 private:
  /// Probes `target`, appends any responsive result to `batch_`, and
  /// flushes the batch into `sink` once it reaches kBatchSize.
  void probe_into_batch(net::Ipv6Address target, const ResultSink& sink);

  /// Responsive results per sink invocation. Large enough to amortize the
  /// std::function call, small enough to stay cache-resident.
  static constexpr std::size_t kBatchSize = 256;

  sim::Internet* internet_;
  sim::VirtualClock* clock_;
  ProberOptions options_;
  Counters counters_;
  std::uint16_t sequence_ = 0;
  sim::NetContext* net_ctx_ = nullptr;
  std::vector<ProbeResult> batch_;     // streaming-sweep scratch
  // Wire-mode per-probe scratch: the request, the response and its parse
  // reuse their storage across probes, so a sweep does not allocate.
  wire::Packet request_scratch_;
  wire::Packet response_scratch_;
  wire::ParsedPacket parsed_scratch_;
  telemetry::Registry* telemetry_ = nullptr;
  telemetry::Counter* tm_sent_ = nullptr;
  telemetry::Counter* tm_received_ = nullptr;
  telemetry::Counter* tm_wire_drops_ = nullptr;
};

}  // namespace scent::probe
