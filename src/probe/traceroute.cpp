#include "probe/traceroute.h"

#include "telemetry/metrics.h"

namespace scent::probe {

TracerouteResult traceroute(Prober& prober, net::Ipv6Address target,
                            unsigned max_hops) {
  TracerouteResult result;
  result.target = target;

  for (unsigned hl = 1; hl <= max_hops; ++hl) {
    const ProbeResult r =
        prober.probe_one(target, static_cast<std::uint8_t>(hl));
    if (!r.responded) continue;
    result.hops.push_back(Hop{hl, r.response_source, r.type});
    if (r.type != wire::Icmpv6Type::kTimeExceeded) break;  // terminal hop
  }

  if (telemetry::Registry* reg = prober.telemetry()) {
    reg->counter("traceroute.runs").inc();
    reg->counter("traceroute.responsive_hops").add(result.hops.size());
    if (result.last_hop() &&
        result.last_hop()->type != wire::Icmpv6Type::kTimeExceeded) {
      reg->counter("traceroute.reached_periphery").inc();
    }
    reg->sketch("traceroute.path_length").observe(result.hops.size());
  }
  return result;
}

}  // namespace scent::probe
