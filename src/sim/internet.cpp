#include "sim/internet.h"

namespace scent::sim {

std::size_t Internet::add_provider(ProviderConfig config) {
  const std::size_t index = providers_.size();
  ++route_version_;
  for (const auto& prefix : config.advertisements) {
    bgp_.announce(routing::Advertisement{prefix, config.asn, config.country,
                                         config.name});
    forwarding_.insert(prefix, index);
  }
  providers_.push_back(std::make_unique<Provider>(std::move(config)));
  return index;
}

std::optional<ProbeReply> Internet::probe(net::Ipv6Address target,
                                          std::uint8_t hop_limit,
                                          TimePoint t) {
  ++stats_.probes_received;
  const auto provider_index = route(target, route_cache_);
  if (!provider_index) {
    ++stats_.unrouted;
    return std::nullopt;
  }
  auto reply = providers_[*provider_index]->handle_probe(target, hop_limit, t);
  if (reply) ++stats_.responses_sent;
  return reply;
}

std::optional<ProbeReply> Internet::probe(net::Ipv6Address target,
                                          std::uint8_t hop_limit, TimePoint t,
                                          NetContext& ctx) const {
  ++ctx.stats.probes_received;
  const auto provider_index = route(target, ctx.routes);
  if (!provider_index) {
    ++ctx.stats.unrouted;
    return std::nullopt;
  }
  auto reply = providers_[*provider_index]->handle_probe(target, hop_limit, t,
                                                         ctx.response);
  if (reply) ++ctx.stats.responses_sent;
  return reply;
}

namespace {

/// The one wire-path body behind both deliver_into overloads; `probe`
/// answers (destination, hop limit) against the caller's chosen state.
template <typename ProbeFn>
bool respond_into(std::span<const std::uint8_t> request,
                  Internet::Stats& stats, ProbeFn&& probe, wire::Packet& out) {
  // An echo request carries no quote, so parsing it never allocates.
  wire::ParsedPacket parsed;
  if (!wire::parse_packet_into(request, parsed) ||
      parsed.icmp.type != wire::Icmpv6Type::kEchoRequest) {
    ++stats.malformed_dropped;
    return false;
  }

  const auto reply = probe(parsed.ip.destination, parsed.ip.hop_limit);
  if (!reply) return false;

  if (reply->type == wire::Icmpv6Type::kEchoReply) {
    wire::build_echo_reply_into(out, reply->source, parsed.ip.source,
                                parsed.icmp.identifier, parsed.icmp.sequence);
  } else {
    wire::build_error_into(out, reply->source, parsed.ip.source, reply->type,
                           reply->code, request);
  }
  return true;
}

}  // namespace

bool Internet::deliver_into(std::span<const std::uint8_t> request,
                            TimePoint t, wire::Packet& out) {
  return respond_into(
      request, stats_,
      [this, t](net::Ipv6Address target, std::uint8_t hop_limit) {
        return probe(target, hop_limit, t);
      },
      out);
}

bool Internet::deliver_into(std::span<const std::uint8_t> request,
                            TimePoint t, NetContext& ctx,
                            wire::Packet& out) const {
  return respond_into(
      request, ctx.stats,
      [this, t, &ctx](net::Ipv6Address target, std::uint8_t hop_limit) {
        return probe(target, hop_limit, t, ctx);
      },
      out);
}

}  // namespace scent::sim
