#include "probe/prober.h"

#include <algorithm>
#include <utility>

namespace scent::probe {

ProbeResult Prober::probe_one(net::Ipv6Address target,
                              std::uint8_t hop_limit) {
  ProbeResult result;
  result.target = target;
  result.sent_at = clock_->now();
  ++counters_.sent;
  if (tm_sent_ != nullptr) tm_sent_->inc();
  ++sequence_;

  if (options_.wire_mode) {
    wire::build_echo_request_into(request_scratch_, options_.vantage, target,
                                  options_.identifier, sequence_, hop_limit);
    const bool answered =
        net_ctx_ != nullptr
            ? std::as_const(*internet_).deliver_into(
                  request_scratch_, clock_->now(), *net_ctx_,
                  response_scratch_)
            : internet_->deliver_into(request_scratch_, clock_->now(),
                                      response_scratch_);
    if (answered) {
      // A response that fails to parse or checksum is dropped exactly as a
      // real scanner's capture filter would drop it.
      if (wire::parse_packet_into(response_scratch_, parsed_scratch_) &&
          parsed_scratch_.ip.destination == options_.vantage) {
        result.responded = true;
        result.response_source = parsed_scratch_.ip.source;
        result.type = parsed_scratch_.icmp.type;
        result.code = parsed_scratch_.icmp.code;
      } else if (tm_wire_drops_ != nullptr) {
        tm_wire_drops_->inc();
      }
    }
  } else {
    const auto reply =
        net_ctx_ != nullptr
            ? std::as_const(*internet_).probe(target, hop_limit,
                                              clock_->now(), *net_ctx_)
            : internet_->probe(target, hop_limit, clock_->now());
    if (reply) {
      result.responded = true;
      result.response_source = reply->source;
      result.type = reply->type;
      result.code = reply->code;
    }
  }

  if (result.responded) {
    ++counters_.received;
    if (tm_received_ != nullptr) tm_received_->inc();
  }

  // Pace to the configured rate. Integer division floors the gap; a 10kpps
  // prober advances 100us per probe.
  const sim::Duration gap = options_.packets_per_second == 0
                                ? 0
                                : sim::kSecond / static_cast<sim::Duration>(
                                                     options_.packets_per_second);
  clock_->advance(gap);
  return result;
}

void Prober::probe_into_batch(net::Ipv6Address target,
                              const ResultSink& sink) {
  const ProbeResult r = probe_one(target);
  if (!r.responded) return;
  batch_.push_back(r);
  if (batch_.size() >= kBatchSize) {
    sink(batch_);
    batch_.clear();
  }
}

void Prober::sweep_subnets(net::Prefix parent, unsigned sub_length,
                           std::uint64_t seed, const ResultSink& sink) {
  SubnetTargets gen{parent, sub_length, seed};
  batch_.clear();
  batch_.reserve(kBatchSize);
  net::Ipv6Address target;
  while (gen.next(target)) probe_into_batch(target, sink);
  if (!batch_.empty()) {
    sink(batch_);
    batch_.clear();
  }
}

std::vector<ProbeResult> Prober::sweep_subnets(net::Prefix parent,
                                               unsigned sub_length,
                                               std::uint64_t seed) {
  std::vector<ProbeResult> responsive;
  // Responsive results never exceed the target count, but a sweep can span
  // 2^32 subnets — cap the up-front reservation at one /48's worth.
  responsive.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(SubnetTargets{parent, sub_length, seed}.size(),
                              std::uint64_t{1} << 16)));
  sweep_subnets(parent, sub_length, seed,
                [&responsive](std::span<const ProbeResult> batch) {
                  responsive.insert(responsive.end(), batch.begin(),
                                    batch.end());
                });
  return responsive;
}

}  // namespace scent::probe
