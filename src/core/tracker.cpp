#include "core/tracker.h"

#include "netbase/eui64.h"
#include "probe/target_generator.h"
#include "sim/rng.h"
#include "telemetry/journal.h"
#include "telemetry/span.h"

namespace scent::core {

TrackAttempt Tracker::finish(TrackAttempt attempt) {
  if (config_.registry != nullptr) {
    telemetry::Registry& reg = *config_.registry;
    reg.counter("tracker.attempts").inc();
    reg.counter(attempt.found ? "tracker.hits" : "tracker.misses").inc();
    if (attempt.found_by_prediction) reg.counter("tracker.prediction_hits").inc();
    reg.counter("tracker.probes").add(attempt.probes_sent);
    reg.sketch("tracker.probes_per_attempt").observe(attempt.probes_sent);
  }
  if (attempt.found) {
    telemetry::journal_event(config_.registry, "tracker_hit",
                             {{"day", attempt.day},
                              {"probes", attempt.probes_sent},
                              {"by_prediction", attempt.found_by_prediction},
                              {"address", attempt.address.to_string()}});
  } else {
    telemetry::journal_event(
        config_.registry, "tracker_miss",
        {{"day", attempt.day}, {"probes", attempt.probes_sent}});
  }
  return attempt;
}

bool Tracker::probe_and_check(net::Ipv6Address target, TrackAttempt& attempt) {
  const probe::ProbeResult r = prober_->probe_one(target);
  ++attempt.probes_sent;
  if (!r.responded) return false;
  const auto mac = net::embedded_mac(r.response_source);
  if (!mac || *mac != config_.target_mac) return false;
  attempt.found = true;
  attempt.address = r.response_source;
  attempt.allocation =
      net::Prefix{r.response_source, config_.allocation_length};
  return true;
}

TrackAttempt Tracker::locate(std::int64_t day) {
  telemetry::Span span{config_.registry, "tracker.locate"};
  TrackAttempt attempt;
  attempt.day = day;

  // Phase 1: prediction. Probe the stride model's expected slot and a small
  // neighborhood around it.
  if (config_.prediction) {
    const StrideModel& model = *config_.prediction;
    const std::uint64_t n = model.slots();
    for (unsigned d = 0; d <= config_.prediction_neighborhood && n > 0; ++d) {
      // Probe slot, slot+d, slot-d (d = 0 probes once).
      const std::uint64_t base = model.predict_slot(day);
      const std::uint64_t candidates[2] = {(base + d) % n,
                                           (base + n - d % n) % n};
      const unsigned count = d == 0 ? 1 : 2;
      for (unsigned k = 0; k < count; ++k) {
        const net::Prefix block = model.pool.subnet(
            model.allocation_length, net::Uint128{candidates[k]});
        const net::Ipv6Address target = probe::target_in(
            block, sim::mix64(config_.seed, static_cast<std::uint64_t>(day)));
        if (probe_and_check(target, attempt)) {
          attempt.found_by_prediction = true;
          sightings_.push_back(
              Sighting{day, attempt.address.network()});
          return finish(std::move(attempt));
        }
      }
    }
  }

  // Phase 2: randomized sweep of the pool, one probe per allocation-sized
  // block (the paper's space-reduction search, Figure 2).
  probe::SubnetTargets sweep{
      config_.pool, config_.allocation_length,
      sim::mix64(config_.seed, static_cast<std::uint64_t>(day), 0x5EEB)};
  net::Ipv6Address target;
  while (sweep.next(target)) {
    if (probe_and_check(target, attempt)) {
      sightings_.push_back(Sighting{day, attempt.address.network()});
      return finish(std::move(attempt));
    }
  }
  return finish(std::move(attempt));
}

bool Tracker::update_prediction(double min_support) {
  auto model = fit_stride(sightings_, config_.pool, config_.allocation_length,
                          min_support);
  if (!model) return false;
  config_.prediction = *model;
  return true;
}

}  // namespace scent::core
