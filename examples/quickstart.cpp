// quickstart.cpp - the library in five minutes.
//
// 1. Decode an EUI-64 IPv6 address back to the CPE's MAC and manufacturer.
// 2. Build a small simulated Internet with a prefix-rotating provider.
// 3. Probe a customer prefix and watch the CPE leak its WAN address.
// 4. Let the provider rotate prefixes overnight, and re-find the same
//    device by its immutable EUI-64 IID — the paper's core result.

#include <cstdio>

#include "core/tracker.h"
#include "netbase/eui64.h"
#include "oui/oui_registry.h"
#include "probe/prober.h"
#include "probe/target_generator.h"
#include "sim/scenario.h"

#include "example_util.h"

int main(int argc, char** argv) {
  using namespace scent;

  // Accepts the shared flags like every example; the quickstart probes
  // serially, so --trace-out yields an empty (but valid) timeline.
  const examples::Cli cli = examples::Cli::parse(argc, argv);
  if (const int rc = cli.require_valid()) return rc;
  examples::TraceSink trace_sink{cli};

  // --- 1. EUI-64 is reversible: address -> MAC -> manufacturer.
  const auto addr = *net::Ipv6Address::parse("2001:16b8:2:300:3a10:d5ff:feaa:bbcc");
  const auto mac = net::embedded_mac(addr);
  std::printf("address        %s\n", addr.to_string().c_str());
  std::printf("embedded MAC   %s\n", mac->to_string().c_str());
  const auto vendor = oui::builtin_registry().vendor(*mac);
  std::printf("manufacturer   %s\n\n",
              vendor ? std::string{*vendor}.c_str() : "(unknown)");

  // --- 2. A tiny Internet: one daily-rotating provider, one static one.
  sim::PaperWorld world = sim::make_tiny_world();
  sim::VirtualClock clock{sim::hours(12)};  // day 0, noon
  probe::Prober prober{world.internet, clock};

  // Ground truth (for the demo only; the attack below never uses it).
  const sim::Provider& rotator = world.internet.provider(world.versatel);
  const auto target_device = sim::Provider::DeviceRef{0, 0};
  const net::Ipv6Address wan_today =
      rotator.wan_address(target_device, clock.now());
  const net::MacAddress target_mac =
      rotator.pools()[0].devices()[0].mac;
  std::printf("victim CPE MAC      %s\n", target_mac.to_string().c_str());
  std::printf("victim WAN (day 0)  %s\n", wan_today.to_string().c_str());

  // --- 3. Probe a nonexistent host inside the victim's delegated prefix:
  // the CPE answers with an ICMPv6 error that leaks its WAN address.
  const net::Prefix allocation = rotator.allocation(target_device, clock.now());
  const net::Ipv6Address probe_target = probe::target_in(allocation, 42);
  const probe::ProbeResult r = prober.probe_one(probe_target);
  std::printf("probe %s -> %s (%s)\n", probe_target.to_string().c_str(),
              r.responded ? r.response_source.to_string().c_str() : "(silence)",
              r.responded ? std::string{wire::to_string(r.type)}.c_str()
                          : "-");

  // --- 4. Overnight, the provider rotates every customer prefix...
  clock.advance_to(sim::days(1) + sim::hours(12));
  const net::Ipv6Address wan_tomorrow =
      rotator.wan_address(target_device, clock.now());
  std::printf("\nafter rotation, victim WAN (day 1) = %s\n",
              wan_tomorrow.to_string().c_str());

  // ...but the EUI-64 IID is immutable, so a pool sweep re-finds it.
  core::TrackerConfig config;
  config.target_mac = target_mac;
  config.pool = rotator.pools()[0].config().prefix;
  config.allocation_length = rotator.pools()[0].config().allocation_length;
  config.seed = 7;
  core::Tracker tracker{prober, config};
  const core::TrackAttempt attempt = tracker.locate(1);
  std::printf("tracker: %s after %llu probes -> %s\n",
              attempt.found ? "FOUND" : "lost",
              static_cast<unsigned long long>(attempt.probes_sent),
              attempt.found ? attempt.address.to_string().c_str() : "-");

  if (!trace_sink.finish()) return 1;
  return attempt.found &&
                 net::embedded_mac(attempt.address) == target_mac &&
                 attempt.address == wan_tomorrow
             ? 0
             : 1;
}
