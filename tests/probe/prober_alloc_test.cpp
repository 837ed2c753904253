// Allocation regression test for the wire-mode probe round-trip: request
// build, simulated delivery, response build and response parse all reuse
// per-prober (and per-call stack) storage, so a sweep's heap traffic must
// not grow with its probe count. Global operator new is replaced with a
// counting shim, which is why this test is its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>

#include "probe/prober.h"
#include "sim/scenario.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scent::probe {
namespace {

/// Heap allocations made by one wire-mode sweep of every /64 in `parent`,
/// on a fresh prober — through the caller-owned NetContext (the sharded
/// engine's path) or the Internet's built-in state (serial callers).
struct SweepAllocations {
  std::uint64_t allocations = 0;
  std::uint64_t probes = 0;
  std::uint64_t responses = 0;
};

SweepAllocations sweep_allocations(sim::PaperWorld& world, net::Prefix parent,
                                   bool use_context) {
  sim::VirtualClock clock{sim::hours(12)};
  ProberOptions options;
  options.wire_mode = true;
  Prober prober{world.internet, clock, options};
  sim::NetContext ctx;
  if (use_context) prober.set_net_context(&ctx);

  SweepAllocations out;
  const Prober::ResultSink sink = [&out](std::span<const ProbeResult> batch) {
    out.responses += batch.size();
  };
  const std::uint64_t before = g_allocations.load();
  prober.sweep_subnets(parent, 64, 0x5EED, sink);
  out.allocations = g_allocations.load() - before;
  out.probes = prober.counters().sent;
  return out;
}

TEST(ProberAllocations, WireSweepAllocationsDoNotGrowWithProbeCount) {
  auto world = sim::make_tiny_world(3, 256);
  // A /48 full of rotating-pool customers: its /64 sweep elicits a quoted
  // error from a CPE for every probe, so the error builder and the
  // quote-copying parse run on each round trip.
  const auto& provider = world.internet.provider(world.versatel);
  const net::Prefix allocation =
      provider.allocation({0, 0}, sim::hours(12));
  const net::Prefix slash48 = allocation.parent(48);
  const net::Prefix slash52 = allocation.parent(52);

  for (const bool use_context : {true, false}) {
    const auto small = sweep_allocations(world, slash52, use_context);
    const auto large = sweep_allocations(world, slash48, use_context);
    ASSERT_EQ(small.probes, 4096u);
    ASSERT_EQ(large.probes, 65536u);
    // The larger sweep really makes more round trips, not just more
    // silent probes.
    ASSERT_GE(large.responses, 8 * small.responses);
    ASSERT_GT(small.responses, 0u);
    EXPECT_LE(large.allocations, small.allocations + 64)
        << "use_context=" << use_context << ": /52 sweep made "
        << small.allocations << " allocations, /48 sweep "
        << large.allocations;
  }
}

}  // namespace
}  // namespace scent::probe
