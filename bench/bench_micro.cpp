// bench_micro - google-benchmark microbenchmarks of the hot paths.
//
// The paper's vantage probes at 10k packets per second; these benchmarks
// confirm every per-packet component of this implementation (address
// parse/format, EUI-64 codec, checksum, packet build+parse, LPM lookup,
// permutation step, flat-container ops, and the full probe/response loop)
// runs far above that rate, so the simulated campaigns are limited by scale
// choices, not implementation overheads.
//
// main() additionally runs nine guards before the registered benchmarks.
// Every guard is enforced on every host against an absolute floor; a floor
// that needs cores is sized by t = min(hardware threads, 8):
//   * telemetry: attaching a registry costs <5% of fast-path throughput;
//   * trace: an idle span costs <1% and a live one <5% of an ingest batch;
//   * sweep scaling: 8 shards beat serial by >= 3t/8;
//   * ingest: the columnar ObservationStore ingests >= 1.7M obs/s and holds
//     <= 91.7 live heap bytes per observation;
//   * corpus: incremental rotation differencing beats the full-column path
//     >= 1.2x over a 20-day snapshot chain with identical verdicts;
//   * snapshot_v2: >= 3x smaller than v1, save >= max(1, 5t/8)M rows/s,
//     lazy load >= max(1, 10t/8)M rows/s, read_store >= 1M rows/s;
//   * analysis: the fused single-pass engine beats the sum of the five
//     independent full scans it replaced by >= 3x at one thread on a
//     1M-row corpus, with every derived report bit-identical;
//   * serve_incremental: one day's delta beats a full rebuild >= 10x;
//   * join scaling: output equal to the naive oracle at 1 and 8 threads,
//     >= 0.15M rows/s serial, 8 threads beat serial by >= 3t/8.
// All guard numbers are written to $SCENT_BENCH_JSON (default
// BENCH_micro.json) so the perf trajectory is tracked across PRs.
//
// This TU replaces global operator new/delete with a live-byte-counting
// wrapper (malloc_usable_size accounting), which is what makes the
// bytes-per-observation guard a real heap measurement rather than a
// sizeof() estimate.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/derive.h"
#include "analysis/dossier.h"
#include "analysis/engine.h"
#include "analysis/input.h"
#include "container/flat_hash.h"
#include "core/homogeneity.h"
#include "core/inference.h"
#include "core/observation.h"
#include "core/pathology.h"
#include "core/rotation_detector.h"
#include "core/sweep_ingest.h"
#include "corpus/geo_feed.h"
#include "corpus/snapshot.h"
#include "engine/sweep.h"
#include "join/join.h"
#include "join/naive.h"
#include "netbase/eui64.h"
#include "netbase/ipv6_address.h"
#include "oui/oui_registry.h"
#include "probe/permutation.h"
#include "probe/prober.h"
#include "probe/target_generator.h"
#include "routing/bgp_table.h"
#include "routing/prefix_trie.h"
#include "serve/serve_table.h"
#include "sim/geo_feed.h"
#include "sim/scenario.h"
#include "sim/sim_time.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "wire/icmpv6.h"

#include "example_util.h"

namespace {

std::atomic<std::size_t> g_live_heap_bytes{0};

void* tracked_alloc(std::size_t size) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p != nullptr) {
    g_live_heap_bytes.fetch_add(malloc_usable_size(p),
                                std::memory_order_relaxed);
  }
  return p;
}

void* tracked_aligned_alloc(std::size_t alignment, std::size_t size) noexcept {
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded != 0 ? rounded : alignment);
  if (p != nullptr) {
    g_live_heap_bytes.fetch_add(malloc_usable_size(p),
                                std::memory_order_relaxed);
  }
  return p;
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_heap_bytes.fetch_sub(malloc_usable_size(p),
                              std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = tracked_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = tracked_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return tracked_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return tracked_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = tracked_aligned_alloc(static_cast<std::size_t>(align), size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = tracked_aligned_alloc(static_cast<std::size_t>(align), size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}

namespace {

using namespace scent;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Everything the guard legs measure, serialized to BENCH_micro.json at the
/// end of the run so scripts/check.sh can track the numbers across PRs.
struct BenchReport {
  unsigned hardware_threads = 0;
  /// t in every core-sized floor: the cores present, capped at the 8
  /// threads the scaling guards run.
  [[nodiscard]] double floor_threads() const {
    return std::min(hardware_threads, 8u);
  }

  double telemetry_plain_mops = 0;
  double telemetry_attached_mops = 0;
  double telemetry_overhead_pct = 0;
  bool telemetry_ok = false;

  std::size_t sweep_probes = 0;
  double sweep_serial_mops = 0;
  std::vector<std::pair<unsigned, double>> sweep_speedups;
  double sweep_speedup_at_8 = 0;
  bool sweep_ok = false;

  std::size_t ingest_observations = 0;
  double ingest_columnar_mops = 0;
  double columnar_bytes_per_obs = 0;
  bool ingest_ok = false;

  std::size_t container_keys = 0;
  double flat_insert_mops = 0, std_insert_mops = 0;
  double flat_find_mops = 0, std_find_mops = 0;
  double flat_iterate_mops = 0, std_iterate_mops = 0;
  std::size_t container_50m_keys = 0;  // large-scale flat-only pass
  double flat_50m_insert_mops = 0;
  double flat_50m_find_mops = 0;

  std::size_t join_corpus_rows = 0;
  std::size_t join_geo_rows = 0;
  unsigned join_partitions = 0;
  double join_serial_s = 0;
  double join_parallel8_s = 0;
  double join_speedup_at_8 = 0;
  double join_serial_mrows_per_s = 0;   // (corpus + geo rows) / serial time
  std::size_t join_spill_runs = 0;
  std::size_t join_spill_bytes = 0;
  std::size_t join_blocks_read = 0;
  std::size_t join_blocks_pruned = 0;
  std::size_t join_dossiers = 0;
  bool join_outputs_equal = false;      // 1-thread == 8-thread table
  bool join_oracle_equal = false;       // partitioned == naive hash join
  std::size_t join_huge_rows_per_side = 0;  // 0 = gated config not run
  std::size_t join_huge_peak_heap_bytes = 0;
  std::size_t join_huge_bound_bytes = 0;
  bool join_huge_ok = true;             // vacuously true when gated off
  bool join_ok = false;

  std::size_t snapshot_v2_rows = 0;
  std::size_t snapshot_v1_file_bytes = 0;   // frozen-layout baseline
  std::size_t snapshot_v2_file_bytes = 0;
  double snapshot_v2_bytes_per_row = 0;
  double snapshot_v2_ratio = 0;             // v1 bytes / v2 bytes
  double snapshot_v2_save_mrps = 0;         // encode+write, all threads
  double snapshot_v2_load_mrps = 0;         // lazy 4-column read, all threads
  double snapshot_v2_read_store_mrps = 0;   // open+read_store, one thread
  std::size_t snapshot_v2_blocks = 0;       // per column section
  std::size_t snapshot_v2_blocks_skipped = 0;  // by the window probe
  bool snapshot_v2_ok = false;
  unsigned diff_days = 0;
  double diff_full_ms = 0;
  double diff_incremental_ms = 0;
  double diff_speedup = 0;
  bool corpus_ok = false;

  std::size_t trace_rows = 0;
  double trace_batch_ns = 0;          // one 256-row columnar ingest batch
  double trace_idle_sample_ns = 0;    // telemetry::Span, no sink attached
  double trace_enabled_sample_ns = 0; // telemetry::Span, live slot+recorder
  double trace_idle_overhead_pct = 0;
  double trace_enabled_overhead_pct = 0;
  bool trace_ok = false;

  std::size_t analysis_rows = 0;
  std::size_t analysis_devices = 0;
  std::size_t analysis_ases = 0;
  double analysis_alloc_ms = 0;        // legacy scan 1: global Algorithm 1
  double analysis_pool_ms = 0;         // legacy scan 2: global Algorithm 2
  double analysis_per_as_ms = 0;       // legacy scan 3: day-0 per-AS medians
  double analysis_homogeneity_ms = 0;  // legacy scan 4: vendor census
  double analysis_pathology_ms = 0;    // legacy scan 5: multi-AS IIDs
  double analysis_legacy_total_ms = 0;
  double analysis_fused_ms = 0;
  double analysis_speedup = 0;
  bool analysis_reports_equal = false;
  bool analysis_ok = false;

  unsigned serve_days = 0;
  std::size_t serve_rows = 0;
  std::size_t serve_devices = 0;
  double serve_rebuild_ms = 0;      // full fused rebuild, whole corpus
  double serve_delta_apply_ms = 0;  // scan+merge+materialize+publish, 1 day
  double serve_delta_speedup = 0;
  double serve_queries_per_s = 0;   // 4 readers vs live delta ingest
  std::size_t serve_versions_published = 0;
  bool serve_equal = false;  // maintained table == fresh rebuild
  bool serve_ok = false;

  /// One row of the "guards" JSON section: whether this guard's floor held.
  struct GuardStatus {
    const char* name = "";
    bool ok = false;
  };
  std::vector<GuardStatus> guard_status;
};

// ---------------------------------------------------------------------------
// Per-packet component benchmarks (registered; run via the benchmark CLI).

void BM_AddressParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::Ipv6Address::parse("2001:16b8:2:300:3a10:d5ff:feaa:bbcc"));
  }
}
BENCHMARK(BM_AddressParse);

void BM_AddressFormat(benchmark::State& state) {
  const net::Ipv6Address a{0x200116b800020300ULL, 0x3a10d5fffeaabbccULL};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.to_string());
  }
}
BENCHMARK(BM_AddressFormat);

void BM_Eui64Codec(benchmark::State& state) {
  std::uint64_t mac_bits = 0x3810d5000000ULL;
  for (auto _ : state) {
    const std::uint64_t iid = net::mac_to_eui64(net::MacAddress{mac_bits++});
    benchmark::DoNotOptimize(net::eui64_to_mac(iid));
  }
}
BENCHMARK(BM_Eui64Codec);

void BM_ChecksumIcmpv6(benchmark::State& state) {
  const net::Ipv6Address src{0x20010db800000000ULL, 1};
  const net::Ipv6Address dst{0x200116b800020300ULL, 2};
  std::vector<std::uint8_t> message(64, 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::icmpv6_checksum(src, dst, message));
  }
}
BENCHMARK(BM_ChecksumIcmpv6);

void BM_PacketBuildParse(benchmark::State& state) {
  const net::Ipv6Address src{0x20010db800000000ULL, 1};
  const net::Ipv6Address dst{0x200116b800020300ULL, 2};
  std::uint16_t seq = 0;
  for (auto _ : state) {
    const auto packet = wire::build_echo_request(src, dst, 0x5C37, ++seq, 64);
    benchmark::DoNotOptimize(wire::parse_packet(packet));
  }
}
BENCHMARK(BM_PacketBuildParse);

void BM_TrieLongestMatch(benchmark::State& state) {
  routing::PrefixTrie<int> trie;
  sim::Rng rng{42};
  for (int i = 0; i < 1000; ++i) {
    const net::Ipv6Address base{rng.next() & 0xffffffff00000000ULL, 0};
    trie.insert(net::Prefix{base, 32 + static_cast<unsigned>(rng.below(17))},
                i);
  }
  sim::Rng query_rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trie.longest_match(net::Ipv6Address{query_rng.next(), 0}));
  }
}
BENCHMARK(BM_TrieLongestMatch);

void BM_PermutationNext(benchmark::State& state) {
  probe::CyclicPermutation perm{1ULL << 20, 99};
  std::uint64_t out = 0;
  for (auto _ : state) {
    if (!perm.next(out)) perm.reset();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_PermutationNext);

void BM_FeistelForward(benchmark::State& state) {
  const sim::FeistelPermutation perm{1ULL << 18, 31337};
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.forward(x++ & ((1ULL << 18) - 1)));
  }
}
BENCHMARK(BM_FeistelForward);

void BM_TargetGeneration(benchmark::State& state) {
  const net::Prefix pool = *net::Prefix::parse("2001:16b8:100::/46");
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe::target_in(pool.subnet(56, net::Uint128{i++ & 1023}), 7));
  }
}
BENCHMARK(BM_TargetGeneration);

/// The full probe loop, fast path: route, invert pool occupancy, synthesize
/// the reply. Items/sec here is the simulated "packets per second" ceiling.
void BM_ProbeLoopFast(benchmark::State& state) {
  static sim::PaperWorld world = sim::make_tiny_world(5, 512);
  sim::VirtualClock clock{sim::hours(12)};
  probe::ProberOptions options;
  options.wire_mode = false;
  options.packets_per_second = 0;  // no pacing: measure raw throughput
  probe::Prober prober{world.internet, clock, options};
  const auto& pool = world.internet.provider(world.versatel).pools()[0];
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto target = probe::target_in(
        pool.config().prefix.subnet(56, net::Uint128{i++ & 1023}), 3);
    benchmark::DoNotOptimize(prober.probe_one(target));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProbeLoopFast);

/// Fast-path loop with a telemetry registry attached: per probe this adds
/// two cached-pointer null checks and two counter increments. Compare
/// items/sec against BM_ProbeLoopFast.
void BM_ProbeLoopFastTelemetry(benchmark::State& state) {
  static sim::PaperWorld world = sim::make_tiny_world(5, 512);
  sim::VirtualClock clock{sim::hours(12)};
  probe::ProberOptions options;
  options.wire_mode = false;
  options.packets_per_second = 0;
  probe::Prober prober{world.internet, clock, options};
  telemetry::Registry registry;
  registry.set_clock(&clock);
  prober.attach_telemetry(registry);
  const auto& pool = world.internet.provider(world.versatel).pools()[0];
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto target = probe::target_in(
        pool.config().prefix.subnet(56, net::Uint128{i++ & 1023}), 3);
    benchmark::DoNotOptimize(prober.probe_one(target));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProbeLoopFastTelemetry);

/// Same loop through full wire serialization, checksum, parse.
void BM_ProbeLoopWire(benchmark::State& state) {
  static sim::PaperWorld world = sim::make_tiny_world(6, 512);
  sim::VirtualClock clock{sim::hours(12)};
  probe::ProberOptions options;
  options.wire_mode = true;
  options.packets_per_second = 0;
  probe::Prober prober{world.internet, clock, options};
  const auto& pool = world.internet.provider(world.versatel).pools()[0];
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto target = probe::target_in(
        pool.config().prefix.subnet(56, net::Uint128{i++ & 1023}), 3);
    benchmark::DoNotOptimize(prober.probe_one(target));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProbeLoopWire);

// ---------------------------------------------------------------------------
// Flat-container microbenchmarks vs std::unordered_map, 1M and 10M keys.

std::vector<std::uint64_t> make_keys(std::size_t n, std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.next());
  return keys;
}

template <typename Map>
void map_insert_bench(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto keys = make_keys(n, 0x5EED);
  for (auto _ : state) {
    Map map;
    for (const std::uint64_t k : keys) map[k] = k;
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}

template <typename Map>
void map_find_bench(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto keys = make_keys(n, 0x5EED);
  Map map;
  for (const std::uint64_t k : keys) map[k] = k;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[i]));
    if (++i == n) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename Map>
void map_iterate_bench(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto keys = make_keys(n, 0x5EED);
  Map map;
  for (const std::uint64_t k : keys) map[k] = k;
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const auto& [key, value] : map) sum += value;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(map.size()));
}

using FlatU64Map = container::FlatMap<std::uint64_t, std::uint64_t>;
using StdU64Map = std::unordered_map<std::uint64_t, std::uint64_t>;

void BM_FlatMapInsert(benchmark::State& state) {
  map_insert_bench<FlatU64Map>(state);
}
void BM_StdUnorderedMapInsert(benchmark::State& state) {
  map_insert_bench<StdU64Map>(state);
}
void BM_FlatMapFind(benchmark::State& state) {
  map_find_bench<FlatU64Map>(state);
}
void BM_StdUnorderedMapFind(benchmark::State& state) {
  map_find_bench<StdU64Map>(state);
}
void BM_FlatMapIterate(benchmark::State& state) {
  map_iterate_bench<FlatU64Map>(state);
}
void BM_StdUnorderedMapIterate(benchmark::State& state) {
  map_iterate_bench<StdU64Map>(state);
}
// The flat containers also register a 50M-key size (ROADMAP: stress far
// past 10M — the join engine hashes whole corpus sides); std::unordered_map
// stays capped at 10M, where it is already an order of magnitude behind.
BENCHMARK(BM_FlatMapInsert)->Arg(1 << 20)->Arg(10000000)->Arg(50000000);
BENCHMARK(BM_StdUnorderedMapInsert)->Arg(1 << 20)->Arg(10000000);
BENCHMARK(BM_FlatMapFind)->Arg(1 << 20)->Arg(10000000)->Arg(50000000);
BENCHMARK(BM_StdUnorderedMapFind)->Arg(1 << 20)->Arg(10000000);
BENCHMARK(BM_FlatMapIterate)->Arg(1 << 20)->Arg(10000000);
BENCHMARK(BM_StdUnorderedMapIterate)->Arg(1 << 20)->Arg(10000000);

/// One guarded pass over 1M keys: insert, find (all hits), iterate x4.
/// Returns {insert Mops, find Mops, iterate Mops}.
template <typename Map>
std::array<double, 3> measure_map_ops(const std::vector<std::uint64_t>& keys) {
  const auto n = static_cast<double>(keys.size());
  Map map;
  auto start = std::chrono::steady_clock::now();
  for (const std::uint64_t k : keys) map[k] = k;
  const double insert_s = seconds_since(start);

  start = std::chrono::steady_clock::now();
  std::uint64_t hits = 0;
  for (const std::uint64_t k : keys) {
    const auto it = map.find(k);
    if (it != map.end()) hits += it->second & 1;
  }
  benchmark::DoNotOptimize(hits);
  const double find_s = seconds_since(start);

  start = std::chrono::steady_clock::now();
  std::uint64_t sum = 0;
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& [key, value] : map) sum += value;
  }
  benchmark::DoNotOptimize(sum);
  const double iterate_s = seconds_since(start);

  return {n / insert_s / 1e6, n / find_s / 1e6, 4 * n / iterate_s / 1e6};
}

void measure_container_stats(BenchReport& report) {
  constexpr std::size_t kKeys = 1 << 20;
  const auto keys = make_keys(kKeys, 0x5EED);
  measure_map_ops<FlatU64Map>(keys);  // warm-up, discarded
  std::array<double, 3> flat{};
  std::array<double, 3> std_map{};
  for (int trial = 0; trial < 3; ++trial) {  // interleaved best-of-3
    const auto f = measure_map_ops<FlatU64Map>(keys);
    const auto s = measure_map_ops<StdU64Map>(keys);
    for (std::size_t i = 0; i < 3; ++i) {
      flat[i] = std::max(flat[i], f[i]);
      std_map[i] = std::max(std_map[i], s[i]);
    }
  }
  report.container_keys = kKeys;
  report.flat_insert_mops = flat[0];
  report.flat_find_mops = flat[1];
  report.flat_iterate_mops = flat[2];
  report.std_insert_mops = std_map[0];
  report.std_find_mops = std_map[1];
  report.std_iterate_mops = std_map[2];
  std::printf(
      "containers (%zu u64 keys, Mops, best of 3): flat insert/find/iterate "
      "%.1f/%.1f/%.1f vs std::unordered_map %.1f/%.1f/%.1f\n",
      kKeys, flat[0], flat[1], flat[2], std_map[0], std_map[1], std_map[2]);
}

/// The large-scale flat-only pass: 50M keys, the size the join engine's
/// naive-oracle side actually reaches (ROADMAP asks to stress far past the
/// 10M registered bench). Single trial — the ~2.5 GB working set makes the
/// numbers stable — recording insert and find Mops. This size is what
/// exposed the rehash pathology fixed in flat_hash.h (each grow copied the
/// stale bucket-index array and zero-filled the growth; the 50M chain
/// moved ~1.5 GB of dead bytes).
void measure_container_stats_50m(BenchReport& report) {
  constexpr std::size_t kKeys = 50'000'000;
  const auto keys = make_keys(kKeys, 0xB16);
  FlatU64Map map;
  auto start = std::chrono::steady_clock::now();
  for (const std::uint64_t k : keys) map[k] = k;
  const double insert_s = seconds_since(start);

  start = std::chrono::steady_clock::now();
  std::uint64_t hits = 0;
  for (const std::uint64_t k : keys) {
    const auto it = map.find(k);
    if (it != map.end()) hits += it->second & 1;
  }
  benchmark::DoNotOptimize(hits);
  const double find_s = seconds_since(start);

  report.container_50m_keys = kKeys;
  report.flat_50m_insert_mops = static_cast<double>(kKeys) / insert_s / 1e6;
  report.flat_50m_find_mops = static_cast<double>(kKeys) / find_s / 1e6;
  std::printf(
      "containers (%zu u64 keys, flat only): insert %.1f Mops, find %.1f "
      "Mops\n",
      kKeys, report.flat_50m_insert_mops, report.flat_50m_find_mops);
}

// ---------------------------------------------------------------------------
// Ingest guard: columnar ObservationStore throughput and live heap bytes on
// a paper-shaped stream (mostly-unique responses, MACs recurring across a
// handful of /64s).

/// A campaign-shaped stream: 85% EUI-64 responses from a 128k-MAC
/// population spread over 16k /64s (so responses are almost all distinct,
/// like the paper's 110M-unique-address days, while each MAC recurs ~7x).
std::vector<core::Observation> make_ingest_stream(std::uint64_t seed,
                                                  std::size_t count) {
  sim::Rng rng{seed};
  std::vector<core::Observation> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t network =
        0x200116b800000000ULL | (rng.below(1 << 14) << 8);
    net::Ipv6Address response;
    if (rng.chance(0.85)) {
      const net::MacAddress mac{0x3810d5000000ULL | rng.below(1 << 17)};
      response = net::Ipv6Address{network, net::mac_to_eui64(mac)};
    } else {
      response =
          net::Ipv6Address{network, rng.next() | 0x0400000000000000ULL};
    }
    out.push_back(core::Observation{net::Ipv6Address{network, i}, response,
                                    wire::Icmpv6Type::kEchoReply, 0,
                                    static_cast<sim::TimePoint>(i)});
  }
  return out;
}

struct IngestMeasurement {
  double rate = 0;           // observations/sec
  double bytes_per_obs = 0;  // live heap bytes per observation, store alive
};

IngestMeasurement measure_ingest(const std::vector<core::Observation>& stream) {
  const std::size_t heap_before =
      g_live_heap_bytes.load(std::memory_order_relaxed);
  core::ObservationStore store;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& obs : stream) store.add(obs);
  const double seconds = seconds_since(start);
  benchmark::DoNotOptimize(store.unique_responses());
  benchmark::DoNotOptimize(store.unique_eui64_iids());
  const std::size_t heap_after =
      g_live_heap_bytes.load(std::memory_order_relaxed);
  IngestMeasurement m;
  m.rate = static_cast<double>(stream.size()) / seconds;
  m.bytes_per_obs = static_cast<double>(heap_after - heap_before) /
                    static_cast<double>(stream.size());
  return m;
}

void BM_ObservationIngestColumnar(benchmark::State& state) {
  const auto stream =
      make_ingest_stream(0xD1, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    core::ObservationStore store;
    for (const auto& obs : stream) store.add(obs);
    benchmark::DoNotOptimize(store.unique_responses());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ObservationIngestColumnar)->Arg(1 << 20);

/// Absolute ingest floors: >= 1.7M obs/s (above twice the 0.6-0.8M obs/s
/// the node-based layout it replaced measured) and <= 91.7 live heap bytes
/// per observation (at least 30% below that layout's 131.1, which was
/// recorded to one decimal: 0.7 x 131.05 = 91.735).
bool check_ingest_guard(BenchReport& report) {
  constexpr std::size_t kObservations = 1 << 20;
  const auto stream = make_ingest_stream(0xD1, kObservations);

  measure_ingest(stream);  // warm-up, discarded
  IngestMeasurement columnar;
  for (int trial = 0; trial < 3; ++trial) {  // best-of-3
    const auto c = measure_ingest(stream);
    columnar.rate = std::max(columnar.rate, c.rate);
    // Bytes are deterministic per layout; keep the last measurement.
    columnar.bytes_per_obs = c.bytes_per_obs;
  }

  report.ingest_observations = kObservations;
  report.ingest_columnar_mops = columnar.rate / 1e6;
  report.columnar_bytes_per_obs = columnar.bytes_per_obs;

  const bool rate_ok = columnar.rate >= 1.7e6;
  const bool bytes_ok = columnar.bytes_per_obs <= 91.7;
  std::printf("ingest guard (%zu obs): columnar %.2fM obs/s (floor 1.7M) %s\n",
              kObservations, columnar.rate / 1e6, rate_ok ? "OK" : "FAILED");
  std::printf("bytes guard: columnar %.1f B/obs (ceiling 91.7) %s\n",
              columnar.bytes_per_obs, bytes_ok ? "OK" : "FAILED");
  report.ingest_ok = rate_ok && bytes_ok;
  return report.ingest_ok;
}

// ---------------------------------------------------------------------------
// Corpus guard: incremental rotation differencing vs. the full-column path
// over a multi-day on-disk corpus (the §5f checkpoint chain shape).

std::string bench_tmp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string{dir != nullptr && *dir != '\0' ? dir : "/tmp"} + "/" +
         name;
}

/// One campaign day: `targets` distinct targets probed `repeat` times each,
/// all EUI-64 responsive, with the fleet's /64s shifted per day (prefix
/// rotation). Repeats make the deduplicated EUI-pair section much smaller
/// than the row columns — the asymmetry incremental differencing exploits.
core::ObservationStore make_day_store(std::uint64_t day, std::size_t targets,
                                      std::size_t repeat) {
  core::ObservationStore store;
  for (std::size_t r = 0; r < repeat; ++r) {
    for (std::size_t i = 0; i < targets; ++i) {
      core::Observation obs;
      obs.target = net::Ipv6Address{0x20010db800000000ULL | (i << 16), 1};
      const std::uint64_t slot = (i * 131 + day * 977) & 0x3fff;
      obs.response =
          net::Ipv6Address{0x200116b800000000ULL | (slot << 8),
                           net::mac_to_eui64(net::MacAddress{
                               0x3810d5000000ULL + i})};
      obs.type = wire::Icmpv6Type::kEchoReply;
      obs.code = 0;
      obs.time = static_cast<sim::TimePoint>(day * 86400000000ULL +
                                             r * targets + i);
      store.add(obs);
    }
  }
  return store;
}

/// The pre-corpus way to diff yesterday against today: read the full row
/// columns back, rebuild the in-memory Snapshot, then detect_rotation.
std::vector<core::RotationVerdict> full_diff_from_disk(
    const std::string& path, const core::Snapshot& second, bool& ok) {
  corpus::SnapshotReader reader;
  std::vector<net::Ipv6Address> targets;
  std::vector<net::Ipv6Address> responses;
  ok = reader.open(path) && reader.read_targets(targets) &&
       reader.read_responses(responses) && ok;
  core::Snapshot prior;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    prior.record(targets[i], responses[i]);
  }
  return core::detect_rotation(prior, second);
}

/// Incremental differencing beats the full-column path by >= 1.2x across
/// a 20-day chain while producing identical verdicts.
bool check_corpus_guard(BenchReport& report) {
  bool io_ok = true;
  constexpr unsigned kPriorDays = 20;
  constexpr std::size_t kTargets = 1 << 14;
  constexpr std::size_t kRepeat = 4;
  std::vector<std::string> day_paths;
  for (unsigned day = 0; day < kPriorDays; ++day) {
    const auto day_store = make_day_store(day, kTargets, kRepeat);
    corpus::SnapshotWriter writer;
    writer.append(day_store);
    day_paths.push_back(
        bench_tmp_path("scent_bench_day_" + std::to_string(day) + ".snap"));
    io_ok = writer.write(day_paths.back()) && io_ok;
  }
  const auto today = make_day_store(kPriorDays, kTargets, kRepeat);
  core::Snapshot second;
  for (std::size_t i = 0; i < today.size(); ++i) {
    second.record(today.target(i), today.response(i));
  }

  bool verdicts_match = true;
  double full_s = 1e30;
  double incremental_s = 1e30;
  for (int trial = 0; trial < 3; ++trial) {  // interleaved best-of-3 sums
    auto start = std::chrono::steady_clock::now();
    std::size_t full_verdicts = 0;
    for (const auto& path : day_paths) {
      const auto verdicts = full_diff_from_disk(path, second, io_ok);
      full_verdicts += verdicts.size();
      benchmark::DoNotOptimize(verdicts);
    }
    full_s = std::min(full_s, seconds_since(start));

    start = std::chrono::steady_clock::now();
    std::size_t incremental_verdicts = 0;
    for (const auto& path : day_paths) {
      corpus::SnapshotReader reader;
      io_ok = reader.open(path) && io_ok;
      const auto verdicts = core::detect_rotation_incremental(reader, second);
      io_ok = verdicts.has_value() && io_ok;
      if (verdicts) incremental_verdicts += verdicts->size();
      benchmark::DoNotOptimize(verdicts);
    }
    incremental_s = std::min(incremental_s, seconds_since(start));
    verdicts_match = verdicts_match && full_verdicts == incremental_verdicts;
  }
  // Field-by-field equality spot check on one day (counts checked above).
  {
    bool ok = true;
    const auto full = full_diff_from_disk(day_paths[0], second, ok);
    corpus::SnapshotReader reader;
    ok = reader.open(day_paths[0]) && ok;
    const auto incremental =
        core::detect_rotation_incremental(reader, second);
    verdicts_match = verdicts_match && ok && incremental.has_value() &&
                     incremental->size() == full.size();
    for (std::size_t i = 0; verdicts_match && i < full.size(); ++i) {
      verdicts_match = (*incremental)[i].prefix == full[i].prefix &&
                       (*incremental)[i].changed == full[i].changed &&
                       (*incremental)[i].rotating == full[i].rotating;
    }
  }
  for (const auto& path : day_paths) std::remove(path.c_str());

  const double speedup = full_s / incremental_s;
  report.diff_days = kPriorDays;
  report.diff_full_ms = full_s * 1e3;
  report.diff_incremental_ms = incremental_s * 1e3;
  report.diff_speedup = speedup;

  const bool diff_ok = speedup >= 1.2 && verdicts_match;
  std::printf(
      "incremental diff guard (%u days x %zu rows): full %.1fms vs "
      "incremental %.1fms = %.2fx (floor 1.2x, verdicts %s) %s\n",
      kPriorDays, kTargets * kRepeat, full_s * 1e3, incremental_s * 1e3,
      speedup, verdicts_match ? "equal" : "DIVERGED",
      diff_ok ? "OK" : "FAILED");
  if (!io_ok) std::printf("corpus guard: snapshot I/O FAILED\n");
  report.corpus_ok = io_ok && diff_ok;
  return report.corpus_ok;
}

std::vector<unsigned char> slurp_file(const std::string& path) {
  std::vector<unsigned char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  unsigned char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

/// Enforces the snapshot-v2 floors on a 1M-row campaign-shaped corpus:
/// >= 3x smaller files than the frozen v1 layout, save (append + encode +
/// write) >= max(1, 5t/8)M rows/s and lazy four-column load >=
/// max(1, 10t/8)M rows/s on all threads, a one-thread open + read_store
/// >= 1M rows/s, byte-identical output at 1 vs 8 writer threads, and
/// block-skipping row-window reads that return exactly the full-read slice
/// while leaving non-overlapping blocks untouched.
bool check_snapshot_v2_guard(BenchReport& report) {
  constexpr std::size_t kRows = 1 << 20;
  const auto stream = make_ingest_stream(0xC0, kRows);
  core::ObservationStore store;
  for (const auto& obs : stream) store.add(obs);

  const std::string path = bench_tmp_path("scent_bench_snapshot_v2.snap");
  bool io_ok = true;
  std::uint64_t v1_bytes = 0;
  std::uint64_t v2_bytes = 0;
  double save_rate = 0;
  for (int trial = 0; trial < 3; ++trial) {  // best-of-3
    const auto start = std::chrono::steady_clock::now();
    corpus::SnapshotWriter writer;
    writer.set_threads(0);  // hardware concurrency
    writer.append(store);
    io_ok = writer.write(path) && io_ok;
    save_rate = std::max(save_rate, kRows / seconds_since(start));
    v2_bytes = writer.encoded_size();
    // The v1 baseline needs no file: the frozen layout's size is a closed
    // form of the row/pair counts — a 148-byte header, 42 B per row and
    // 32 B per EUI pair.
    v1_bytes = 148 + 42 * std::uint64_t{kRows} + 32 * writer.eui_pair_count();
  }

  // Lazy load: the four row columns, no store replay (decode + I/O only).
  double load_rate = 0;
  for (int trial = 0; trial < 3; ++trial) {
    const auto start = std::chrono::steady_clock::now();
    corpus::SnapshotReader reader;
    reader.set_threads(0);
    io_ok = reader.open(path) && io_ok;
    std::vector<net::Ipv6Address> targets;
    std::vector<net::Ipv6Address> responses;
    std::vector<std::uint16_t> type_codes;
    std::vector<sim::TimePoint> times;
    io_ok = reader.read_targets(targets) && reader.read_responses(responses) &&
            reader.read_type_codes(type_codes) && reader.read_times(times) &&
            targets.size() == kRows && times.size() == kRows && io_ok;
    benchmark::DoNotOptimize(targets);
    benchmark::DoNotOptimize(responses);
    benchmark::DoNotOptimize(type_codes);
    benchmark::DoNotOptimize(times);
    load_rate = std::max(load_rate, kRows / seconds_since(start));
  }

  // Full load: open + read_store replays every row into an
  // ObservationStore, on the reader's default single thread.
  double read_store_rate = 0;
  for (int trial = 0; trial < 3; ++trial) {
    const auto start = std::chrono::steady_clock::now();
    corpus::SnapshotReader reader;
    io_ok = reader.open(path) && io_ok;
    const auto loaded = reader.read_store();
    io_ok = loaded.has_value() && loaded->size() == kRows && io_ok;
    benchmark::DoNotOptimize(loaded);
    read_store_rate = std::max(read_store_rate, kRows / seconds_since(start));
  }

  // Determinism: 1 writer thread and 8 writer threads must emit the same
  // bytes (blocks are fixed row partitions encoded independently).
  const std::string serial_path =
      bench_tmp_path("scent_bench_snapshot_v2_t1.snap");
  corpus::SnapshotWriter serial_writer;
  serial_writer.set_threads(1);
  serial_writer.append(store);
  io_ok = serial_writer.write(serial_path) && io_ok;
  corpus::SnapshotWriter eight_writer;
  eight_writer.set_threads(8);
  eight_writer.append(store);
  io_ok = eight_writer.write(path) && io_ok;
  const bool stable = slurp_file(serial_path) == slurp_file(path);
  std::remove(serial_path.c_str());

  // Block-skip probe: a mid-corpus window must equal the full-read slice
  // and must have skipped the blocks it does not overlap.
  bool window_ok = true;
  std::uint64_t blocks_skipped = 0;
  {
    corpus::SnapshotReader full;
    std::vector<net::Ipv6Address> all;
    window_ok = full.open(path) && full.read_responses(all) && window_ok;
    constexpr std::uint64_t kFirst = 400000;
    constexpr std::uint64_t kCount = 200000;
    corpus::SnapshotReader windowed;
    std::vector<net::Ipv6Address> slice;
    window_ok = windowed.open(path) &&
                windowed.read_responses(slice, kFirst, kCount) && window_ok;
    window_ok = window_ok && slice.size() == kCount &&
                std::equal(slice.begin(), slice.end(), all.begin() + kFirst);
    blocks_skipped = windowed.blocks_skipped();
    window_ok = window_ok && blocks_skipped > 0;
  }
  std::remove(path.c_str());

  const double ratio =
      v2_bytes > 0 ? static_cast<double>(v1_bytes) / v2_bytes : 0;
  report.snapshot_v2_rows = kRows;
  report.snapshot_v1_file_bytes = v1_bytes;
  report.snapshot_v2_file_bytes = v2_bytes;
  report.snapshot_v2_bytes_per_row = static_cast<double>(v2_bytes) / kRows;
  report.snapshot_v2_ratio = ratio;
  report.snapshot_v2_save_mrps = save_rate / 1e6;
  report.snapshot_v2_load_mrps = load_rate / 1e6;
  report.snapshot_v2_read_store_mrps = read_store_rate / 1e6;
  report.snapshot_v2_blocks =
      (kRows + corpus::kSnapshotBlockElements - 1) /
      corpus::kSnapshotBlockElements;
  report.snapshot_v2_blocks_skipped = blocks_skipped;

  const double t = report.floor_threads();
  const double save_floor = std::max(1.0, 5 * t / 8);
  const double load_floor = std::max(1.0, 10 * t / 8);
  const bool ratio_ok = ratio >= 3.0;
  const bool save_ok = save_rate / 1e6 >= save_floor;
  const bool load_ok = load_rate / 1e6 >= load_floor;
  const bool read_store_ok = read_store_rate >= 1e6;
  std::printf(
      "snapshot v2 guard (%zu rows): %zu -> %zu bytes = %.2fx smaller "
      "(floor 3x), %.1f B/row %s\n",
      kRows, static_cast<std::size_t>(v1_bytes),
      static_cast<std::size_t>(v2_bytes), ratio,
      report.snapshot_v2_bytes_per_row, ratio_ok ? "OK" : "FAILED");
  std::printf(
      "snapshot v2 guard: save %.1fM rows/s (floor %.3gM), lazy load %.1fM "
      "rows/s (floor %.3gM), read_store %.1fM rows/s (floor 1M) %s\n",
      save_rate / 1e6, save_floor, load_rate / 1e6, load_floor,
      read_store_rate / 1e6,
      save_ok && load_ok && read_store_ok ? "OK" : "FAILED");
  std::printf(
      "snapshot v2 guard: bytes %s at 1 vs 8 threads, window read %s "
      "(%zu blocks skipped)\n",
      stable ? "identical" : "DIVERGED",
      window_ok ? "matches full slice" : "MISMATCH",
      static_cast<std::size_t>(blocks_skipped));
  if (!io_ok) std::printf("snapshot v2 guard: snapshot I/O FAILED\n");
  report.snapshot_v2_ok = io_ok && ratio_ok && save_ok && load_ok &&
                          read_store_ok && stable && window_ok;
  return report.snapshot_v2_ok;
}

// ---------------------------------------------------------------------------
// Fused-analysis guard: scent::analysis builds one aggregate table in a
// single pass and derives every report from it; the baseline is the sum of
// the five independent full scans that pass replaced. The pre-fusion scan
// bodies are kept verbatim below because core::analyze_homogeneity and
// core::find_multi_as_iids are now thin wrappers over the fused engine: the
// legacy scans are the only independent row-scan reference the fused
// reports are checked against.

/// Eight announced /36es under 2001:16b8::/32, one AS each, so attribution,
/// per-AS medians, and the vendor census all see real multi-AS work.
routing::BgpTable make_analysis_bgp() {
  routing::BgpTable bgp;
  for (std::uint64_t k = 0; k < 8; ++k) {
    const net::Ipv6Address base{0x200116b800000000ULL | (k << 28), 0};
    bgp.announce({net::Prefix{base, 36},
                  static_cast<routing::Asn>(65001 + k),
                  k % 2 == 0 ? "DE" : "VN", "BenchNet"});
  }
  return bgp;
}

/// A campaign-shaped analysis corpus: 85% EUI-64 responses from a 64k-MAC
/// population (three OUIs), each device homed in one of the eight announced
/// ASes with a 3% roaming chance (multi-AS pathology fodder), rows spread
/// over 10 scan days, 15% privacy-addressed noise.
core::ObservationStore make_analysis_corpus(std::uint64_t seed,
                                            std::size_t rows) {
  constexpr std::uint64_t kOuis[] = {0x3810d5000000ULL, 0x50c7bf000000ULL,
                                     0xf4f26d000000ULL};
  sim::Rng rng{seed};
  core::ObservationStore store;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t slot = rng.below(1 << 14);
    core::Observation obs;
    obs.type = wire::Icmpv6Type::kEchoReply;
    obs.code = 0;
    obs.time = static_cast<sim::TimePoint>(rng.below(10)) * sim::kDay +
               static_cast<sim::TimePoint>(i);
    std::uint64_t as_pick;
    if (rng.chance(0.85)) {
      const std::uint64_t mac_index = rng.below(1 << 16);
      const net::MacAddress mac{kOuis[mac_index % 3] | mac_index};
      as_pick = rng.chance(0.03) ? rng.below(8) : (mac_index & 7);
      const std::uint64_t network =
          0x200116b800000000ULL | (as_pick << 28) | (slot << 8);
      obs.target = net::Ipv6Address{network, i};
      obs.response = net::Ipv6Address{network, net::mac_to_eui64(mac)};
    } else {
      as_pick = rng.below(8);
      const std::uint64_t network =
          0x200116b800000000ULL | (as_pick << 28) | (slot << 8);
      obs.target = net::Ipv6Address{network, i};
      obs.response =
          net::Ipv6Address{network, rng.next() | 0x0400000000000000ULL};
    }
    store.add(obs);
  }
  return store;
}

/// Row indices grouped by embedded MAC: MACs in first-sighting order, each
/// one's rows ascending. One plain row scan, built once per corpus before
/// the timed trials, so the two grouped legacy scans below stay an
/// independent reference that shares no code with the fused engine.
using MacRows = container::FlatMap<net::MacAddress, std::vector<std::size_t>,
                                   net::MacAddressHash>;

MacRows group_rows_by_mac(const core::ObservationStore& store) {
  MacRows out;
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (const auto mac = net::embedded_mac(store.response(i))) {
      out[*mac].push_back(i);
    }
  }
  return out;
}

/// The pre-fusion analyze_homogeneity body, verbatim: its own full pass
/// over the rows grouped by MAC, with per-observation attribution.
std::vector<core::AsHomogeneity> legacy_homogeneity(
    const core::ObservationStore& store, const MacRows& rows_by_mac,
    const routing::BgpTable& bgp, const oui::Registry& registry,
    std::size_t min_iids) {
  struct AsAccumulator {
    std::string country;
    container::FlatMap<std::string,
                       container::FlatSet<net::MacAddress, net::MacAddressHash>>
        vendor_macs;
    container::FlatSet<net::MacAddress, net::MacAddressHash> all_macs;
  };
  container::FlatMap<routing::Asn, AsAccumulator> per_as;
  routing::AttributionCache attributions;

  for (const auto& [mac, rows] : rows_by_mac) {
    container::FlatSet<routing::Asn> seen_as;
    for (const std::size_t i : rows) {
      const auto* ad = bgp.attribute(store.response(i), attributions);
      if (ad == nullptr) continue;
      if (!seen_as.insert(ad->origin_asn).second) continue;
      AsAccumulator& acc = per_as[ad->origin_asn];
      acc.country = ad->country;
      const auto vendor = registry.vendor(mac);
      acc.vendor_macs[vendor ? std::string{*vendor} : "(unknown)"].insert(mac);
      acc.all_macs.insert(mac);
    }
  }

  std::vector<core::AsHomogeneity> out;
  out.reserve(per_as.size());
  for (auto& [asn, acc] : per_as) {
    if (acc.all_macs.size() < min_iids) continue;
    core::AsHomogeneity h;
    h.asn = asn;
    h.country = acc.country;
    h.unique_iids = acc.all_macs.size();
    h.vendors.reserve(acc.vendor_macs.size());
    for (const auto& [vendor, macs] : acc.vendor_macs) {
      h.vendors.push_back(core::VendorCount{vendor, macs.size()});
    }
    std::sort(h.vendors.begin(), h.vendors.end(),
              [](const core::VendorCount& a, const core::VendorCount& b) {
                if (a.unique_iids != b.unique_iids) {
                  return a.unique_iids > b.unique_iids;
                }
                return a.vendor < b.vendor;
              });
    out.push_back(std::move(h));
  }
  std::sort(out.begin(), out.end(),
            [](const core::AsHomogeneity& a, const core::AsHomogeneity& b) {
              return a.asn < b.asn;
            });
  return out;
}

/// The pre-fusion find_multi_as_iids body, verbatim: per-MAC std::set
/// prefilter plus a second presence pass with std::map-of-std::set days.
std::vector<core::MultiAsIid> legacy_multi_as_iids(
    const core::ObservationStore& store, const MacRows& rows_by_mac,
    const routing::BgpTable& bgp, const core::PathologyOptions& options) {
  const auto is_default_mac = [](net::MacAddress mac) noexcept {
    return mac.bits() == 0 || mac.bits() == 0xffffffffffffULL;
  };
  std::vector<core::MultiAsIid> out;
  routing::AttributionCache attributions;
  for (const auto& [mac, rows] : rows_by_mac) {
    std::set<routing::Asn> asns;
    for (const std::size_t i : rows) {
      const auto* ad = bgp.attribute(store.response(i), attributions);
      if (ad != nullptr) asns.insert(ad->origin_asn);
    }
    if (asns.size() < 2) continue;

    core::MultiAsIid entry;
    entry.mac = mac;
    entry.asns.assign(asns.begin(), asns.end());

    core::DailyAsPresence presence;
    for (const std::size_t i : rows) {
      const auto* ad = bgp.attribute(store.response(i), attributions);
      if (ad == nullptr) continue;
      presence.days[sim::day_of(store.time(i))].insert(ad->origin_asn);
    }
    for (const auto& [day, day_asns] : presence.days) {
      if (day_asns.size() >= 2) ++entry.concurrent_days;
    }

    if (is_default_mac(mac)) {
      entry.kind = core::PathologyKind::kDefaultMac;
    } else if (entry.concurrent_days >= options.min_concurrent_days) {
      entry.kind = core::PathologyKind::kConcurrentReuse;
    } else if (asns.size() == 2 && entry.concurrent_days == 0) {
      const routing::Asn a = entry.asns[0];
      const routing::Asn b = entry.asns[1];
      std::int64_t last_a = INT64_MIN, first_a = INT64_MAX;
      std::int64_t last_b = INT64_MIN, first_b = INT64_MAX;
      for (const auto& [day, day_asns] : presence.days) {
        if (day_asns.contains(a)) {
          last_a = std::max(last_a, day);
          first_a = std::min(first_a, day);
        }
        if (day_asns.contains(b)) {
          last_b = std::max(last_b, day);
          first_b = std::min(first_b, day);
        }
      }
      if (last_a < first_b) {
        entry.kind = core::PathologyKind::kProviderSwitch;
        entry.switch_from = a;
        entry.switch_to = b;
        entry.switch_day = first_b;
      } else if (last_b < first_a) {
        entry.kind = core::PathologyKind::kProviderSwitch;
        entry.switch_from = b;
        entry.switch_to = a;
        entry.switch_day = first_a;
      } else {
        entry.kind = core::PathologyKind::kMultiAsOther;
      }
    } else {
      entry.kind = core::PathologyKind::kMultiAsOther;
    }
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const core::MultiAsIid& a, const core::MultiAsIid& b) {
              return a.mac < b.mac;
            });
  return out;
}

/// Everything the five legacy scans (or the one fused pass) produce; the
/// guard asserts the two sides are identical field by field.
struct AnalysisReports {
  std::optional<unsigned> alloc_median;
  std::optional<unsigned> pool_median;
  container::FlatMap<routing::Asn, unsigned> alloc_by_as;
  std::vector<core::AsHomogeneity> census;
  std::vector<core::MultiAsIid> pathologies;
};

bool same_analysis_reports(const AnalysisReports& a,
                           const AnalysisReports& b) {
  if (a.alloc_median != b.alloc_median) return false;
  if (a.pool_median != b.pool_median) return false;
  if (!(a.alloc_by_as == b.alloc_by_as)) return false;
  if (a.census.size() != b.census.size()) return false;
  for (std::size_t i = 0; i < a.census.size(); ++i) {
    const auto& x = a.census[i];
    const auto& y = b.census[i];
    if (x.asn != y.asn || x.country != y.country ||
        x.unique_iids != y.unique_iids ||
        x.vendors.size() != y.vendors.size()) {
      return false;
    }
    for (std::size_t v = 0; v < x.vendors.size(); ++v) {
      if (x.vendors[v].vendor != y.vendors[v].vendor ||
          x.vendors[v].unique_iids != y.vendors[v].unique_iids) {
        return false;
      }
    }
  }
  if (a.pathologies.size() != b.pathologies.size()) return false;
  for (std::size_t i = 0; i < a.pathologies.size(); ++i) {
    const auto& x = a.pathologies[i];
    const auto& y = b.pathologies[i];
    if (x.mac != y.mac || x.kind != y.kind || x.asns != y.asns ||
        x.concurrent_days != y.concurrent_days ||
        x.switch_from != y.switch_from || x.switch_to != y.switch_to ||
        x.switch_day != y.switch_day) {
      return false;
    }
  }
  return true;
}

/// The five pre-fusion scans, timed individually; their sum is the guard's
/// baseline.
AnalysisReports run_legacy_analysis(const core::ObservationStore& store,
                                    const MacRows& rows_by_mac,
                                    const routing::BgpTable& bgp,
                                    const oui::Registry& registry,
                                    std::array<double, 5>& seconds) {
  AnalysisReports reports;

  auto start = std::chrono::steady_clock::now();
  core::AllocationSizeInference alloc;
  alloc.observe_all(store);
  reports.alloc_median = alloc.median_length();
  seconds[0] = seconds_since(start);

  start = std::chrono::steady_clock::now();
  core::RotationPoolInference pools;
  pools.observe_all(store);
  reports.pool_median = pools.median_length();
  seconds[1] = seconds_since(start);

  start = std::chrono::steady_clock::now();
  std::map<routing::Asn, core::AllocationSizeInference> per_as_alloc;
  routing::AttributionCache attributions;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto* ad = bgp.attribute(store.response(i), attributions);
    if (ad == nullptr) continue;
    per_as_alloc[ad->origin_asn].observe(store.target(i), store.response(i));
  }
  for (const auto& [asn, inference] : per_as_alloc) {
    if (const auto median = inference.median_length()) {
      reports.alloc_by_as[asn] = *median;
    }
  }
  seconds[2] = seconds_since(start);

  start = std::chrono::steady_clock::now();
  reports.census =
      legacy_homogeneity(store, rows_by_mac, bgp, registry, /*min_iids=*/100);
  seconds[3] = seconds_since(start);

  start = std::chrono::steady_clock::now();
  reports.pathologies = legacy_multi_as_iids(store, rows_by_mac, bgp, {});
  seconds[4] = seconds_since(start);

  return reports;
}

/// One fused pass at one thread, then every report derived from the table.
AnalysisReports run_fused_analysis(const core::ObservationStore& store,
                                   const routing::BgpTable& bgp,
                                   const oui::Registry& registry,
                                   double& seconds, BenchReport& report) {
  const auto start = std::chrono::steady_clock::now();
  analysis::AnalysisOptions options;
  options.threads = 1;
  options.collect_sightings = false;
  const analysis::AggregateTable table = analysis::analyze(store, &bgp,
                                                           options);
  AnalysisReports reports;
  reports.alloc_median = analysis::allocation_median(table);
  reports.pool_median = analysis::pool_median(table);
  reports.alloc_by_as = analysis::allocation_medians_by_as(table);
  reports.census = analysis::homogeneity(table, registry, /*min_iids=*/100);
  reports.pathologies = analysis::multi_as_iids(table, {});
  seconds = seconds_since(start);
  report.analysis_devices = table.devices.size();
  report.analysis_ases = table.as_rollups.size();
  return reports;
}

/// Enforces this PR's tentpole floor: the fused single-pass engine beats
/// the summed legacy scans >= 3x at one thread, reports bit-identical.
/// Single-threaded on both sides, so the floor is enforced on any host.
bool check_analysis_guard(BenchReport& report) {
  constexpr std::size_t kRows = 1 << 20;
  const core::ObservationStore store = make_analysis_corpus(0xA11, kRows);
  const MacRows rows_by_mac = group_rows_by_mac(store);
  const routing::BgpTable bgp = make_analysis_bgp();
  const oui::Registry& registry = oui::builtin_registry();

  std::array<double, 5> legacy_s{};
  std::array<double, 5> best_legacy_s;
  best_legacy_s.fill(1e30);
  double fused_s = 0;
  double best_fused_s = 1e30;
  {
    // Warm-up, discarded.
    run_fused_analysis(store, bgp, registry, fused_s, report);
  }
  bool equal = true;
  for (int trial = 0; trial < 3; ++trial) {  // interleaved best-of-3
    const auto legacy =
        run_legacy_analysis(store, rows_by_mac, bgp, registry, legacy_s);
    const auto fused = run_fused_analysis(store, bgp, registry, fused_s,
                                          report);
    for (std::size_t i = 0; i < legacy_s.size(); ++i) {
      best_legacy_s[i] = std::min(best_legacy_s[i], legacy_s[i]);
    }
    best_fused_s = std::min(best_fused_s, fused_s);
    equal = equal && same_analysis_reports(legacy, fused);
  }

  double legacy_total_s = 0;
  for (const double s : best_legacy_s) legacy_total_s += s;
  const double speedup = legacy_total_s / best_fused_s;

  report.analysis_rows = kRows;
  report.analysis_alloc_ms = best_legacy_s[0] * 1e3;
  report.analysis_pool_ms = best_legacy_s[1] * 1e3;
  report.analysis_per_as_ms = best_legacy_s[2] * 1e3;
  report.analysis_homogeneity_ms = best_legacy_s[3] * 1e3;
  report.analysis_pathology_ms = best_legacy_s[4] * 1e3;
  report.analysis_legacy_total_ms = legacy_total_s * 1e3;
  report.analysis_fused_ms = best_fused_s * 1e3;
  report.analysis_speedup = speedup;
  report.analysis_reports_equal = equal;

  const bool fast_enough = speedup >= 3.0;
  std::printf(
      "analysis guard (%zu rows -> %zu devices, %zu ASes): legacy scans "
      "%.1f+%.1f+%.1f+%.1f+%.1f = %.1fms vs fused %.1fms = %.2fx (floor 3x, "
      "reports %s) %s\n",
      kRows, report.analysis_devices, report.analysis_ases,
      report.analysis_alloc_ms, report.analysis_pool_ms,
      report.analysis_per_as_ms, report.analysis_homogeneity_ms,
      report.analysis_pathology_ms, report.analysis_legacy_total_ms,
      report.analysis_fused_ms, speedup, equal ? "equal" : "DIVERGED",
      fast_enough && equal ? "OK" : "FAILED");
  report.analysis_ok = fast_enough && equal;
  return report.analysis_ok;
}

// ---------------------------------------------------------------------------
// Serve guard (DESIGN.md §5k): applying one day's increment into a
// maintained ServeTable must beat a full fused rebuild of the whole corpus
// by >= 10x and leave a field-for-field identical table, and reader threads
// must sustain derive queries while deltas keep landing.

/// One campaign day for the serve corpus: 85% EUI-64 responses from an
/// 8k-MAC population homed across the eight announced ASes (2% roaming),
/// /64 slots shifted per day, 15% privacy-addressed noise.
void append_serve_day(core::ObservationStore& store, std::uint64_t day,
                      std::size_t rows) {
  sim::Rng rng{0x5E12 * 0x9E3779B97F4A7C15ULL + day};
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t slot = (rng.below(1 << 12) + day * 389) & 0x3fff;
    core::Observation obs;
    obs.type = wire::Icmpv6Type::kEchoReply;
    obs.code = 0;
    obs.time = static_cast<sim::TimePoint>(day) * sim::kDay +
               static_cast<sim::TimePoint>(i);
    if (rng.chance(0.85)) {
      const std::uint64_t mac_index = rng.below(1 << 12);
      const net::MacAddress mac{0x3810d5000000ULL | mac_index};
      const std::uint64_t as_pick =
          rng.chance(0.02) ? rng.below(8) : (mac_index & 7);
      const std::uint64_t network =
          0x200116b800000000ULL | (as_pick << 28) | (slot << 8);
      obs.target = net::Ipv6Address{network, i};
      obs.response = net::Ipv6Address{network, net::mac_to_eui64(mac)};
    } else {
      const std::uint64_t network =
          0x200116b800000000ULL | (rng.below(8) << 28) | (slot << 8);
      obs.target = net::Ipv6Address{network, i};
      obs.response =
          net::Ipv6Address{network, rng.next() | 0x0400000000000000ULL};
    }
    store.add(obs);
  }
}

/// Field-for-field equality of the fields a delta-apply maintains (the
/// full matrix lives in tests/serve; this is the guard's cheap re-check).
bool same_serve_tables(const analysis::AggregateTable& a,
                       const analysis::AggregateTable& b) {
  if (a.rows_scanned != b.rows_scanned || a.eui_rows != b.eui_rows ||
      a.devices.size() != b.devices.size() ||
      a.as_rollups.size() != b.as_rollups.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    const auto& [mac_a, dev_a] = a.devices.begin()[i];
    const auto& [mac_b, dev_b] = b.devices.begin()[i];
    if (mac_a != mac_b || dev_a.observations != dev_b.observations ||
        dev_a.day_bits != dev_b.day_bits ||
        dev_a.first_day != dev_b.first_day ||
        dev_a.last_day != dev_b.last_day ||
        dev_a.target_lo != dev_b.target_lo ||
        dev_a.target_hi != dev_b.target_hi ||
        dev_a.response_lo != dev_b.response_lo ||
        dev_a.response_hi != dev_b.response_hi ||
        dev_a.per_as.size() != dev_b.per_as.size() ||
        dev_a.sightings.size() != dev_b.sightings.size()) {
      return false;
    }
    for (std::size_t k = 0; k < dev_a.per_as.size(); ++k) {
      if (dev_a.per_as[k].asn != dev_b.per_as[k].asn ||
          dev_a.per_as[k].observations != dev_b.per_as[k].observations ||
          !(dev_a.per_as[k].days == dev_b.per_as[k].days)) {
        return false;
      }
    }
  }
  for (std::size_t i = 0; i < a.as_rollups.size(); ++i) {
    if (a.as_rollups[i].asn != b.as_rollups[i].asn ||
        a.as_rollups[i].observations != b.as_rollups[i].observations ||
        a.as_rollups[i].devices != b.as_rollups[i].devices) {
      return false;
    }
  }
  return true;
}

bool check_serve_guard(BenchReport& report) {
  constexpr unsigned kDays = 30;
  constexpr std::size_t kRowsPerDay = std::size_t{1} << 16;  // ~2M rows total
  const routing::BgpTable bgp = make_analysis_bgp();

  core::ObservationStore store;
  std::vector<std::size_t> day_begin;
  for (unsigned day = 0; day < kDays; ++day) {
    day_begin.push_back(store.size());
    append_serve_day(store, day, kRowsPerDay);
  }
  const std::size_t split = day_begin.back();  // last day's first row
  const std::size_t total = store.size();

  serve::ServeOptions options;
  options.bgp = &bgp;
  options.threads = 1;  // serial both sides: enforceable on any host
  // Publishing a version copies the maintained table; with per-observation
  // sighting logs on, that copy is O(total sightings) and swamps the
  // one-day scan this guard times. Serve deployments that want sighting
  // history keep it (tests/serve proves its delta equality); the guard
  // measures the medians-serving configuration, like the analysis guard.
  options.collect_sightings = false;

  // Full rebuild baseline: a fresh table's bootstrap apply over the whole
  // corpus — version 1 IS a full fused scan through the delta code path.
  double rebuild_s = 1e30;
  std::shared_ptr<const serve::TableVersion> rebuilt;
  for (int trial = 0; trial < 3; ++trial) {  // best-of-3
    serve::ServeTable fresh{options};
    const auto start = std::chrono::steady_clock::now();
    fresh.apply(analysis::StoreInput{store, 0, total}, kDays - 1);
    rebuild_s = std::min(rebuild_s, seconds_since(start));
    rebuilt = fresh.current();
  }

  // Delta apply: bootstrap the first 29 days as day-sized deltas (untimed;
  // the campaign shape — publishing chains prev_window from the previous
  // day's window, so the base must carry one-day windows, not one spanning
  // the whole bootstrap), then time the one-day increment — scan, merge,
  // materialize, publish.
  double delta_s = 1e30;
  std::shared_ptr<const serve::TableVersion> maintained;
  for (int trial = 0; trial < 3; ++trial) {  // best-of-3, fresh base each
    serve::ServeTable table{options};
    for (unsigned day = 0; day + 1 < kDays; ++day) {
      table.apply(analysis::StoreInput{store, day_begin[day],
                                       day_begin[day] + kRowsPerDay},
                  day);
    }
    const auto start = std::chrono::steady_clock::now();
    table.apply(analysis::StoreInput{store, split, total}, kDays - 1);
    delta_s = std::min(delta_s, seconds_since(start));
    maintained = table.current();
  }

  const bool equal = rebuilt != nullptr && maintained != nullptr &&
                     same_serve_tables(rebuilt->table, maintained->table);
  const double speedup = rebuild_s / delta_s;

  // Sustained queries under concurrent ingest: 4 reader threads pin the
  // current version and run a derive report per pin while the writer keeps
  // landing one-day deltas.
  serve::ServeTable live{options};
  for (unsigned day = 0; day + 1 < kDays; ++day) {
    live.apply(analysis::StoreInput{store, day_begin[day],
                                    day_begin[day] + kRowsPerDay},
               day);
  }
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&live, &done, &queries] {
      std::uint64_t count = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto version = live.current();
        if (version == nullptr) continue;
        benchmark::DoNotOptimize(analysis::pool_median(*version));
        ++count;
      }
      queries.fetch_add(count, std::memory_order_relaxed);
    });
  }
  constexpr unsigned kLiveDays = 8;
  const auto live_start = std::chrono::steady_clock::now();
  core::ObservationStore live_extra;
  for (unsigned extra = 0; extra < kLiveDays; ++extra) {
    const std::size_t begin = live_extra.size();
    append_serve_day(live_extra, kDays + extra, kRowsPerDay);
    live.apply(analysis::StoreInput{live_extra, begin, live_extra.size()},
               kDays - 1 + extra);
  }
  const double live_s = seconds_since(live_start);
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  const double queries_per_s = static_cast<double>(queries.load()) / live_s;

  report.serve_days = kDays;
  report.serve_rows = total;
  report.serve_devices =
      maintained != nullptr ? maintained->table.devices.size() : 0;
  report.serve_rebuild_ms = rebuild_s * 1e3;
  report.serve_delta_apply_ms = delta_s * 1e3;
  report.serve_delta_speedup = speedup;
  report.serve_queries_per_s = queries_per_s;
  report.serve_versions_published = live.versions_published();
  report.serve_equal = equal;

  const bool fast_enough = speedup >= 10.0;
  std::printf(
      "serve guard (%u days x %zu rows -> %zu devices): rebuild %.1fms vs "
      "delta apply %.1fms = %.1fx (floor 10x, tables %s) %s\n",
      kDays, kRowsPerDay, report.serve_devices, rebuild_s * 1e3, delta_s * 1e3,
      speedup, equal ? "equal" : "DIVERGED",
      fast_enough && equal ? "OK" : "FAILED");
  std::printf(
      "serve guard: %.3gk queries/s across 4 readers while %u one-day "
      "deltas landed (%.2fs, %zu versions served)\n",
      queries_per_s / 1e3, kLiveDays, live_s,
      report.serve_versions_published);
  report.serve_ok = fast_enough && equal;
  return report.serve_ok;
}

// ---------------------------------------------------------------------------
// Telemetry and sweep-scaling guards (pre-existing budgets).

/// Measures one prober's fast-path throughput (probes/sec) over a fixed
/// batch. The caller owns the world and the prober: both guard arms must
/// probe the SAME simulated state, because two independently constructed
/// worlds differ in heap layout by enough to swing per-probe time several
/// percent — more than the effect the guard exists to measure.
///
/// Probes run in 256-probe batches, each under one "ingest.batch" Span —
/// the columnar ingest's shape. `batch_slot` is that span's pre-resolved
/// registry slot, or null for the un-instrumented arm.
double probe_loop_rate(probe::Prober& prober, const sim::RotationPool& pool,
                       std::uint64_t batch, telemetry::SpanStats* batch_slot) {
  constexpr std::uint64_t kBatchProbes = 256;
  benchmark::DoNotOptimize(batch_slot);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t first = 0; first < batch; first += kBatchProbes) {
    const telemetry::Span span{batch_slot, "ingest.batch"};
    const std::uint64_t last = std::min(batch, first + kBatchProbes);
    for (std::uint64_t i = first; i < last; ++i) {
      const auto target = probe::target_in(
          pool.config().prefix.subnet(56, net::Uint128{i & 1023}), 3);
      benchmark::DoNotOptimize(prober.probe_one(target));
    }
  }
  return static_cast<double>(batch) / seconds_since(start);
}

/// Guards the telemetry hot-path budget: attaching a registry must cost
/// <5% of fast-path sweep throughput. Two probers — one plain, one with a
/// registry attached (its probe counters plus a live "ingest.batch" span
/// slot per 256-probe batch) — walk the same world, and the overhead is the
/// median of per-trial paired ratios with the arm order alternating
/// between trials. Each layer strips one source of fake overhead that a
/// ratio of independent single-shot runs (or of each arm's best) suffers
/// on a shared host: the shared world removes allocation-layout skew
/// between the arms, pairing cancels frequency/thermal drift across the
/// guard run, alternation cancels within-pair drift, and the median
/// discards the pairs a scheduler hiccup still splits.
bool check_telemetry_overhead(BenchReport& report) {
  constexpr std::uint64_t kBatch = 1600000;
  constexpr int kTrials = 9;
  sim::PaperWorld world = sim::make_tiny_world(5, 512);
  sim::VirtualClock clock{sim::hours(12)};
  probe::ProberOptions options;
  options.wire_mode = false;
  options.packets_per_second = 0;
  probe::Prober plain_prober{world.internet, clock, options};
  probe::Prober telemetry_prober{world.internet, clock, options};
  telemetry::Registry registry;
  registry.set_clock(&clock);
  telemetry_prober.attach_telemetry(registry);
  telemetry::SpanStats* batch_slot = &registry.span_child("ingest.batch");
  const auto& pool = world.internet.provider(world.versatel).pools()[0];

  probe_loop_rate(plain_prober, pool, kBatch / 4, nullptr);  // warm-up
  probe_loop_rate(telemetry_prober, pool, kBatch / 4, batch_slot);
  double best_plain = 0;
  double best_telemetry = 0;
  std::vector<double> overheads;
  overheads.reserve(kTrials);
  for (int t = 0; t < kTrials; ++t) {
    double plain = 0;
    double telemetry = 0;
    if (t % 2 == 0) {
      plain = probe_loop_rate(plain_prober, pool, kBatch, nullptr);
      telemetry = probe_loop_rate(telemetry_prober, pool, kBatch, batch_slot);
    } else {
      telemetry = probe_loop_rate(telemetry_prober, pool, kBatch, batch_slot);
      plain = probe_loop_rate(plain_prober, pool, kBatch, nullptr);
    }
    best_plain = std::max(best_plain, plain);
    best_telemetry = std::max(best_telemetry, telemetry);
    overheads.push_back(plain / telemetry - 1.0);
  }
  std::nth_element(overheads.begin(), overheads.begin() + kTrials / 2,
                   overheads.end());
  const double overhead = overheads[kTrials / 2];
  const bool ok = overhead < 0.05;
  std::printf("telemetry overhead guard: plain=%.3gM/s telemetry=%.3gM/s "
              "overhead=%.2f%% (budget 5%%) %s\n",
              best_plain / 1e6, best_telemetry / 1e6, overhead * 100,
              ok ? "OK" : "FAILED");
  report.telemetry_plain_mops = best_plain / 1e6;
  report.telemetry_attached_mops = best_telemetry / 1e6;
  report.telemetry_overhead_pct = overhead * 100;
  report.telemetry_ok = ok;
  return ok;
}

// Trace-overhead guard: the telemetry::Span wrapped around every columnar
// ingest batch (core/sweep_ingest.cpp's on_results) must be invisible when
// no sink is attached and near-free when both are.

/// Best-of-N cost of one "ingest.batch" Span against the given (possibly
/// null) slot and recorder, in nanoseconds. DoNotOptimize keeps the
/// pointers opaque so the null case measures the real runtime branches,
/// not a folded-away loop.
double span_cost_ns(telemetry::SpanStats* slot,
                    telemetry::TraceRecorder* recorder) {
  constexpr int kIters = 1 << 20;
  constexpr int kTrials = 5;
  double best = 1e18;
  for (int t = 0; t < kTrials; ++t) {
    benchmark::DoNotOptimize(slot);
    benchmark::DoNotOptimize(recorder);
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      const telemetry::Span span{slot, "ingest.batch", recorder};
      benchmark::DoNotOptimize(i);
    }
    best = std::min(best, seconds_since(start) * 1e9 / kIters);
  }
  return best;
}

/// Guards the tracing budgets on the columnar ingest hot path. The cost of
/// one instrumentation sample is measured directly (a tight 1M-iteration
/// loop is stable to fractions of a nanosecond even on a noisy host) and
/// expressed as a fraction of one measured 256-row ingest batch — the
/// engine's callback grain on the 1M-row path. Differential wall-clock A/B
/// at full ingest scale cannot resolve a <1% effect under multi-percent
/// scheduler jitter; this ratio can. Floors: idle (null slot and recorder
/// — two predicted branches) < 1% of a batch, live (two clock reads, two
/// ring writes, one slot sketch observe) < 5%.
bool check_trace_overhead(BenchReport& report) {
  constexpr std::size_t kRows = std::size_t{1} << 20;
  constexpr std::size_t kBatchRows = 256;
  const auto stream = make_ingest_stream(0x7A3, kRows);

  // Median-of-3 batched ingest passes -> ns per 256-row batch.
  std::array<double, 3> times{};
  for (double& t : times) {
    core::ObservationStore store;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < stream.size(); i += kBatchRows) {
      store.add_all(std::span<const core::Observation>{
          stream.data() + i, std::min(kBatchRows, stream.size() - i)});
    }
    t = seconds_since(start);
    benchmark::DoNotOptimize(store.unique_responses());
  }
  std::sort(times.begin(), times.end());
  const double batch_ns =
      times[1] * 1e9 / static_cast<double>(stream.size() / kBatchRows);

  telemetry::TraceRecorder recorder{1 << 14};
  telemetry::SpanStats slot;
  const double idle_ns = span_cost_ns(nullptr, nullptr);
  const double enabled_ns = span_cost_ns(&slot, &recorder);
  benchmark::DoNotOptimize(recorder.size());
  benchmark::DoNotOptimize(slot.count());

  const double idle_overhead = idle_ns / batch_ns;
  const double enabled_overhead = enabled_ns / batch_ns;
  const bool ok = idle_overhead < 0.01 && enabled_overhead < 0.05;
  std::printf(
      "trace overhead guard (%zu rows, %zu-row batches): batch=%.0fns "
      "idle span=%.2fns (%.3f%%, budget 1%%) enabled span=%.1fns "
      "(%.3f%%, budget 5%%) %s\n",
      kRows, kBatchRows, batch_ns, idle_ns, idle_overhead * 100, enabled_ns,
      enabled_overhead * 100, ok ? "OK" : "FAILED");
  report.trace_rows = kRows;
  report.trace_batch_ns = batch_ns;
  report.trace_idle_sample_ns = idle_ns;
  report.trace_enabled_sample_ns = enabled_ns;
  report.trace_idle_overhead_pct = idle_overhead * 100;
  report.trace_enabled_overhead_pct = enabled_overhead * 100;
  report.trace_ok = ok;
  return ok;
}

/// One sharded sweep of ~1M probes; returns wall seconds and the corpus
/// size (which must not vary with the thread count).
std::pair<double, std::size_t> sharded_sweep_run(sim::Internet& internet,
                                                 unsigned threads) {
  const auto& pool = internet.provider(0).pools()[0];
  std::vector<engine::SweepUnit> units;
  constexpr std::size_t kUnits = 256;  // x 4096 probes each (/48 at /60)
  units.reserve(kUnits);
  for (std::uint64_t i = 0; i < kUnits; ++i) {
    const net::Prefix p48{
        pool.config().prefix.subnet(48, net::Uint128{i % 4}).base(), 48};
    units.push_back({p48, 60, 0xBE7C + i});
  }

  probe::ProberOptions options;
  options.wire_mode = false;
  options.packets_per_second = 2000000;
  engine::SweepOptions sweep_options;
  sweep_options.threads = threads;

  sim::VirtualClock clock{sim::hours(12)};
  core::ObservationStore store;
  const auto start = std::chrono::steady_clock::now();
  core::sweep_into_store(internet, clock, units, options, sweep_options,
                         store);
  return {seconds_since(start), store.size()};
}

/// Sweep scaling across worker shards: wall-clock throughput must rise
/// with the thread count while the corpus stays bit-identical (spot-checked
/// here by size; the engine test suite proves it field-by-field). The
/// 8-thread sweep must beat serial by >= 3t/8 — 37.5% efficiency on the
/// t = min(cores, 8) cores it can actually use.
bool check_sweep_scaling(BenchReport& report) {
  const unsigned hw = report.hardware_threads;
  sim::PaperWorld world = sim::make_tiny_world(9, 512);

  sharded_sweep_run(world.internet, 1);  // warm-up, discarded
  const auto [serial_s, serial_size] = sharded_sweep_run(world.internet, 1);
  report.sweep_probes = std::size_t{256} * 4096;
  report.sweep_serial_mops = 256 * 4096 / serial_s / 1e6;
  std::printf("sweep scaling (%zu probes, %u hardware threads):\n",
              report.sweep_probes, hw);
  std::printf("  threads 1: %6.3fs  %.3gM probes/s  (serial baseline)\n",
              serial_s, report.sweep_serial_mops);

  bool ok = true;
  double speedup_at_8 = 0;
  for (unsigned threads = 2; threads <= std::max(8u, hw); threads *= 2) {
    const auto [s, size] = sharded_sweep_run(world.internet, threads);
    const double speedup = serial_s / s;
    if (threads == 8) speedup_at_8 = speedup;
    report.sweep_speedups.emplace_back(threads, speedup);
    std::printf("  threads %u: %6.3fs  %.3gM probes/s  speedup %.2fx%s\n",
                threads, s, 256 * 4096 / s / 1e6, speedup,
                size == serial_size ? "" : "  CORPUS MISMATCH");
    ok = ok && size == serial_size;
  }
  report.sweep_speedup_at_8 = speedup_at_8;
  const double speedup_floor = 3 * report.floor_threads() / 8;
  const bool fast_enough = speedup_at_8 >= speedup_floor;
  std::printf("  8-thread speedup %.2fx (floor %.3gx) %s\n", speedup_at_8,
              speedup_floor, fast_enough ? "OK" : "FAILED");
  report.sweep_ok = ok && fast_enough;
  return report.sweep_ok;
}

// ---------------------------------------------------------------------------
// Join scaling guard (DESIGN.md §5l): the partitioned out-of-core merge-join
// must (a) emit exactly the naive hash-join oracle's table, byte for byte,
// at every thread count, (b) show the block-stat pruning counters actually
// skipping the feed's MAC-disjoint blocks, (c) clear an absolute serial
// Mrows/s floor, and (d) speed up >= 3t/8 at 8 threads, t = min(cores, 8).
// SCENT_JOIN_HUGE=1 additionally runs the 100M-row-per-side configuration
// and asserts peak heap is bounded by partition size, not input size.

struct JoinFixture {
  std::vector<std::string> day_paths;
  std::string feed_path;
  std::size_t corpus_rows = 0;
  std::size_t geo_rows = 0;
};

constexpr std::uint64_t kJoinFleetOui = 0x3810d5;  // matches the corpus MACs
constexpr std::uint64_t kJoinAlienOui = 0xf4f200;  // + k: feed-only bands

/// Writes a `days`-day rotation corpus (devices 0..devices-1 on the fleet
/// OUI, daily-rotating /64s) plus a geo feed covering `geo_per_oui` serials
/// on the fleet OUI and on `alien_ouis` higher OUIs the corpus never saw —
/// the MAC-disjoint bands whose blocks the pruning counters must show
/// skipped. Returns an empty day_paths vector on I/O failure.
JoinFixture make_join_fixture(const std::string& tag, std::int64_t days,
                              std::uint64_t devices,
                              std::uint64_t geo_per_oui,
                              unsigned alien_ouis) {
  JoinFixture fx;
  for (std::int64_t day = 0; day < days; ++day) {
    core::ObservationStore store;
    for (std::uint64_t i = 0; i < devices; ++i) {
      core::Observation obs;
      const std::uint64_t slot =
          sim::mix64(i, static_cast<std::uint64_t>(day)) & 0xffffff;
      const std::uint64_t network = 0x20010db800000000ULL | (slot << 8);
      obs.target = net::Ipv6Address{network, 1};
      obs.response = net::Ipv6Address{
          network,
          net::mac_to_eui64(net::MacAddress{(kJoinFleetOui << 24) | i})};
      obs.type = wire::Icmpv6Type::kEchoReply;
      obs.code = 0;
      obs.time = static_cast<sim::TimePoint>(
          static_cast<std::uint64_t>(day) * 86400000000ULL + i);
      store.add(obs);
    }
    corpus::SnapshotWriter writer;
    writer.append(store);
    fx.day_paths.push_back(bench_tmp_path("scent_bench_" + tag + "_day" +
                                          std::to_string(day) + ".snap"));
    if (!writer.write(fx.day_paths.back())) {
      fx.day_paths.clear();
      return fx;
    }
    fx.corpus_rows += devices;
  }

  sim::GeoFeedSpec spec;
  spec.seed = 0x9e0;
  spec.ouis = {static_cast<std::uint32_t>(kJoinFleetOui)};
  for (unsigned k = 0; k < alien_ouis; ++k) {
    spec.ouis.push_back(static_cast<std::uint32_t>(kJoinAlienOui + k));
  }
  spec.devices_per_oui = geo_per_oui;
  spec.base_asn = 64500;
  spec.asn_count = 8;
  spec.first_day = 0;
  spec.last_day = days - 1;
  const sim::GeoFeedGenerator generator{spec};
  fx.feed_path = bench_tmp_path("scent_bench_" + tag + "_feed.gfd");
  corpus::GeoFeedWriter writer;
  if (!writer.open(fx.feed_path)) {
    fx.day_paths.clear();
    return fx;
  }
  for (std::uint64_t i = 0; i < generator.records(); ++i) {
    writer.append(generator.record(i));
  }
  if (!writer.finish()) {
    fx.day_paths.clear();
    return fx;
  }
  fx.geo_rows = generator.records();
  return fx;
}

void remove_join_fixture(const JoinFixture& fx) {
  for (const std::string& p : fx.day_paths) std::remove(p.c_str());
  if (!fx.feed_path.empty()) std::remove(fx.feed_path.c_str());
}

struct JoinRunResult {
  double seconds = 0;
  std::optional<analysis::DossierTable> table;
  join::JoinStats stats;
};

JoinRunResult timed_join(const JoinFixture& fx, unsigned threads,
                         unsigned partitions,
                         std::size_t spill_block_elements,
                         telemetry::Registry* registry) {
  join::JoinOptions options;
  options.threads = threads;
  options.partitions = partitions;
  options.spill_dir =
      bench_tmp_path("scent_bench_join_spill_t" + std::to_string(threads));
  options.spill_block_elements = spill_block_elements;
  options.registry = registry;
  join::DossierJoin engine{options};
  for (std::size_t d = 0; d < fx.day_paths.size(); ++d) {
    engine.add_corpus_day(fx.day_paths[d], static_cast<std::int64_t>(d));
  }
  engine.add_geo_feed(fx.feed_path);
  JoinRunResult r;
  const auto start = std::chrono::steady_clock::now();
  r.table = engine.run_table();
  r.seconds = seconds_since(start);
  r.stats = engine.stats();
  std::error_code ec;
  std::filesystem::remove_all(options.spill_dir, ec);
  return r;
}

/// Streams dossiers without retaining them — the huge configuration's sink,
/// so the RSS assertion measures the join, not the result table.
class CountingDossierSink final : public analysis::DossierSink {
 public:
  void on_dossier(analysis::DeviceDossier dossier) override {
    ++dossiers_;
    sightings_ += dossier.sightings.size();
    anchored_ += dossier.anchors.empty() ? 0 : 1;
  }
  [[nodiscard]] std::uint64_t dossiers() const noexcept { return dossiers_; }
  [[nodiscard]] std::uint64_t sightings() const noexcept {
    return sightings_;
  }
  [[nodiscard]] std::uint64_t anchored() const noexcept { return anchored_; }

 private:
  std::uint64_t dossiers_ = 0;
  std::uint64_t sightings_ = 0;
  std::uint64_t anchored_ = 0;
};

/// Samples g_live_heap_bytes from a side thread while a measured region
/// runs; peak_delta() is the high-water mark above the construction-time
/// baseline.
class HeapWatcher {
 public:
  HeapWatcher()
      : baseline_(g_live_heap_bytes.load(std::memory_order_relaxed)),
        peak_(baseline_),
        thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            const std::size_t live =
                g_live_heap_bytes.load(std::memory_order_relaxed);
            if (live > peak_) peak_ = live;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}
  ~HeapWatcher() {
    if (thread_.joinable()) stop_and_join();
  }
  std::size_t stop_and_join() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    const std::size_t live =
        g_live_heap_bytes.load(std::memory_order_relaxed);
    if (live > peak_) peak_ = live;
    return peak_ > baseline_ ? peak_ - baseline_ : 0;
  }

 private:
  std::size_t baseline_;
  std::size_t peak_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Largest SCENT_JOIN_HUGE_ROWS: the feed's rows/8 serials per OUI must fit
/// the 24-bit NIC field of a MAC.
constexpr std::size_t kMaxJoinHugeRows = std::size_t{8} << 24;

/// The gated 100M-row-per-side configuration (SCENT_JOIN_HUGE=1; main()
/// takes a smaller SCENT_JOIN_HUGE_ROWS for smoke runs).
/// Streams both sides through the spill path at fan-out 64 and asserts, via
/// the join.* gauges, that peak heap is bounded by a small multiple of the
/// largest partition — never by input size.
bool check_join_huge(BenchReport& report, std::size_t rows_per_side) {
  constexpr std::int64_t kDays = 20;
  constexpr unsigned kPartitions = 64;
  const std::uint64_t devices = rows_per_side / kDays;
  const std::uint64_t geo_per_oui = rows_per_side / 8;

  std::printf("join huge (%zu rows/side): building fixture...\n",
              rows_per_side);
  const JoinFixture fx =
      make_join_fixture("join_huge", kDays, devices, geo_per_oui, 7);
  if (fx.day_paths.empty()) {
    std::printf("  FIXTURE WRITE FAILED\n");
    return false;
  }

  telemetry::Registry registry;
  join::JoinOptions options;
  options.threads = 0;  // hardware concurrency
  options.partitions = kPartitions;
  options.spill_dir = bench_tmp_path("scent_bench_join_huge_spill");
  options.registry = &registry;
  join::DossierJoin engine{options};
  for (std::size_t d = 0; d < fx.day_paths.size(); ++d) {
    engine.add_corpus_day(fx.day_paths[d], static_cast<std::int64_t>(d));
  }
  engine.add_geo_feed(fx.feed_path);

  CountingDossierSink sink;
  HeapWatcher watcher;
  const auto start = std::chrono::steady_clock::now();
  const bool ran = engine.run(sink);
  const double join_s = seconds_since(start);
  const std::size_t peak_delta = watcher.stop_and_join();
  std::error_code ec;
  std::filesystem::remove_all(options.spill_dir, ec);
  remove_join_fixture(fx);
  if (!ran) {
    std::printf("  JOIN FAILED\n");
    return false;
  }

  // The assertion reads the published gauges, not JoinStats, so the
  // telemetry surface itself is what the guard holds to account.
  const auto gauge = [&](const char* name) {
    return static_cast<std::uint64_t>(registry.gauge(name).value());
  };
  const std::uint64_t peak_partition_rows = gauge("join.peak_partition_rows");
  const std::uint64_t spill_bytes = gauge("join.spill_bytes");
  const std::uint64_t partition_bytes =
      peak_partition_rows * sizeof(corpus::KeyedRecord);
  const std::uint64_t input_bytes =
      (engine.stats().corpus_rows + engine.stats().geo_rows) *
      sizeof(corpus::KeyedRecord);
  // 8x the largest partition covers sort scratch and the dossier spool;
  // the flat 512 MB covers O(P) run/spool block buffers and one decoded
  // snapshot day. Both terms are independent of input size.
  const std::uint64_t bound =
      8 * partition_bytes + (std::uint64_t{512} << 20);
  const bool spilled = spill_bytes > 0;
  const bool bounded = peak_delta <= bound;
  // The headline claim: at full scale the bound itself (and therefore the
  // observed peak) sits well below the materialized input.
  const bool below_input = input_bytes <= bound || peak_delta * 4 <= input_bytes;

  report.join_huge_rows_per_side = rows_per_side;
  report.join_huge_peak_heap_bytes = peak_delta;
  report.join_huge_bound_bytes = bound;
  report.join_huge_ok = spilled && bounded && below_input;
  std::printf(
      "  %llu corpus + %llu geo rows in %.1fs, %llu dossiers "
      "(%llu sightings, %llu anchored)\n"
      "  peak heap delta %.1f MB vs bound %.1f MB "
      "(8 x %.1f MB partition + 512 MB); input-equivalent %.1f MB; "
      "spill %.1f MB %s\n",
      static_cast<unsigned long long>(engine.stats().corpus_rows),
      static_cast<unsigned long long>(engine.stats().geo_rows), join_s,
      static_cast<unsigned long long>(sink.dossiers()),
      static_cast<unsigned long long>(sink.sightings()),
      static_cast<unsigned long long>(sink.anchored()),
      static_cast<double>(peak_delta) / 1048576.0,
      static_cast<double>(bound) / 1048576.0,
      static_cast<double>(partition_bytes) / 1048576.0,
      static_cast<double>(input_bytes) / 1048576.0,
      static_cast<double>(spill_bytes) / 1048576.0,
      report.join_huge_ok ? "OK" : "FAILED");
  return report.join_huge_ok;
}

bool check_join_scaling(BenchReport& report, std::size_t huge_rows) {
  constexpr std::int64_t kDays = 6;
  constexpr std::uint64_t kDevices = 131072;
  constexpr unsigned kPartitions = 16;
  // Small spill blocks make pruning observable: each partition's feed run
  // splits into many blocks, and the alien-OUI band's blocks sit wholly
  // above the corpus key span.
  constexpr std::size_t kSpillBlock = 4096;
  const JoinFixture fx =
      make_join_fixture("join", kDays, kDevices, 4 * kDevices, 1);
  if (fx.day_paths.empty()) {
    std::printf("join scaling: FIXTURE WRITE FAILED\n");
    report.join_ok = false;
    return false;
  }

  join::NaiveJoinInputs naive_inputs;
  for (std::size_t d = 0; d < fx.day_paths.size(); ++d) {
    naive_inputs.corpus_files.push_back(
        {fx.day_paths[d], static_cast<std::int64_t>(d)});
  }
  naive_inputs.geo_feeds = {fx.feed_path};
  const auto oracle = join::naive_join(naive_inputs);

  timed_join(fx, 1, kPartitions, kSpillBlock, nullptr);  // warm-up
  telemetry::Registry registry;
  JoinRunResult serial = timed_join(fx, 1, kPartitions, kSpillBlock,
                                    &registry);
  JoinRunResult par8 = timed_join(fx, 8, kPartitions, kSpillBlock, nullptr);
  for (int trial = 1; trial < 3; ++trial) {  // interleaved best-of-3 times
    serial.seconds = std::min(
        serial.seconds,
        timed_join(fx, 1, kPartitions, kSpillBlock, nullptr).seconds);
    par8.seconds = std::min(
        par8.seconds,
        timed_join(fx, 8, kPartitions, kSpillBlock, nullptr).seconds);
  }
  remove_join_fixture(fx);

  const auto rows =
      static_cast<double>(serial.stats.corpus_rows + serial.stats.geo_rows);
  const bool outputs_equal = serial.table.has_value() &&
                             par8.table.has_value() &&
                             serial.table->rows() == par8.table->rows();
  const bool oracle_equal = serial.table.has_value() && oracle.has_value() &&
                            serial.table->rows() == oracle->rows();
  // The published gauges must agree with JoinStats — the huge config's RSS
  // assertion depends on them.
  const bool gauges_ok =
      static_cast<std::uint64_t>(registry.gauge("join.spill_bytes").value()) ==
          serial.stats.spill_bytes &&
      static_cast<std::uint64_t>(
          registry.gauge("join.blocks_pruned").value()) ==
          serial.stats.blocks_pruned;

  report.join_corpus_rows = serial.stats.corpus_rows;
  report.join_geo_rows = serial.stats.geo_rows;
  report.join_partitions = serial.stats.partitions;
  report.join_serial_s = serial.seconds;
  report.join_parallel8_s = par8.seconds;
  report.join_speedup_at_8 = serial.seconds / par8.seconds;
  report.join_serial_mrows_per_s = rows / serial.seconds / 1e6;
  report.join_spill_runs = serial.stats.spill_runs;
  report.join_spill_bytes = serial.stats.spill_bytes;
  report.join_blocks_read = serial.stats.blocks_read;
  report.join_blocks_pruned = serial.stats.blocks_pruned;
  report.join_dossiers = serial.stats.dossiers;
  report.join_outputs_equal = outputs_equal;
  report.join_oracle_equal = oracle_equal;

  std::printf(
      "join scaling (%zu corpus rows x %zu geo rows, %u partitions, spill "
      "blocks %zu, %u hardware threads):\n"
      "  serial  : %6.3fs  %.3gM rows/s\n"
      "  8 thr   : %6.3fs  speedup %.2fx\n"
      "  %llu dossiers; spill %llu runs / %.1f MB; blocks read %llu, "
      "pruned %llu\n"
      "  1-thr == 8-thr: %s; == naive oracle: %s; gauges == stats: %s\n",
      report.join_corpus_rows, report.join_geo_rows, report.join_partitions,
      kSpillBlock, report.hardware_threads, serial.seconds,
      report.join_serial_mrows_per_s, par8.seconds, report.join_speedup_at_8,
      static_cast<unsigned long long>(report.join_dossiers),
      static_cast<unsigned long long>(report.join_spill_runs),
      static_cast<double>(report.join_spill_bytes) / 1048576.0,
      static_cast<unsigned long long>(report.join_blocks_read),
      static_cast<unsigned long long>(report.join_blocks_pruned),
      outputs_equal ? "yes" : "MISMATCH", oracle_equal ? "yes" : "MISMATCH",
      gauges_ok ? "yes" : "MISMATCH");

  // Exact equality, real spilling, real pruning, an absolute serial
  // throughput floor (conservative — one slow shared core must still clear
  // it) and the core-sized 8-thread speedup floor.
  bool ok = outputs_equal && oracle_equal && gauges_ok &&
            report.join_spill_bytes > 0 && report.join_spill_runs > 0 &&
            report.join_blocks_pruned > 0;
  const bool floor_ok = report.join_serial_mrows_per_s >= 0.15;
  if (!floor_ok) {
    std::printf("  serial floor 0.15M rows/s FAILED\n");
  }
  const double speedup_floor = 3 * report.floor_threads() / 8;
  const bool fast_enough = report.join_speedup_at_8 >= speedup_floor;
  std::printf("  8-thread speedup %.2fx (floor %.3gx) %s\n",
              report.join_speedup_at_8, speedup_floor,
              fast_enough ? "OK" : "FAILED");
  ok = ok && floor_ok && fast_enough;

  if (huge_rows != 0) ok = check_join_huge(report, huge_rows) && ok;
  report.join_ok = ok;
  return ok;
}

// ---------------------------------------------------------------------------

#ifndef SCENT_BUILD_TYPE
#define SCENT_BUILD_TYPE "unknown"
#endif
#ifndef SCENT_CXX_FLAGS
#define SCENT_CXX_FLAGS "unknown"
#endif

/// The CPU model string from /proc/cpuinfo, or "unknown" off Linux.
std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  std::string model = "unknown";
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    const std::string_view text{line};
    if (text.rfind("model name", 0) != 0) continue;
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos) break;
    const std::size_t begin = text.find_first_not_of(" \t", colon + 1);
    const std::size_t end = text.find_last_not_of(" \t\n");
    if (begin != std::string_view::npos && end >= begin) {
      model = std::string{text.substr(begin, end - begin + 1)};
    }
    break;
  }
  std::fclose(f);
  return model;
}

/// `s` as the body of a JSON string literal.
std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void write_report_json(const BenchReport& r, bool guards_ok) {
  const char* path = std::getenv("SCENT_BENCH_JSON");
  if (path == nullptr || *path == '\0') path = "BENCH_micro.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror("bench_micro: cannot write bench JSON");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_micro\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", r.hardware_threads);
  // Which host and build produced these numbers: bench_trend.py marks
  // deltas against a baseline with another fingerprint as advisory.
  std::fprintf(f,
               "  \"host\": {\"nproc\": %u, \"cpu_model\": \"%s\", "
               "\"build_type\": \"%s\", \"cxx_flags\": \"%s\"},\n",
               r.hardware_threads, json_escape(cpu_model()).c_str(),
               json_escape(SCENT_BUILD_TYPE).c_str(),
               json_escape(SCENT_CXX_FLAGS).c_str());
  std::fprintf(f,
               "  \"containers\": {\n"
               "    \"keys\": %zu,\n"
               "    \"flat_insert_mops\": %.2f,\n"
               "    \"flat_find_mops\": %.2f,\n"
               "    \"flat_iterate_mops\": %.2f,\n"
               "    \"std_insert_mops\": %.2f,\n"
               "    \"std_find_mops\": %.2f,\n"
               "    \"std_iterate_mops\": %.2f\n"
               "  },\n",
               r.container_keys, r.flat_insert_mops, r.flat_find_mops,
               r.flat_iterate_mops, r.std_insert_mops, r.std_find_mops,
               r.std_iterate_mops);
  std::fprintf(f,
               "  \"containers_50m\": {\n"
               "    \"keys\": %zu,\n"
               "    \"flat_insert_mops\": %.2f,\n"
               "    \"flat_find_mops\": %.2f\n"
               "  },\n",
               r.container_50m_keys, r.flat_50m_insert_mops,
               r.flat_50m_find_mops);
  std::fprintf(f,
               "  \"ingest\": {\n"
               "    \"observations\": %zu,\n"
               "    \"columnar_mops\": %.3f,\n"
               "    \"columnar_bytes_per_obs\": %.1f\n"
               "  },\n",
               r.ingest_observations, r.ingest_columnar_mops,
               r.columnar_bytes_per_obs);
  std::fprintf(f,
               "  \"corpus\": {\n"
               "    \"diff_days\": %u,\n"
               "    \"diff_full_ms\": %.2f,\n"
               "    \"diff_incremental_ms\": %.2f,\n"
               "    \"diff_speedup\": %.2f\n"
               "  },\n",
               r.diff_days, r.diff_full_ms, r.diff_incremental_ms,
               r.diff_speedup);
  std::fprintf(f,
               "  \"snapshot_v2\": {\n"
               "    \"rows\": %zu,\n"
               "    \"v1_file_bytes\": %zu,\n"
               "    \"file_bytes\": %zu,\n"
               "    \"bytes_per_row\": %.2f,\n"
               "    \"compression_ratio\": %.2f,\n"
               "    \"save_mrows_per_s\": %.2f,\n"
               "    \"load_mrows_per_s\": %.2f,\n"
               "    \"read_store_mrows_per_s\": %.2f,\n"
               "    \"blocks\": %zu,\n"
               "    \"blocks_skipped\": %zu\n"
               "  },\n",
               r.snapshot_v2_rows, r.snapshot_v1_file_bytes,
               r.snapshot_v2_file_bytes, r.snapshot_v2_bytes_per_row,
               r.snapshot_v2_ratio, r.snapshot_v2_save_mrps,
               r.snapshot_v2_load_mrps, r.snapshot_v2_read_store_mrps,
               r.snapshot_v2_blocks, r.snapshot_v2_blocks_skipped);
  std::fprintf(f,
               "  \"sweep_scaling\": {\n"
               "    \"probes\": %zu,\n"
               "    \"serial_mops\": %.3f,\n"
               "    \"speedups\": {",
               r.sweep_probes, r.sweep_serial_mops);
  for (std::size_t i = 0; i < r.sweep_speedups.size(); ++i) {
    std::fprintf(f, "%s\"%u\": %.2f", i == 0 ? "" : ", ",
                 r.sweep_speedups[i].first, r.sweep_speedups[i].second);
  }
  std::fprintf(f,
               "},\n"
               "    \"speedup_at_8\": %.2f\n"
               "  },\n",
               r.sweep_speedup_at_8);
  std::fprintf(f,
               "  \"telemetry\": {\n"
               "    \"plain_mops\": %.3f,\n"
               "    \"attached_mops\": %.3f,\n"
               "    \"overhead_pct\": %.2f\n"
               "  },\n",
               r.telemetry_plain_mops, r.telemetry_attached_mops,
               r.telemetry_overhead_pct);
  std::fprintf(f,
               "  \"trace\": {\n"
               "    \"rows\": %zu,\n"
               "    \"batch_ns\": %.1f,\n"
               "    \"idle_sample_ns\": %.3f,\n"
               "    \"enabled_sample_ns\": %.2f,\n"
               "    \"idle_overhead_pct\": %.3f,\n"
               "    \"enabled_overhead_pct\": %.3f\n"
               "  },\n",
               r.trace_rows, r.trace_batch_ns, r.trace_idle_sample_ns,
               r.trace_enabled_sample_ns, r.trace_idle_overhead_pct,
               r.trace_enabled_overhead_pct);
  std::fprintf(f,
               "  \"analysis\": {\n"
               "    \"rows\": %zu,\n"
               "    \"devices\": %zu,\n"
               "    \"ases\": %zu,\n"
               "    \"legacy_alloc_ms\": %.2f,\n"
               "    \"legacy_pool_ms\": %.2f,\n"
               "    \"legacy_per_as_ms\": %.2f,\n"
               "    \"legacy_homogeneity_ms\": %.2f,\n"
               "    \"legacy_pathology_ms\": %.2f,\n"
               "    \"legacy_total_ms\": %.2f,\n"
               "    \"fused_ms\": %.2f,\n"
               "    \"speedup\": %.2f,\n"
               "    \"reports_equal\": %s\n"
               "  },\n",
               r.analysis_rows, r.analysis_devices, r.analysis_ases,
               r.analysis_alloc_ms, r.analysis_pool_ms, r.analysis_per_as_ms,
               r.analysis_homogeneity_ms, r.analysis_pathology_ms,
               r.analysis_legacy_total_ms, r.analysis_fused_ms,
               r.analysis_speedup,
               r.analysis_reports_equal ? "true" : "false");
  std::fprintf(f,
               "  \"serve\": {\n"
               "    \"days\": %u,\n"
               "    \"rows\": %zu,\n"
               "    \"devices\": %zu,\n"
               "    \"rebuild_ms\": %.2f,\n"
               "    \"delta_apply_ms\": %.2f,\n"
               "    \"delta_speedup\": %.2f,\n"
               "    \"queries_per_s\": %.0f,\n"
               "    \"versions_published\": %zu,\n"
               "    \"tables_equal\": %s\n"
               "  },\n",
               r.serve_days, r.serve_rows, r.serve_devices,
               r.serve_rebuild_ms, r.serve_delta_apply_ms,
               r.serve_delta_speedup, r.serve_queries_per_s,
               r.serve_versions_published,
               r.serve_equal ? "true" : "false");
  std::fprintf(f,
               "  \"join_scaling\": {\n"
               "    \"corpus_rows\": %zu,\n"
               "    \"geo_rows\": %zu,\n"
               "    \"partitions\": %u,\n"
               "    \"serial_s\": %.3f,\n"
               "    \"parallel8_s\": %.3f,\n"
               "    \"speedup_at_8\": %.2f,\n"
               "    \"serial_mrows_per_s\": %.3f,\n"
               "    \"spill_runs\": %zu,\n"
               "    \"spill_bytes\": %zu,\n"
               "    \"blocks_read\": %zu,\n"
               "    \"blocks_pruned\": %zu,\n"
               "    \"dossiers\": %zu,\n"
               "    \"outputs_equal\": %s,\n"
               "    \"oracle_equal\": %s,\n"
               "    \"huge_rows_per_side\": %zu,\n"
               "    \"huge_peak_heap_bytes\": %zu,\n"
               "    \"huge_bound_bytes\": %zu,\n"
               "    \"huge_ok\": %s\n"
               "  },\n",
               r.join_corpus_rows, r.join_geo_rows, r.join_partitions,
               r.join_serial_s, r.join_parallel8_s, r.join_speedup_at_8,
               r.join_serial_mrows_per_s, r.join_spill_runs,
               r.join_spill_bytes, r.join_blocks_read, r.join_blocks_pruned,
               r.join_dossiers, r.join_outputs_equal ? "true" : "false",
               r.join_oracle_equal ? "true" : "false",
               r.join_huge_rows_per_side, r.join_huge_peak_heap_bytes,
               r.join_huge_bound_bytes, r.join_huge_ok ? "true" : "false");
  std::fprintf(f, "  \"guards\": {\n    \"entries\": [\n");
  for (std::size_t i = 0; i < r.guard_status.size(); ++i) {
    const auto& g = r.guard_status[i];
    std::fprintf(f, "      {\"name\": \"%s\", \"ok\": %s}%s\n", g.name,
                 g.ok ? "true" : "false",
                 i + 1 < r.guard_status.size() ? "," : "");
  }
  std::fprintf(f,
               "    ],\n"
               "    \"all_ok\": %s\n"
               "  }\n}\n",
               guards_ok ? "true" : "false");
  std::fclose(f);
  std::printf("bench report written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // SCENT_JOIN_HUGE=1 adds the gated 100M-row-per-side join; a
  // SCENT_JOIN_HUGE_ROWS value of at least 1M overrides the row count.
  std::size_t join_huge_rows = 0;  // 0 = gated configuration off
  if (const char* huge = std::getenv("SCENT_JOIN_HUGE");
      huge != nullptr && *huge == '1') {
    join_huge_rows = 100'000'000;
    if (const char* env = std::getenv("SCENT_JOIN_HUGE_ROWS")) {
      std::size_t rows = 0;
      if (!examples::parse_decimal(env, kMaxJoinHugeRows, rows)) {
        std::fprintf(stderr,
                     "error: SCENT_JOIN_HUGE_ROWS=%s is not a number in "
                     "[0, %zu]\n",
                     env, kMaxJoinHugeRows);
        return 2;
      }
      if (rows >= 1'000'000) join_huge_rows = rows;
    }
  }

  BenchReport report;
  report.hardware_threads = std::max(1u, std::thread::hardware_concurrency());
  const bool telemetry_ok = check_telemetry_overhead(report);
  const bool trace_ok = check_trace_overhead(report);
  const bool scaling_ok = check_sweep_scaling(report);
  const bool ingest_ok = check_ingest_guard(report);
  const bool corpus_ok = check_corpus_guard(report);
  const bool snapshot_v2_ok = check_snapshot_v2_guard(report);
  const bool analysis_ok = check_analysis_guard(report);
  const bool serve_ok = check_serve_guard(report);
  const bool join_ok = check_join_scaling(report, join_huge_rows);
  measure_container_stats(report);
  measure_container_stats_50m(report);

  report.guard_status = {
      {"telemetry", telemetry_ok},
      {"trace", trace_ok},
      {"sweep_scaling", scaling_ok},
      {"ingest", ingest_ok},
      {"corpus", corpus_ok},
      {"snapshot_v2", snapshot_v2_ok},
      {"analysis", analysis_ok},
      {"serve_incremental", serve_ok},
      {"join_scaling", join_ok},
  };
  const bool guards_ok = telemetry_ok && trace_ok && scaling_ok &&
                         ingest_ok && corpus_ok && snapshot_v2_ok &&
                         analysis_ok && serve_ok && join_ok;
  write_report_json(report, guards_ok);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return guards_ok ? 0 : 1;
}
