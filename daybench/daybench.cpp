// daybench.cpp - the day-cost ledger: what a unit of scent's work costs end
// to end, and where that time goes layer by layer.
//
// Two workloads, each a loop of identical-shaped iterations run for a
// fixed wall-clock budget against a paper-shaped simulated Internet built
// from --seed:
//
//   campaign     One longitudinal campaign day per iteration: an engine
//                sweep of every /64 of the rotating /48s a discovery
//                funnel found during set-up (probe generation -> wire
//                serialization -> simulated response -> columnar ingest),
//                the day's v2 snapshot plus checkpoint manifest, a fused
//                analysis pass with BGP attribution, and the day's delta
//                applied to a ServeTable. Campaigns restart every
//                kCampaignDays days so per-day state stays the size a real
//                campaign reaches.
//   resume_join  Resume a committed checkpoint chain from disk (manifest +
//                v2 decode), re-apply its days to a fresh ServeTable, then
//                join the corpus against a MAC-keyed geolocation feed with
//                the partitioned, spilling merge-join.
//
// End-to-end metrics (--trace 0): iter_ms, the median wall time of one
// iteration (each workload's rows per iteration are fixed by its world, so
// this is its throughput at a stated input size); peak_heap_mb, the most
// heap live at once during the measured loop; setup_s, the median time to
// build the workload's inputs from the seed.
//
// Per-layer numbers (--trace 1) come from spans this file records around
// each call into a layer, reported as ns per row handled plus the share of
// iteration time no layer accounts for. They are collected only in traced
// runs, so the end-to-end figures are measured with tracing off.
//
// Usage:
//   daybench --workload NAME --seed N --seconds S --trace 0|1
//            --work-dir DIR [--trace-out FILE]
//
// Prints one JSON object as its last line of output:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// Exits nonzero, printing no result, on bad arguments or a failed set-up.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/derive.h"
#include "analysis/dossier.h"
#include "analysis/engine.h"
#include "analysis/input.h"
#include "core/bootstrap.h"
#include "core/campaign.h"
#include "core/sweep_ingest.h"
#include "corpus/checkpoint.h"
#include "corpus/geo_feed.h"
#include "corpus/snapshot.h"
#include "join/join.h"
#include "join/naive.h"
#include "netbase/eui64.h"
#include "probe/prober.h"
#include "serve/serve_table.h"
#include "sim/geo_feed.h"
#include "sim/rng.h"
#include "sim/scenario.h"

// Heap accounting for the peak_heap_mb metric: every operator new/delete
// in the process (the scent libraries included) adjusts a live-byte count,
// and the measured loop tracks its high-water mark. Deterministic where RSS
// is not: RSS follows the allocator's per-thread arenas and page reuse.
namespace {

std::atomic<std::uint64_t> g_live_heap_bytes{0};
std::atomic<std::uint64_t> g_peak_heap_bytes{0};

void note_alloc(void* p) noexcept {
  if (p == nullptr) return;
  const std::uint64_t size = malloc_usable_size(p);
  const std::uint64_t live =
      g_live_heap_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak_heap_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_heap_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void* tracked_alloc(std::size_t size) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  note_alloc(p);
  return p;
}

void* tracked_aligned_alloc(std::size_t alignment, std::size_t size) noexcept {
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded != 0 ? rounded : alignment);
  note_alloc(p);
  return p;
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_heap_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

/// Restarts the high-water mark at the current live size.
void reset_peak_heap() noexcept {
  g_peak_heap_bytes.store(g_live_heap_bytes.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
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
namespace fs = std::filesystem;
using SteadyClock = std::chrono::steady_clock;

// Worker threads for every sharded layer. Fixed rather than nproc so runs
// on different hosts do the same work; two keeps the parallel paths live
// while leaving headroom on a small shared host.
constexpr unsigned kThreads = 2;
// Set-up is repeated at least kSetupRuns times, and until kSetupSeconds
// have passed, and its median reported: a cheap set-up gets enough samples
// for a steady median.
constexpr std::size_t kSetupRuns = 3;
constexpr double kSetupSeconds = 1.0;
// Campaign days before the campaign workload starts a fresh campaign.
constexpr unsigned kCampaignDays = 8;
// Days in the chain the resume_join workload resumes.
constexpr unsigned kChainDays = 4;
// Join fan-out (the engine's default).
constexpr unsigned kJoinPartitions = 16;
// Feed-only devices: a geolocation feed covers far more devices than one
// measurement campaign sees.
constexpr std::uint64_t kFeedOnlyDevices = 1 << 16;
// Spill-run block size for the join: small enough that the feed-only MAC
// range fills whole blocks the merge can skip undecoded.
constexpr std::size_t kJoinSpillBlock = 1024;

std::uint64_t ns_since(SteadyClock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - start)
          .count());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t store_digest(const core::ObservationStore& store) {
  std::uint64_t digest = 0xDA7B;
  for (std::size_t i = 0; i < store.size(); ++i) {
    digest = sim::mix64(digest, store.target(i).network(),
                        store.target(i).iid());
    digest = sim::mix64(digest, store.response(i).network(),
                        store.response(i).iid());
    digest = sim::mix64(digest, store.type_code(i),
                        static_cast<std::uint64_t>(store.time(i)));
  }
  return digest;
}

std::uint64_t dossier_digest(std::uint64_t digest,
                             const analysis::DeviceDossier& d) {
  digest = sim::mix64(digest, d.mac.bits(), d.sightings.size());
  for (const auto& s : d.sightings) {
    digest = sim::mix64(digest, static_cast<std::uint64_t>(s.day),
                        sim::mix64(s.network, s.asn));
  }
  for (const auto& a : d.anchors) {
    const std::uint64_t fix = analysis::pack_latlon(a.lat_udeg, a.lon_udeg);
    digest = sim::mix64(digest, static_cast<std::uint64_t>(a.day),
                        sim::mix64(fix, a.asn));
  }
  return digest;
}

/// Reports a failed output check on stderr; returns `ok`.
bool check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "daybench: check failed: %s\n", what);
  return ok;
}

/// Streams the join's output into a digest instead of materializing it.
class DigestSink final : public analysis::DossierSink {
 public:
  void on_dossier(analysis::DeviceDossier dossier) override {
    digest_ = dossier_digest(digest_, dossier);
    ++dossiers_;
    if (!dossier.anchors.empty()) ++anchored_;
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] std::uint64_t dossiers() const noexcept { return dossiers_; }
  [[nodiscard]] std::uint64_t anchored() const noexcept { return anchored_; }

 private:
  std::uint64_t digest_ = 0xD055;
  std::uint64_t dossiers_ = 0;
  std::uint64_t anchored_ = 0;
};

// ---------------------------------------------------------------------------
// Ledger: bench-side spans and per-layer totals.

class Ledger {
 public:
  explicit Ledger(bool tracing) : tracing_(tracing) {}

  [[nodiscard]] bool tracing() const noexcept { return tracing_; }

  /// Times one call into a layer; a no-op unless tracing.
  class Scope {
   public:
    Scope(Ledger& ledger, const char* layer, std::uint64_t rows)
        : ledger_(ledger.tracing_ ? &ledger : nullptr),
          layer_(layer),
          rows_(rows),
          start_(ledger_ != nullptr ? SteadyClock::now()
                                    : SteadyClock::time_point{}) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (ledger_ != nullptr) ledger_->record(layer_, start_, rows_);
    }

   private:
    Ledger* ledger_;
    const char* layer_;
    std::uint64_t rows_;
    SteadyClock::time_point start_;
  };

  void begin_iteration() {
    iteration_start_ = SteadyClock::now();
    if (tracing_) {
      iteration_span_ = spans_.size();
      spans_.push_back({"iteration", offset_ns(iteration_start_), 0, -1});
    }
  }

  void end_iteration() {
    const std::uint64_t ns = ns_since(iteration_start_);
    last_iteration_ms_ = static_cast<double>(ns) / 1e6;
    if (tracing_) {
      spans_[iteration_span_].duration_ns = ns;
      wall_ns_ += ns;
    }
  }

  /// Wall time of the last closed iteration.
  [[nodiscard]] double last_iteration_ms() const noexcept {
    return last_iteration_ms_;
  }

  /// Layer cost per row handled; 0 for a layer the workload never calls.
  [[nodiscard]] double ns_per_row(const std::string& layer) const {
    const auto it = layers_.find(layer);
    if (it == layers_.end() || it->second.rows == 0) return 0.0;
    return static_cast<double>(it->second.ns) /
           static_cast<double>(it->second.rows);
  }

  /// Share of traced iteration wall time no layer span accounts for.
  [[nodiscard]] double unattributed_pct() const {
    if (wall_ns_ == 0) return 0.0;
    std::uint64_t attributed = 0;
    for (const auto& [name, total] : layers_) attributed += total.ns;
    return 100.0 * (static_cast<double>(wall_ns_) -
                    static_cast<double>(attributed)) /
           static_cast<double>(wall_ns_);
  }

  /// Chrome trace-event JSON of every recorded span.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %lld}}%s\n",
                   s.name, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.duration_ns) / 1e3, i,
                   static_cast<long long>(s.parent),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t duration_ns;
    long long parent;
  };
  struct LayerTotal {
    std::uint64_t ns = 0;
    std::uint64_t rows = 0;
  };

  std::uint64_t offset_ns(SteadyClock::time_point t) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  }

  void record(const char* layer, SteadyClock::time_point start,
              std::uint64_t rows) {
    const std::uint64_t ns = ns_since(start);
    spans_.push_back({layer, offset_ns(start), ns,
                      static_cast<long long>(iteration_span_)});
    LayerTotal& total = layers_[layer];
    total.ns += ns;
    total.rows += rows;
  }

  bool tracing_;
  SteadyClock::time_point origin_ = SteadyClock::now();
  SteadyClock::time_point iteration_start_;
  std::size_t iteration_span_ = 0;
  double last_iteration_ms_ = 0.0;
  std::uint64_t wall_ns_ = 0;
  std::vector<Span> spans_;
  std::map<std::string, LayerTotal> layers_;
};

/// What one iteration did, for the end-to-end and per-layer counts.
struct IterationResult {
  bool ok = true;
  std::uint64_t rows = 0;    ///< Observation rows the iteration handled.
  std::uint64_t probes = 0;  ///< Probes sent (0 when nothing is probed).
};

/// Counts only a workload knows, reported as per-layer metrics.
struct LayerCounts {
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_rows = 0;
  std::uint64_t join_rows = 0;  ///< Corpus + feed rows into the join.
  std::uint64_t join_blocks_pruned = 0;
  std::uint64_t join_blocks_read = 0;
  std::uint64_t join_spill_bytes = 0;
  std::uint64_t join_dossiers = 0;
  std::uint64_t join_anchored = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds all input state anew (timed as set-up).
  virtual void setup() = 0;
  virtual IterationResult iterate(Ledger& ledger) = 0;
  /// Checks outputs after the measured loop; false if any is wrong.
  virtual bool verify() = 0;
  [[nodiscard]] const LayerCounts& counts() const noexcept { return counts_; }

 protected:
  LayerCounts counts_;
};

/// The simulated Internet every workload probes, paper-shaped: a daily
/// stride rotator handing out /56s from a /47 pool (AS8881 Versatel-style,
/// whose pools the paper found nearly full) and a static allocator handing
/// out /60s (BH Telecom-style). Every pool slot holds an EUI-64 device that
/// always answers, so every seed yields the same amount of work, while the
/// seed still moves the MACs, the vendor mix, slot placement and the
/// rotation stride.
struct World {
  sim::Internet internet;
  std::size_t rotator = 0;
  std::size_t fixed = 0;

  [[nodiscard]] const sim::PoolConfig& pool(std::size_t provider) const {
    return internet.provider(provider).pools().front().config();
  }
  [[nodiscard]] routing::Asn asn(std::size_t provider) const {
    return internet.provider(provider).config().asn;
  }
};

World make_world(std::uint64_t seed) {
  sim::WorldBuilder builder{sim::mix64(seed, 0x5EED)};
  World world;

  sim::ProviderSpec rotator;
  rotator.asn = 64496;
  rotator.name = "StrideRotator";
  rotator.country = "DE";
  rotator.advertisement = *net::Prefix::parse("2001:db8::/32");
  rotator.vendors = {{net::Oui{0x3810d5}, 0.86},   // AVM
                     {net::Oui{0x342792}, 0.09},   // Sagemcom
                     {net::Oui{0x00a057}, 0.05}};  // LANCOM
  rotator.eui64_fraction = 1.0;
  rotator.low_byte_fraction = 0.0;
  rotator.silent_fraction = 0.0;
  sim::PoolSpec stride_pool;
  stride_pool.pool_length = 47;
  stride_pool.allocation_length = 56;
  stride_pool.rotation.kind = sim::RotationPolicy::Kind::kStride;
  stride_pool.rotation.period = sim::kDay;
  stride_pool.rotation.window_length = sim::hours(6);
  stride_pool.rotation.stride = 97 + 2 * (sim::mix64(seed, 0x57D) % 128);
  stride_pool.device_count = 512;  // every /56 of the /47
  rotator.pools = {stride_pool};
  world.rotator = builder.add_provider(rotator);

  sim::ProviderSpec fixed;
  fixed.asn = 64497;
  fixed.name = "StaticAllocator";
  fixed.country = "BA";
  fixed.advertisement = *net::Prefix::parse("2a02:c7f::/32");
  fixed.vendors = {{net::Oui{0x344b50}, 0.7},   // ZTE
                   {net::Oui{0x00e0fc}, 0.3}};  // Huawei
  fixed.eui64_fraction = 1.0;
  fixed.low_byte_fraction = 0.0;
  fixed.silent_fraction = 0.0;
  sim::PoolSpec static_pool;
  static_pool.pool_length = 48;
  static_pool.allocation_length = 60;
  static_pool.device_count = 4096;  // every /60 of the /48
  fixed.pools = {static_pool};
  world.fixed = builder.add_provider(fixed);

  world.internet = builder.take();
  return world;
}

/// The /48s of a provider's pool.
std::vector<net::Prefix> pool_48s(const World& world, std::size_t provider) {
  const net::Prefix pool = world.pool(provider).prefix;
  std::vector<net::Prefix> out;
  for (std::uint64_t i = 0; i < (1ULL << (48 - pool.length())); ++i) {
    out.push_back(pool.subnet(48, net::Uint128{i}));
  }
  return out;
}

std::vector<engine::SweepUnit> day_units(
    const std::vector<net::Prefix>& targets, std::uint64_t seed) {
  std::vector<engine::SweepUnit> units;
  units.reserve(targets.size());
  for (const auto& p48 : targets) {
    units.push_back({p48, 64, sim::mix64(seed, p48.base().network(), 64)});
  }
  return units;
}

/// Probes take the scanner's real path: serialize, deliver, parse and
/// checksum-verify every packet.
probe::ProberOptions prober_options() {
  probe::ProberOptions options;
  options.wire_mode = true;
  return options;
}

// ---------------------------------------------------------------------------
// campaign

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, fs::path dir)
      : seed_(seed), root_(std::move(dir)) {}

  void setup() override {
    serve_.reset();
    world_.reset();
    world_ = std::make_unique<World>(make_world(seed_));
    // The campaign probes what the §4 discovery funnel finds rotating, as
    // the paper's did; the funnel probes on the logical path, as the
    // discovery example does.
    sim::VirtualClock clock{sim::hours(9)};
    probe::ProberOptions funnel_probes = prober_options();
    funnel_probes.wire_mode = false;
    probe::Prober prober{world_->internet, clock, funnel_probes};
    core::BootstrapOptions funnel;
    funnel.seed = sim::mix64(seed_, 0xB007);
    funnel.threads = kThreads;
    targets_ = core::run_bootstrap(world_->internet, clock, prober, funnel)
                   .rotating_48s;
    if (targets_.empty()) {
      throw std::runtime_error("discovery found no rotating /48s");
    }
    std::sort(targets_.begin(), targets_.end());
    planned_probes_ = targets_.size() * 65536;
    campaign_ = 0;
    start_campaign();
  }

  IterationResult iterate(Ledger& ledger) override {
    if (day_ == kCampaignDays) start_campaign();  // untimed: between days
    ledger.begin_iteration();
    IterationResult r = run_day(ledger);
    ledger.end_iteration();
    // Untimed bookkeeping for verify().
    day_digests_.push_back(store_digest(day_store_));
    return r;
  }

  bool verify() override {
    bool ok = check(failures_ == 0, "every campaign day completed");
    ok = check(targets_ == pool_48s(*world_, world_->rotator),
               "discovery found exactly the stride rotator's /48s") &&
         ok;
    // The chain on disk replays to exactly the rows each day swept.
    const auto manifest = corpus::load_checkpoint(dir_.string());
    if (!check(manifest && manifest->days.size() == day_,
               "checkpoint manifest lists every committed day")) {
      return false;
    }
    std::uint64_t rows = 0;
    for (unsigned d = 0; d < day_; ++d) {
      corpus::SnapshotReader reader;
      std::optional<core::ObservationStore> store;
      if (reader.open((dir_ / manifest->days[d].snapshot_file).string())) {
        store = reader.read_store();
      }
      ok = check(store && store_digest(*store) ==
                              day_digests_[day_digests_.size() - day_ + d],
                 "day snapshot reads back the swept rows") &&
           ok;
      rows += manifest->days[d].rows;
    }
    const auto version = serve_->current();
    ok = check(version && version->version == day_ &&
                   version->table.rows_scanned == rows,
               "served aggregate covers every applied row") &&
         ok;
    // Algorithm 1 recovers the stride rotator's true /56 allocations.
    const auto it = allocation_.find(world_->asn(world_->rotator));
    ok = check(it != allocation_.end() && it->second == 56,
               "inferred allocation of the stride rotator is /56") &&
         ok;
    // A serial re-sweep of the last day reproduces the sharded one.
    sim::VirtualClock clock{day_start_};
    core::ObservationStore serial;
    engine::SweepOptions sweep;
    sweep.threads = 1;
    sweep.seed = seed_;
    (void)core::sweep_into_store(world_->internet, clock,
                                 day_units(targets_, seed_), prober_options(),
                                 sweep, serial);
    ok = check(store_digest(serial) == day_digests_.back(),
               "serial re-sweep reproduces the sharded day") &&
         ok;
    return ok;
  }

 private:
  void start_campaign() {
    serve_.reset();
    serve::ServeOptions options;
    options.threads = kThreads;
    options.bgp = &world_->internet.bgp();
    serve_ = std::make_unique<serve::ServeTable>(options);
    if (!dir_.empty()) fs::remove_all(dir_);
    dir_ = root_ / ("campaign_" + std::to_string(campaign_++));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    manifest_ = corpus::CampaignCheckpoint{};
    manifest_.seed = seed_;
    manifest_.scan_time_of_day = sim::hours(12);
    manifest_.allocation_granularity_after_day0 = false;
    manifest_.first_day = first_day();
    day_ = 0;
    allocation_.clear();
  }

  /// Campaigns follow each other: campaign k covers the kCampaignDays days
  /// from day k * kCampaignDays.
  [[nodiscard]] std::int64_t first_day() const noexcept {
    return (campaign_ - 1) * static_cast<std::int64_t>(kCampaignDays);
  }

  IterationResult run_day(Ledger& ledger) {
    IterationResult r;
    const std::int64_t abs_day = first_day() + day_;
    day_start_ = abs_day * sim::kDay + sim::hours(12);
    sim::VirtualClock clock{day_start_};
    day_store_ = core::ObservationStore{};

    {
      Ledger::Scope span{ledger, "sweep", planned_probes_};
      engine::SweepOptions sweep;
      sweep.threads = kThreads;
      sweep.seed = seed_;
      const core::SweepIngest ingest = core::sweep_into_store(
          world_->internet, clock, day_units(targets_, seed_),
          prober_options(), sweep, day_store_);
      r.probes = ingest.counters.sent;
      r.ok = r.ok && ingest.counters.sent == planned_probes_ &&
             ingest.counters.received == day_store_.size();
    }
    r.rows = day_store_.size();

    {
      Ledger::Scope span{ledger, "snapshot", r.rows};
      corpus::SnapshotWriter writer;
      writer.set_threads(kThreads);
      writer.append(day_store_);
      corpus::CheckpointDay record;
      record.day = abs_day;
      record.probes = r.probes;
      record.responses = r.rows;
      record.rows = writer.rows();
      record.clock_us = clock.now();
      record.snapshot_file = corpus::snapshot_file_name(day_);
      const bool written = writer.write((dir_ / record.snapshot_file).string());
      manifest_.days.push_back(record);
      r.ok = r.ok && written &&
             corpus::save_checkpoint(dir_.string(), manifest_);
      counts_.snapshot_bytes += writer.encoded_size();
      counts_.snapshot_rows += writer.rows();
    }

    {
      Ledger::Scope span{ledger, "accumulate", r.rows};
      analysis::AnalysisOptions options;
      options.threads = kThreads;
      const analysis::AggregateTable table = analysis::analyze(
          analysis::StoreInput{day_store_}, &world_->internet.bgp(), options);
      r.ok = r.ok && table.rows_scanned == r.rows;
      if (day_ == 0) allocation_ = analysis::allocation_medians_by_as(table);
    }

    {
      Ledger::Scope span{ledger, "serve", r.rows};
      serve_->apply(analysis::StoreInput{day_store_}, abs_day);
    }

    ++day_;
    if (!r.ok) ++failures_;
    return r;
  }

  std::uint64_t seed_;
  fs::path root_;
  fs::path dir_;
  std::unique_ptr<World> world_;
  std::unique_ptr<serve::ServeTable> serve_;  // reads world_'s BGP table
  std::vector<net::Prefix> targets_;
  std::uint64_t planned_probes_ = 0;
  corpus::CampaignCheckpoint manifest_;
  container::FlatMap<routing::Asn, unsigned> allocation_;
  core::ObservationStore day_store_;
  std::vector<std::uint64_t> day_digests_;
  std::int64_t campaign_ = 0;
  unsigned day_ = 0;
  sim::TimePoint day_start_ = 0;
  std::uint64_t failures_ = 0;
};

// ---------------------------------------------------------------------------
// resume_join

class ResumeJoinWorkload final : public Workload {
 public:
  ResumeJoinWorkload(std::uint64_t seed, fs::path dir)
      : seed_(seed), root_(std::move(dir)) {}

  void setup() override {
    world_.reset();
    fs::remove_all(root_);
    fs::create_directories(root_ / "chain");
    world_ = std::make_unique<World>(make_world(seed_));

    // The chain: a real checkpointing campaign, every day at /64 grain.
    const std::vector<net::Prefix> targets =
        pool_48s(*world_, world_->rotator);
    sim::VirtualClock clock{sim::hours(10)};
    probe::Prober prober{world_->internet, clock, prober_options()};
    core::CampaignOptions options;
    options.days = kChainDays;
    options.seed = sim::mix64(seed_, 0xCA3B);
    options.allocation_granularity_after_day0 = false;
    options.threads = kThreads;
    options.checkpoint_dir = (root_ / "chain").string();
    const core::CampaignResult campaign = core::run_campaign(
        world_->internet, clock, prober, targets, options);
    if (!campaign.checkpoint_ok) throw std::runtime_error("chain write failed");
    chain_rows_ = campaign.observations.size();
    chain_digest_ = store_digest(campaign.observations);

    // The feed: three in four corpus MACs geolocated, plus devices under an
    // OUI above every corpus MAC, whose blocks the join prunes undecoded.
    std::vector<std::uint64_t> macs;
    for (std::size_t i = 0; i < campaign.observations.size(); ++i) {
      if (const auto mac =
              net::embedded_mac(campaign.observations.response(i))) {
        macs.push_back(mac->bits());
      }
    }
    std::sort(macs.begin(), macs.end());
    macs.erase(std::unique(macs.begin(), macs.end()), macs.end());
    if (macs.empty() || (macs.back() >> 24) >= 0xffffff) {
      throw std::runtime_error("chain holds no usable EUI-64 MACs");
    }
    sim::GeoFeedSpec feed_only_spec;
    feed_only_spec.seed = seed_;
    feed_only_spec.ouis = {static_cast<std::uint32_t>(macs.back() >> 24) + 1};
    feed_only_spec.devices_per_oui = kFeedOnlyDevices;
    const sim::GeoFeedGenerator feed_only{feed_only_spec};
    std::vector<sim::GeoRecord> feed;
    sim::Rng rng{sim::mix64(seed_, 0xFEED)};
    for (const std::uint64_t mac : macs) {
      if (rng.below(4) == 0) continue;
      sim::GeoRecord record;
      record.mac = net::MacAddress{mac};
      record.lat_udeg =
          static_cast<std::int32_t>(rng.below(180'000'000)) - 90'000'000;
      record.lon_udeg =
          static_cast<std::int32_t>(rng.below(360'000'000)) - 180'000'000;
      record.asn = 64500 + static_cast<std::uint32_t>(rng.below(4));
      record.last_day = static_cast<std::int64_t>(rng.below(kChainDays));
      feed.push_back(record);
    }
    for (std::uint64_t i = 0; i < feed_only.records(); ++i) {
      feed.push_back(feed_only.record(i));
    }
    std::sort(feed.begin(), feed.end(),
              [](const sim::GeoRecord& a, const sim::GeoRecord& b) {
                return a.mac.bits() < b.mac.bits();
              });
    feed_rows_ = feed.size();
    feed_path_ = (root_ / "feed.gfd").string();
    corpus::GeoFeedWriter writer{4096};
    if (!writer.open(feed_path_)) throw std::runtime_error("feed open failed");
    for (const auto& record : feed) writer.append(record);
    if (!writer.finish()) throw std::runtime_error("feed write failed");
    join_reference_.reset();
  }

  IterationResult iterate(Ledger& ledger) override {
    IterationResult r;
    const std::string chain = (root_ / "chain").string();
    const std::string spill = (root_ / "spill").string();
    ledger.begin_iteration();

    core::ObservationStore store;
    std::optional<corpus::CampaignCheckpoint> manifest;
    {
      Ledger::Scope span{ledger, "decode", chain_rows_};
      manifest = corpus::load_checkpoint(chain);
      r.ok = manifest && manifest->days.size() == kChainDays;
      for (std::size_t d = 0; r.ok && d < manifest->days.size(); ++d) {
        corpus::SnapshotReader reader;
        reader.set_threads(kThreads);
        r.ok = reader.open(chain + "/" + manifest->days[d].snapshot_file) &&
               reader.rows() == manifest->days[d].rows &&
               reader.read_into(store);
      }
    }
    r.rows = store.size();

    if (r.ok) {
      serve::ServeOptions options;
      options.threads = kThreads;
      options.bgp = &world_->internet.bgp();
      serve::ServeTable table{options};
      Ledger::Scope span{ledger, "serve", r.rows};
      std::size_t row = 0;
      for (const corpus::CheckpointDay& day : manifest->days) {
        table.apply(analysis::StoreInput{store, row, row + day.rows}, day.day);
        row += day.rows;
      }
      const auto version = table.current();
      r.ok = version && version->table.rows_scanned == r.rows;
    }

    DigestSink sink;
    join::JoinStats stats;
    if (r.ok) {
      Ledger::Scope span{ledger, "join", r.rows + feed_rows_};
      join::JoinOptions options;
      options.threads = kThreads;
      options.partitions = kJoinPartitions;
      options.spill_block_elements = kJoinSpillBlock;
      options.spill_dir = spill;
      options.bgp = &world_->internet.bgp();
      join::DossierJoin engine{options};
      for (const corpus::CheckpointDay& day : manifest->days) {
        engine.add_corpus_day(chain + "/" + day.snapshot_file, day.day);
      }
      engine.add_geo_feed(feed_path_);
      r.ok = engine.run(sink);
      stats = engine.stats();
    }
    ledger.end_iteration();

    // Untimed checks: the resumed corpus is the one the campaign wrote, and
    // the join answers the same at every iteration.
    fs::remove_all(spill);
    r.ok = r.ok && r.rows == chain_rows_ &&
           store_digest(store) == chain_digest_;
    if (r.ok && !join_reference_) join_reference_ = sink.digest();
    r.ok = r.ok && sink.digest() == *join_reference_ && sink.dossiers() > 0;
    if (!r.ok) ++failures_;
    counts_.join_rows += r.rows + feed_rows_;
    counts_.join_blocks_pruned += stats.blocks_pruned;
    counts_.join_blocks_read += stats.blocks_read;
    counts_.join_spill_bytes += stats.spill_bytes;
    counts_.join_dossiers += sink.dossiers();
    counts_.join_anchored += sink.anchored();
    return r;
  }

  bool verify() override {
    if (!check(failures_ == 0 && join_reference_.has_value(),
               "every resume and join completed identically")) {
      return false;
    }
    // The partitioned join matches the naive single-pass oracle.
    const auto manifest = corpus::load_checkpoint((root_ / "chain").string());
    if (!check(manifest.has_value(), "chain manifest loads")) return false;
    join::NaiveJoinInputs inputs;
    for (const corpus::CheckpointDay& day : manifest->days) {
      inputs.corpus_files.push_back(
          {(root_ / "chain" / day.snapshot_file).string(), day.day});
    }
    inputs.geo_feeds = {feed_path_};
    inputs.bgp = &world_->internet.bgp();
    const auto oracle = join::naive_join(inputs);
    std::uint64_t digest = 0xD055;
    if (oracle) {
      for (const auto& d : oracle->rows()) digest = dossier_digest(digest, d);
    }
    const bool matches = check(oracle && digest == *join_reference_,
                               "join output matches the naive oracle");
    return check(counts_.join_blocks_pruned > 0,
                 "join pruned feed blocks outside the corpus key span") &&
           matches;
  }

 private:
  std::uint64_t seed_;
  fs::path root_;
  std::unique_ptr<World> world_;
  std::uint64_t chain_rows_ = 0;
  std::uint64_t chain_digest_ = 0;
  std::uint64_t feed_rows_ = 0;
  std::string feed_path_;
  std::optional<std::uint64_t> join_reference_;
  std::uint64_t failures_ = 0;
};

// ---------------------------------------------------------------------------
// Main loop

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') return std::nullopt;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") == 0) args.trace = 0;
      if (std::strcmp(value, "1") == 0) args.trace = 1;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_seed || args.seconds <= 0 || args.trace < 0 ||
      args.work_dir.empty()) {
    return std::nullopt;
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  const fs::path dir = fs::path{args.work_dir} / args.workload;
  if (args.workload == "campaign") {
    return std::make_unique<CampaignWorkload>(args.seed, dir);
  }
  if (args.workload == "resume_join") {
    return std::make_unique<ResumeJoinWorkload>(args.seed, dir);
  }
  return nullptr;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args);
  if (!workload) {
    std::fprintf(stderr, "daybench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  fs::create_directories(args.work_dir);

  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kSetupRuns || setup_total < kSetupSeconds) {
    const auto start = SteadyClock::now();
    workload->setup();
    setup_s.push_back(static_cast<double>(ns_since(start)) / 1e9);
    setup_total += setup_s.back();
  }

  Ledger ledger{args.trace == 1};
  Ledger untraced{false};
  (void)workload->iterate(untraced);  // warm caches and lazy state

  reset_peak_heap();
  std::vector<double> iteration_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rows = 0;
  std::uint64_t probes = 0;
  const auto start = SteadyClock::now();
  const auto budget_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  while (attempted == 0 || ns_since(start) < budget_ns) {
    const IterationResult r = workload->iterate(ledger);
    ++attempted;
    if (!r.ok) ++failed;
    rows += r.rows;
    probes += r.probes;
    iteration_ms.push_back(ledger.last_iteration_ms());
  }
  const bool correct = failed == 0 && workload->verify();

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"iter_ms", median(iteration_ms), "ms"},
        {"peak_heap_mb", static_cast<double>(g_peak_heap_bytes.load()) / 1e6,
         "MB"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    const LayerCounts& c = workload->counts();
    const auto n = static_cast<double>(attempted);
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    metrics = {
        {"sweep_ns_per_probe", ledger.ns_per_row("sweep"), "ns"},
        {"snapshot_ns_per_row", ledger.ns_per_row("snapshot"), "ns"},
        {"accumulate_ns_per_row", ledger.ns_per_row("accumulate"), "ns"},
        {"serve_ns_per_row", ledger.ns_per_row("serve"), "ns"},
        {"decode_ns_per_row", ledger.ns_per_row("decode"), "ns"},
        {"join_ns_per_row", ledger.ns_per_row("join"), "ns"},
        {"unattributed_pct", ledger.unattributed_pct(), "%"},
        {"probes_per_iter", static_cast<double>(probes) / n, "count"},
        {"rows_per_iter", static_cast<double>(rows) / n, "count"},
        {"response_ratio", ratio(rows, probes), "ratio"},
        {"snapshot_bytes_per_row", ratio(c.snapshot_bytes, c.snapshot_rows),
         "B"},
        {"join_blocks_pruned_pct",
         100.0 * ratio(c.join_blocks_pruned,
                       c.join_blocks_pruned + c.join_blocks_read),
         "%"},
        {"join_spill_bytes_per_row", ratio(c.join_spill_bytes, c.join_rows),
         "B"},
        {"join_anchored_pct", 100.0 * ratio(c.join_anchored, c.join_dossiers),
         "%"},
    };
    if (!args.trace_out.empty() && !ledger.write_chrome_trace(args.trace_out)) {
      std::fprintf(stderr, "daybench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: daybench --workload campaign|resume_join "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--trace-out FILE]\n");
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daybench: %s\n", e.what());
    return 1;
  }
}
