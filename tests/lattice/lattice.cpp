#include "lattice.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>

#include "analysis/derive.h"
#include "analysis/input.h"
#include "core/bootstrap.h"
#include "core/sweep_ingest.h"
#include "corpus/checkpoint.h"
#include "corpus/geo_feed.h"
#include "corpus/snapshot.h"
#include "engine/sweep.h"
#include "join/join.h"
#include "join/naive.h"
#include "netbase/eui64.h"
#include "probe/prober.h"
#include "serve/serve_table.h"
#include "sim/geo_feed.h"
#include "sim/rng.h"
#include "sim/sim_time.h"
#include "telemetry/metrics.h"
#include "telemetry/recorder.h"

namespace scent::lattice {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFleetOui = 0x3810d5;
constexpr std::uint64_t kAlienOui = 0xf4f26d;
constexpr char kHex[] = "0123456789abcdef";

// ---------------------------------------------------------------------------
// Rows: rendered values joined by spaces.

void put(std::string& out, const char* v) { out += v; }
void put(std::string& out, const std::string& v) { out += v; }
void put(std::string& out, bool v) { out += v ? "true" : "false"; }
template <std::integral T>
void put(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}
/// Uncompressed and fixed-width: much faster than to_string() over a
/// corpus, and it still reads as an address.
void put(std::string& out, const net::Ipv6Address& v) {
  const std::uint64_t halves[2] = {v.network(), v.iid()};
  for (int group = 0; group < 8; ++group) {
    if (group != 0) out += ':';
    const std::uint64_t bits = halves[group / 4] >> (16 * (3 - group % 4));
    for (int shift = 12; shift >= 0; shift -= 4) {
      out += kHex[(bits >> shift) & 15];
    }
  }
}
void put(std::string& out, const net::MacAddress& v) { out += v.to_string(); }
void put(std::string& out, const net::Prefix& v) { out += v.to_string(); }

/// Appends one row to `rows` without a temporary string.
template <typename... T>
void push(RowList& rows, const T&... values) {
  std::string& out = rows.text();
  ((put(out, values), out += ' '), ...);
  out.pop_back();
  rows.end_row();
}

template <typename... T>
std::string row(const T&... values) {
  RowList one;
  push(one, values...);
  return std::string{one[0]};
}

void add_store(Form& form, const std::string& name,
               const core::ObservationStore& store) {
  Layer& layer = form.add(name);
  for (std::size_t i = 0; i < store.size(); ++i) {
    push(layer.rows, store.target(i), store.response(i), store.type_code(i),
         store.time(i));
  }
  push(layer.rows, "unique_responses", store.unique_responses(),
       "unique_eui64_responses", store.unique_eui64_responses(),
       "unique_eui64_iids", store.unique_eui64_iids());
}

void add_bootstrap(Form& form, const core::BootstrapResult& boot) {
  Layer& sets = form.add("boot.prefixes");
  for (const auto& [list, prefixes] :
       {std::pair{"seed_48", &boot.seed_48s}, {"seed_32", &boot.seed_32s},
        {"expanded_48", &boot.expanded_48s},
        {"high_density_48", &boot.high_density_48s},
        {"low_density_48", &boot.low_density_48s},
        {"unresponsive_48", &boot.unresponsive_48s},
        {"rotating_48", &boot.rotating_48s}}) {
    for (const net::Prefix& p : *prefixes) push(sets.rows, list, p);
  }
  Layer& verdicts = form.add("boot.verdicts");
  for (const core::RotationVerdict& v : boot.verdicts) {
    push(verdicts.rows, v.prefix, v.rotating, v.eui_targets, v.changed);
  }
  push(form.add("boot.funnel").rows, "probes", boot.probes_sent, "addresses",
       boot.total_addresses, "eui64", boot.eui64_addresses, "iids",
       boot.unique_iids);
  add_store(form, "boot.corpus", boot.observations);
}

void add_campaign(Form& form, const core::CampaignResult& result) {
  Layer& funnel = form.add("campaign.funnel");
  for (const core::DaySummary& d : result.daily) {
    push(funnel.rows, "day", d.day, d.probes, d.responses, d.unique_eui64_iids);
  }
  push(funnel.rows, "total", result.probes_sent, result.responses);
  Layer& allocations = form.add("campaign.allocations");
  for (const auto& [asn, length] : result.allocation_length_by_as) {
    push(allocations.rows, asn, length);
  }
  add_store(form, "campaign.corpus", result.observations);
}

void add_table(Form& form, const std::string& prefix,
               const analysis::AggregateTable& table);

void add_map(Form& form, const std::string& name, const core::Snapshot& s) {
  Layer& layer = form.add(name);
  for (const auto& [target, response] : s.map()) {
    push(layer.rows, target, response);
  }
}

void add_served(Form& form, const std::string& prefix,
                const serve::TableVersion& v) {
  push(form.add(prefix + ".version").rows, "version", v.version, "day", v.day,
       "delta_rows", v.delta_rows);
  add_table(form, prefix, v.table);
}

/// Every file of a checkpoint directory, as 32-byte hex rows.
void add_chain(Form& form, const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    Layer& layer = form.add("chain." + name);
    std::FILE* f = std::fopen((dir + "/" + name).c_str(), "rb");
    unsigned char chunk[32];
    std::size_t n = 0;
    for (std::uint64_t at = 0;
         f != nullptr && (n = std::fread(chunk, 1, sizeof chunk, f)) > 0;
         at += n) {
      std::string hex;
      for (std::size_t i = 0; i < n; ++i) {
        hex += kHex[chunk[i] >> 4];
        hex += kHex[chunk[i] & 15];
      }
      push(layer.rows, at, hex);
    }
    if (f != nullptr) std::fclose(f);
  }
}

void add_dossiers(Form& form, const analysis::DossierTable& table) {
  Layer& layer = form.add("dossiers");
  std::int64_t first = std::numeric_limits<std::int64_t>::max();
  std::int64_t last = 0;
  std::uint64_t anchored = 0;
  for (const analysis::DeviceDossier& d : table.rows()) {
    if (!d.sightings.empty() && !d.anchors.empty()) ++anchored;
    std::string r = row(d.mac, "sightings");
    for (const analysis::DossierSighting& s : d.sightings) {
      r += ' ' + row(s.day, s.network, s.asn);
      first = std::min(first, s.day);
      last = std::max(last, s.day);
    }
    r += " anchors";
    for (const analysis::GeoAnchor& a : d.anchors) {
      r += ' ' + row(a.day, a.lat_udeg, a.lon_udeg, a.asn);
    }
    layer.rows.push_back(r);
  }
  form.facts["dossiers"] = table.size();
  form.facts["anchored"] = anchored;
  form.facts["first_sighting_day"] = static_cast<std::uint64_t>(first);
  form.facts["last_sighting_day"] = static_cast<std::uint64_t>(last);
}

// ---------------------------------------------------------------------------
// World generators

sim::Internet make_churn_internet(std::uint64_t seed) {
  // A rotator and a static allocator whose customers join and leave
  // mid-campaign — the §4.3 false-positive source.
  sim::WorldBuilder builder{seed};
  const auto add = [&](routing::Asn asn, const char* name, const char* country,
                       const char* prefix, std::uint32_t oui,
                       unsigned allocation_length, bool rotates,
                       std::size_t devices, double eui64, double churn) {
    sim::ProviderSpec spec;
    spec.asn = asn;
    spec.name = name;
    spec.country = country;
    spec.advertisement = *net::Prefix::parse(prefix);
    spec.vendors = {{net::Oui{oui}, 1.0}};
    sim::PoolSpec pool;
    pool.pool_length = 48;
    pool.allocation_length = allocation_length;
    if (rotates) {
      pool.rotation.kind = sim::RotationPolicy::Kind::kStride;
      pool.rotation.stride = 97;
    }
    pool.device_count = devices;
    spec.pools = {pool};
    spec.eui64_fraction = eui64;
    spec.churn_fraction = churn;
    builder.add_provider(spec);
  };
  add(65101, "ChurnRotator", "DE", "2001:1111::/32", 0x3810d5, 56, true, 200,
      0.9, 0.35);
  add(65102, "ChurnStatic", "VN", "2001:2222::/32", 0x98f428, 60, false, 1000,
      0.8, 0.5);
  return builder.take();
}

sim::Internet make_pool_internet(const PoolShape& p) {
  sim::WorldBuilder builder{0x9009 + p.pool_length * 131 +
                            p.allocation_length};
  sim::ProviderSpec spec;
  spec.asn = 65111;
  spec.name = "PropertyNet";
  spec.country = "DE";
  spec.advertisement = *net::Prefix::parse("2001:db8::/32");
  spec.vendors = {{net::Oui{0x3810d5}, 1.0}};
  spec.eui64_fraction = 1.0;
  spec.low_byte_fraction = 0.0;
  spec.silent_fraction = 0.0;
  sim::PoolSpec pool;
  pool.pool_length = p.pool_length;
  pool.allocation_length = p.allocation_length;
  pool.placement = p.placement;
  pool.rotation.kind = p.kind;
  pool.rotation.period = sim::kDay;
  pool.rotation.window_length = sim::hours(6);
  pool.rotation.stride = 7;
  const std::uint64_t slots = 1ULL << (p.allocation_length - p.pool_length);
  pool.device_count =
      static_cast<std::size_t>(std::min<std::uint64_t>(48, (slots * 3) / 4));
  spec.pools.push_back(pool);
  builder.add_provider(spec);
  return builder.take();
}

/// Appends `rows` synthetic rows drawn from `rng`: `devices` devices, every
/// `roam`-th of which (0 = none) picks its AS per row, privacy-addressed
/// and unrouted replies when `privacy`, all on `day` (< 0: a random day in
/// [0, 10) per row).
void append_rows(core::ObservationStore& store, sim::Rng& rng,
                 std::uint64_t devices, std::uint64_t roam, bool privacy,
                 std::int64_t day, std::size_t rows) {
  const std::uint64_t as_base[3] = {0x20010db800000000ULL,
                                    0x20010db844000000ULL,
                                    0x2003e20000000000ULL};
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t device = rng.below(devices);
    const net::MacAddress mac{0x3810d5000000ULL + device};
    std::uint64_t as_pick = device % 3;
    if (roam != 0 && device % roam == 0) as_pick = rng.below(3);
    const std::int64_t row_day =
        day >= 0 ? day : static_cast<std::int64_t>(rng.below(10));
    const std::uint64_t network =
        as_base[as_pick] |
        ((device * 7 + static_cast<std::uint64_t>(row_day)) % 256) << 8;
    core::Observation obs;
    obs.target = net::Ipv6Address{network, 0xbeef0000ULL + i};
    obs.response = net::Ipv6Address{network, net::mac_to_eui64(mac)};
    if (privacy && rng.chance(0.15)) {
      const std::uint64_t net2 =
          rng.chance(0.5) ? network : 0x2a00000000000000ULL | (device << 8);
      obs.response = net::Ipv6Address{net2, rng.next() | 0x0400000000000000ULL};
    }
    obs.type = wire::Icmpv6Type::kEchoReply;
    obs.time = sim::days(row_day) + static_cast<std::int64_t>(i % 1000);
    store.add(obs);
  }
}

bool has_funnel(Kind kind) {
  return kind == Kind::kPaper || kind == Kind::kChurn;
}

std::unique_ptr<serve::ServeTable> serve_table(bool serve,
                                               const routing::BgpTable& bgp,
                                               unsigned threads) {
  if (!serve) return nullptr;
  return std::make_unique<serve::ServeTable>(
      serve::ServeOptions{.threads = threads, .bgp = &bgp});
}

}  // namespace

// ---------------------------------------------------------------------------

void PrintTo(const PoolShape& shape, std::ostream* os) {
  const char* kind = "Static";
  if (shape.kind == sim::RotationPolicy::Kind::kStride) kind = "Stride";
  if (shape.kind == sim::RotationPolicy::Kind::kShuffle) kind = "Shuffle";
  *os << "Pool" << shape.pool_length << "Alloc" << shape.allocation_length
      << kind
      << (shape.placement == sim::Placement::kContiguous ? "Contig"
                                                         : "Scatter");
}

routing::BgpTable synthetic_bgp() {
  routing::BgpTable bgp;
  bgp.announce({*net::Prefix::parse("2001:db8::/32"), 65001, "DE", "RotorDE"});
  bgp.announce(
      {*net::Prefix::parse("2001:db8:4400::/40"), 65003, "DE", "CarveOut"});
  bgp.announce({*net::Prefix::parse("2003:e200::/32"), 65002, "VN", "StatVN"});
  bgp.announce({*net::Prefix::parse("2001:4860::/32"), 65000, "DE", "B"});
  return bgp;
}

sim::PaperWorld make_sim(const World& world) {
  if (world.kind == Kind::kPaper) {
    sim::PaperWorldOptions options;
    options.seed = world.seed;
    options.tail_as_count = 2;
    options.scale = tsan_or(0.04, 0.08);
    options.devices_per_tail_pool = tsan_or(12, 24);
    options.versatel_pool_count = 2;
    options.tail_churn = 0.25;
    options.inject_pathologies = true;
    return sim::make_paper_world(options);
  }
  if (world.kind == Kind::kTiny) {
    return sim::make_tiny_world(world.seed, world.devices);
  }
  sim::PaperWorld out;
  out.internet = world.kind == Kind::kChurn ? make_churn_internet(world.seed)
                                            : make_pool_internet(world.pool);
  return out;
}

std::vector<net::Prefix> pool_48s(const sim::PaperWorld& world,
                                  std::size_t count) {
  const auto& pool = world.internet.provider(world.versatel).pools()[0];
  std::vector<net::Prefix> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    out.emplace_back(pool.config().prefix.subnet(48, net::Uint128{i}).base(),
                     48);
  }
  return out;
}

Process::Process(const World& w, unsigned threads)
    : spec(w),
      world(make_sim(w)),
      prober(world.internet, clock,
             {.packets_per_second = has_funnel(w.kind) ? 2000000u : 1000000u,
              .wire_mode = false}) {
  if (!has_funnel(w.kind)) {
    targets = pool_48s(world, 4);
    return;
  }
  core::BootstrapOptions options;
  options.seed = w.seed ^ 0xF00D;
  options.probes_per_48 = 4;
  options.threads = threads;
  boot = core::run_bootstrap(world.internet, clock, prober, options);
  targets = boot.rotating_48s;
}

core::CampaignResult Process::campaign(
    std::size_t days, unsigned threads, const std::string& chain,
    serve::ServeTable* serve,
    std::function<void(std::int64_t, std::size_t)> on_day_progress) {
  core::CampaignOptions options;
  options.days = static_cast<unsigned>(days);
  if (has_funnel(spec.kind)) options.seed = spec.seed ^ 0xCA3B;
  options.threads = threads;
  options.checkpoint_dir = chain;
  options.serve = serve;
  options.on_day_progress = std::move(on_day_progress);
  return core::run_campaign(world.internet, clock, prober, targets, options);
}

Rows make_rows(const World& w) {
  Rows out;
  core::ObservationStore& store = out.store;
  out.day_begin.push_back(0);
  if (w.kind == Kind::kWindowRows) {
    // Repeated targets with changing EUI responses and non-EUI replies
    // between them, so first-sighting order and last-wins both show.
    for (std::size_t i = 0; i < w.rows; ++i) {
      const std::uint64_t t = (i * 131) % 1777;
      const std::uint64_t network = 0x2003e20000000000ULL | ((i % 11) << 8);
      const net::MacAddress mac{0x3a10d5000000ULL + (i % 389)};
      store.add(core::Observation{
          net::Ipv6Address{0x20010db800000000ULL | ((t % 41) << 16), t},
          net::Ipv6Address{network, i % 4 == 0 ? 0x0123456789abULL + i
                                               : net::mac_to_eui64(mac)},
          wire::Icmpv6Type::kEchoReply, 0,
          sim::days(static_cast<std::int64_t>(i % 3)) +
              static_cast<std::int64_t>(i)});
    }
  } else if (w.kind == Kind::kDayRows) {
    for (std::size_t day = 0; day < w.days; ++day) {
      append_day(store, w.seed, static_cast<std::int64_t>(day), w.rows);
      out.day_begin.push_back(store.size());
    }
    return out;
  } else {
    const bool churn = w.kind == Kind::kChurnRows;
    sim::Rng rng{w.seed};
    append_rows(store, rng, 40, churn ? 3 : 0, churn, -1, w.rows);
  }
  out.day_begin.push_back(store.size());
  return out;
}

void append_day(core::ObservationStore& store, std::uint64_t seed,
                std::int64_t day, std::size_t rows) {
  sim::Rng rng{sim::mix64(seed, static_cast<std::uint64_t>(day))};
  append_rows(store, rng, 48, 4, true, day, rows);
}

std::vector<std::string> write_chain(const core::ObservationStore& store,
                                     const std::vector<std::size_t>& cuts,
                                     const TempDir& dir,
                                     const std::string& tag) {
  std::vector<std::string> paths;
  for (std::size_t f = 0; f + 1 < cuts.size(); ++f) {
    corpus::SnapshotWriter writer;
    writer.append(store.view(cuts[f], cuts[f + 1]));
    paths.push_back(dir.file(tag + "_" + std::to_string(f) + ".snap"));
    EXPECT_TRUE(writer.write(paths.back())) << paths.back();
  }
  return paths;
}

std::string write_feed(const TempDir& dir, std::uint64_t seed,
                       std::size_t block_elements) {
  sim::GeoFeedSpec spec;
  spec.seed = seed;
  spec.ouis = {static_cast<std::uint32_t>(kFleetOui),
               static_cast<std::uint32_t>(kAlienOui)};
  spec.devices_per_oui = 200;
  spec.first_day = 0;
  spec.last_day = 10;
  const sim::GeoFeedGenerator generator{spec};
  const std::string path = dir.file("feed_" + std::to_string(seed) + ".gfd");
  corpus::GeoFeedWriter writer{block_elements};
  EXPECT_TRUE(writer.open(path));
  for (std::uint64_t i = 0; i < generator.records(); ++i) {
    writer.append(generator.record(i));
  }
  EXPECT_TRUE(writer.finish());
  return path;
}

// ---------------------------------------------------------------------------

Layer& Form::add(std::string name) {
  layers.push_back(Layer{std::move(name), {}});
  return layers.back();
}

const Layer* Form::find(const std::string& name) const {
  for (const Layer& layer : layers) {
    if (layer.name == name) return &layer;
  }
  return nullptr;
}

::testing::AssertionResult same(const Form& want, const Form& got,
                                const std::vector<std::string>& skip) {
  const auto skipped = [&](const std::string& name) {
    return std::any_of(skip.begin(), skip.end(), [&](const std::string& s) {
      return name.starts_with(s);
    });
  };
  for (const Layer& w : want.layers) {
    if (skipped(w.name)) continue;
    const Layer* g = got.find(w.name);
    if (g == nullptr) {
      return ::testing::AssertionFailure()
             << "layer " << w.name << " (" << w.rows.size()
             << " rows) is missing";
    }
    for (std::size_t i = 0; i < std::max(w.rows.size(), g->rows.size());
         ++i) {
      const bool in_w = i < w.rows.size();
      const bool in_g = i < g->rows.size();
      if (in_w && in_g && w.rows[i] == g->rows[i]) continue;
      return ::testing::AssertionFailure()
             << "layer " << w.name << " row " << i << " (" << w.rows.size()
             << " rows vs " << g->rows.size() << ")\n  want: "
             << (in_w ? w.rows[i] : "<no row>")
             << "\n  got:  " << (in_g ? g->rows[i] : "<no row>");
    }
  }
  for (const Layer& g : got.layers) {
    if (!skipped(g.name) && want.find(g.name) == nullptr) {
      return ::testing::AssertionFailure()
             << "layer " << g.name << " is not in the reference form";
    }
  }
  return ::testing::AssertionSuccess();
}

namespace {

void add_table(Form& form, const std::string& prefix,
               const analysis::AggregateTable& table) {
  push(form.add(prefix + ".totals").rows, "rows_scanned", table.rows_scanned,
       "eui_rows", table.eui_rows, "failed_files", table.failed_files);
  Layer& devices = form.add(prefix + ".devices");
  for (const auto& [mac, d] : table.devices) {
    std::string r = row(mac, d.oui, d.observations, d.target_lo, d.target_hi,
                        d.response_lo, d.response_hi, d.first_day, d.last_day,
                        d.day_bits, "per_as");
    for (const analysis::PerAsSpan& s : d.per_as) {
      // A DaySet is canonical (equal sets are equal bytes), so its first
      // day and its members in stored order pin it.
      r += ' ' + row("{", s.asn,
                     s.ad == nullptr ? std::string{"unrouted"}
                                     : row(s.ad->prefix, s.ad->origin_asn),
                     s.target_lo, s.target_hi, s.response_lo, s.response_hi,
                     s.observations, "days",
                     s.days.empty() ? 0 : s.days.first());
      for (const std::int64_t day : s.days.values()) r += ' ' + row(day);
      r += " }";
    }
    r += " sightings";
    for (const core::Sighting& s : d.sightings) {
      r += ' ' + row(s.day, s.network);
    }
    devices.rows.push_back(r);
  }
  Layer& rollups = form.add(prefix + ".rollups");
  for (const analysis::AsRollup& a : table.as_rollups) {
    push(rollups.rows, a.asn, a.country, a.as_name, a.observations, a.devices);
  }
  for (std::size_t w = 0; w < table.window_snapshots.size(); ++w) {
    add_map(form, prefix + ".window" + std::to_string(w),
            table.window_snapshots[w]);
  }
}

}  // namespace

Form table_form(const analysis::AggregateTable& table) {
  Form form;
  add_table(form, "table", table);
  return form;
}

Form campaign_form(const core::CampaignResult& result) {
  Form form;
  add_campaign(form, result);
  return form;
}

std::string describe(const Path& p) {
  static constexpr const char* kVia[] = {"live",  "store", "chain",
                                         "serve", "fresh", "rowscan",
                                         "join",  "naive", "trace"};
  std::string out = row(kVia[static_cast<int>(p.via)], "threads", p.threads,
                        "checkpoint", p.checkpoint, "serve", p.serve,
                        "kill_after", p.kill_after, "mid_day", p.mid_day,
                        "killed_threads", p.killed_threads, "from_files",
                        p.from_files, "partitions", p.partitions, "block",
                        p.block, "cuts");
  for (const std::size_t cut : p.cuts) out += ' ' + row(cut);
  return out;
}

// ---------------------------------------------------------------------------

Lattice::Lattice(World world)
    : world_(std::move(world)), bgp_(synthetic_bgp()) {
  // A grid pool is PipelineProperty's world: no path here runs on it (the
  // live path's targets are the tiny world's /48s).
  if (world_.kind == Kind::kPool) {
    ADD_FAILURE() << "no lattice path runs a kPool world";
    return;
  }
  if (world_.kind != Kind::kFleet) {
    if (world_.kind >= Kind::kPaperRows) rows_ = make_rows(world_);
    return;
  }
  // Devices draw serials from a small pool (so MACs repeat across days),
  // answer from daily-rotated /64s and sit behind either provider — some
  // behind both across the campaign. Half the serials overlap the feed.
  dir_ = std::make_unique<TempDir>("fleet");
  sim::Rng rng{world_.seed};
  for (std::size_t day = 0; day < world_.days; ++day) {
    core::ObservationStore store;
    for (std::size_t i = 0; i < world_.rows; ++i) {
      const std::uint64_t serial = rng.below(400);
      const std::uint64_t base =
          rng.chance(0.25) ? 0x2001486000000000ULL : 0x20010db800000000ULL;
      const std::uint64_t network =
          base | (sim::mix64(serial, day) & 0xffffff) << 8;
      const net::MacAddress mac{(kFleetOui << 24) | serial};
      store.add(core::Observation{
          net::Ipv6Address{network, 1},
          net::Ipv6Address{network, net::mac_to_eui64(mac)},
          wire::Icmpv6Type::kEchoReply, 0,
          static_cast<sim::TimePoint>(day * 86400000000ULL + i)});
    }
    const std::string tag = "day" + std::to_string(day);
    fleet_.push_back({write_chain(store, {0, store.size()}, *dir_, tag)[0],
                      static_cast<std::int64_t>(day)});
  }
  feed_ = write_feed(*dir_, world_.seed, world_.feed_block);
}

Form Lattice::run(const Path& path) const {
  switch (path.via) {
    case Via::kLive:
      return run_live(path);
    case Via::kJoin:
    case Via::kNaive:
      return run_join(path);
    case Via::kTrace:
      return run_trace(path);
    default:
      return run_rows(path);
  }
}

Form Lattice::check(const Path& reference,
                    const std::vector<Path>& paths) const {
  Form want = run(reference);
  for (const Path& path : paths) {
    EXPECT_TRUE(same(want, run(path)))
        << describe(path) << "\n  against " << describe(reference);
  }
  return want;
}

Form Lattice::run_live(const Path& path) const {
  const std::size_t days = world_.days;
  const unsigned killed_threads =
      path.killed_threads == 0 ? path.threads : path.killed_threads;
  const TempDir dir{"live"};
  const bool chain = path.checkpoint || path.kill_after != 0;
  Form before_replay;

  if (path.kill_after != 0) {
    Process first{world_, killed_threads};
    const auto table =
        serve_table(path.serve, first.world.internet.bgp(), killed_threads);
    if (path.mid_day) {
      // The absolute day index depends on how far the funnel advanced the
      // clock; abort relative to the first day seen.
      struct MidDayAbort {};
      std::int64_t first_day = -1;
      const auto kill = static_cast<std::int64_t>(path.kill_after);
      const auto abort_mid_day = [&](std::int64_t day, std::size_t rows) {
        if (first_day < 0) first_day = day;
        if (day >= first_day + kill && rows > 0) throw MidDayAbort{};
      };
      EXPECT_THROW((void)first.campaign(days, killed_threads, dir.path,
                                        table.get(), abort_mid_day),
                   MidDayAbort);
      // Committed days survive; the swept but uncommitted day leaves no
      // trace, and a served table stays on the last committed version.
      EXPECT_TRUE(fs::exists(
          dir.file(corpus::snapshot_file_name(path.kill_after - 1))));
      EXPECT_FALSE(
          fs::exists(dir.file(corpus::snapshot_file_name(path.kill_after))));
      if (const auto version = table ? table->current() : nullptr) {
        EXPECT_EQ(version->version, path.kill_after);
        EXPECT_EQ(version->day, first_day + kill - 1);
      }
    } else {
      (void)first.campaign(path.kill_after, killed_threads, dir.path,
                           table.get());
    }
    if (table) {
      EXPECT_EQ(table->versions_published(), path.kill_after);
    }
    if (path.kill_after >= days) add_chain(before_replay, dir.path);
  }

  Process last{world_, path.threads};
  const auto table =
      serve_table(path.serve, last.world.internet.bgp(), path.threads);
  const std::uint64_t sent_before = last.prober.counters().sent;
  const core::CampaignResult result = last.campaign(
      days, path.threads, chain ? dir.path : std::string{}, table.get());

  Form form;
  if (has_funnel(world_.kind)) add_bootstrap(form, last.boot);
  add_campaign(form, result);
  push(form.add("clock").rows, last.clock.now());
  if (path.checkpoint) add_chain(form, dir.path);
  form.facts["rotating_48s"] = last.boot.rotating_48s.size();
  form.facts["rows"] = result.observations.size();

  EXPECT_EQ(result.resumed_days, std::min(path.kill_after, days));
  EXPECT_TRUE(result.checkpoint_ok);
  if (path.kill_after >= days) {
    // A pure replay never goes on the wire, and a reader of a longer chain
    // never writes it.
    EXPECT_EQ(last.prober.counters().sent, sent_before);
    Form after;
    add_chain(after, dir.path);
    EXPECT_TRUE(same(before_replay, after)) << "the replay rewrote the chain";
  }
  if (const auto version = table ? table->current() : nullptr) {
    // Replayed days publish versions too, and the maintained table is
    // what a fresh rebuild of the campaign's corpus gives.
    EXPECT_EQ(table->versions_published(), days);
    EXPECT_TRUE(same(table_form(analysis::analyze(
                         result.observations, &last.world.internet.bgp())),
                     table_form(version->table)))
        << "served table vs fresh rebuild";
    add_served(form, "serve", *version);
  } else {
    EXPECT_FALSE(table) << "no served version";
  }
  return form;
}

Form Lattice::run_rows(const Path& path) const {
  const core::ObservationStore& store = rows_.store;
  const std::vector<std::size_t>& day_begin = rows_.day_begin;
  const TempDir dir{"rows"};
  Form form;
  analysis::AnalysisOptions options;
  options.threads = path.threads;
  options.windows = world_.windows;
  const bool windows_only = world_.kind == Kind::kWindowRows;
  options.attribute = !windows_only;
  options.collect_sightings = !windows_only;

  const auto analyze_into = [&](const analysis::AnalysisInput& input) {
    if (windows_only) {
      const analysis::FusedScan scan =
          analysis::scan_fused(input, nullptr, options);
      for (std::size_t w = 0; w < scan.windows.size(); ++w) {
        add_map(form, "table.window" + std::to_string(w), scan.windows[w]);
      }
      return;
    }
    const analysis::AggregateTable table =
        analysis::analyze(input, &bgp_, options);
    add_table(form, "table", table);
    form.facts["devices"] = table.devices.size();
    form.facts["rollups"] = table.as_rollups.size();
    // Derived reports are functions of the table; render them anyway so a
    // table-equal but derive-order bug cannot hide.
    Layer& derived = form.add("derived");
    for (const auto& [asn, len] : analysis::allocation_medians_by_as(table)) {
      push(derived.rows, "median", asn, len);
    }
    for (const unsigned length : analysis::allocation_lengths(table)) {
      push(derived.rows, "allocation", length);
    }
    for (const unsigned length : analysis::pool_lengths(table)) {
      push(derived.rows, "pool", length);
    }
  };

  switch (path.via) {
    case Via::kStore:
      analyze_into(analysis::StoreInput{store});
      break;
    case Via::kChain: {
      const analysis::ChainInput chain{write_chain(store, path.cuts, dir, "c")};
      EXPECT_EQ(chain.rows(), store.size());
      analyze_into(chain);
      break;
    }
    case Via::kRowScan:
      for (std::size_t w = 0; w < world_.windows.size(); ++w) {
        core::Snapshot snapshot;
        for (std::size_t i = world_.windows[w].begin;
             i < std::min(world_.windows[w].end, store.size()); ++i) {
          snapshot.record(store.target(i), store.response(i));
        }
        EXPECT_GT(snapshot.map().size(), 0u);
        add_map(form, "table.window" + std::to_string(w), snapshot);
      }
      break;
    case Via::kServe: {
      serve::ServeTable table{
          serve::ServeOptions{.threads = path.threads, .bgp = &bgp_}};
      const std::vector<std::string> files =
          path.from_files ? write_chain(store, day_begin, dir, "day")
                          : std::vector<std::string>{};
      for (std::size_t d = 0; d + 1 < day_begin.size(); ++d) {
        const auto day = static_cast<std::int64_t>(d);
        if (path.from_files) {
          table.apply(analysis::ChainInput{{files[d]}}, day);
        } else {
          table.apply(
              analysis::StoreInput{store, day_begin[d], day_begin[d + 1]},
              day);
        }
        add_served(form, "day" + std::to_string(d), *table.current());
      }
      break;
    }
    case Via::kFresh: {
      // The serve contract: version d + 1 is a fresh serial rebuild over
      // days [0, d], stamped day d with the day's own rows as its delta.
      serve::TableVersion version;
      for (std::size_t d = 0; d + 1 < day_begin.size(); ++d) {
        version.table = analysis::analyze(
            analysis::StoreInput{store, 0, day_begin[d + 1]}, &bgp_);
        version.version = d + 1;
        version.day = static_cast<std::int64_t>(d);
        version.delta_rows = day_begin[d + 1] - day_begin[d];
        add_served(form, "day" + std::to_string(d), version);
      }
      break;
    }
    default:
      ADD_FAILURE() << describe(path) << " does not run on a row world";
  }
  return form;
}

Form Lattice::run_join(const Path& path) const {
  Form form;
  std::optional<analysis::DossierTable> table;
  if (path.via == Via::kNaive) {
    table = join::naive_join({.corpus_files = fleet_,
                              .geo_feeds = {feed_},
                              .window = path.window,
                              .bgp = &bgp_});
  } else {
    const TempDir spill{"spill"};
    join::DossierJoin engine{{.threads = path.threads,
                              .partitions = path.partitions,
                              .spill_dir = spill.file("runs"),
                              .spill_block_elements = path.block,
                              .window = path.window,
                              .bgp = &bgp_}};
    for (const join::CorpusDayFile& file : fleet_) {
      engine.add_corpus_day(file.path, file.day);
    }
    engine.add_geo_feed(feed_);
    table = engine.run_table();
    const join::JoinStats& stats = engine.stats();
    form.facts["corpus_files_pruned"] = stats.corpus_files_pruned;
    form.facts["blocks_pruned"] = stats.blocks_pruned;
    form.facts["spill_bytes"] = stats.spill_bytes;
    form.facts["spill_runs"] = stats.spill_runs;
    EXPECT_EQ(stats.dossiers, table ? table->size() : 0) << describe(path);
  }
  if (table) {
    add_dossiers(form, *table);
  } else {
    ADD_FAILURE() << describe(path) << " failed";
  }
  return form;
}

Form Lattice::run_trace(const Path& path) const {
  // Twelve units of 256 probes over four /48s; 12 units x 2 events (+1
  // counter each) fit any shard's ring, and the contract only holds for
  // drop-free captures.
  sim::PaperWorld world = make_sim(world_);
  const std::vector<net::Prefix> p48s = pool_48s(world, 4);
  std::vector<engine::SweepUnit> units;
  for (std::uint64_t i = 0; i < 12; ++i) {
    units.push_back({p48s[i % 4], 56, 0x7ACE + i});
  }
  telemetry::TraceCollector collector{1 << 10};
  telemetry::Registry registry;
  registry.attach_trace(&collector);
  engine::SweepOptions options;
  options.threads = path.threads;
  options.registry = &registry;
  sim::VirtualClock clock{sim::hours(12)};
  core::ObservationStore store;
  core::sweep_into_store(world.internet, clock, units,
                         {.packets_per_second = 1000000, .wire_mode = false},
                         options, store);
  EXPECT_GT(store.size(), 0u);
  EXPECT_EQ(collector.total_dropped(), 0u);

  // Everything but wall_ns, lane by lane in shard drain order.
  Form form;
  for (const char* lanes : {"sweep shard", "ingest shard"}) {
    Layer& layer = form.add(std::string{"trace."} + lanes);
    for (const auto& lane : collector.lanes()) {
      if (lane.name.rfind(lanes, 0) != 0) continue;
      for (const auto& e : lane.events) {
        push(layer.rows, e.name, static_cast<int>(e.type), e.virtual_us,
             e.value);
      }
    }
  }
  return form;
}

}  // namespace scent::lattice
