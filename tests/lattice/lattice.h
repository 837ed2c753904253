// lattice.h - one differential harness for the invariant lattice.
//
// Every figure and table is computed from a corpus that must come out the
// same however it was produced: serial ≡ parallel ≡ store ≡ chain ≡
// resumed ≡ incremental, plus the join's fan-out. The harness states that
// lattice as data:
//
//   * a World: seed plus generator parameters (a simulated Internet, a
//     synthetic row corpus, a join fleet, or a PipelineProperty grid pool);
//   * a list of Paths: how the world is run (threads, store or snapshot
//     chain, killed and resumed, served as deltas, joined);
//   * one comparison: each path runs to a canonical per-layer Form, and
//     every path's form must equal the reference path's, layer by layer,
//     row by row. A mismatch names the layer, the row index and both rows.
//
// A new world is one more World::Kind and its generator in lattice.cpp; a
// new path is one more Via (or Path field) and its branch in Lattice::run.
// Every test then crosses it with the worlds and paths it already lists.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/engine.h"
#include "core/bootstrap.h"
#include "core/campaign.h"
#include "core/observation.h"
#include "corpus/keyed_run.h"
#include "join/source.h"
#include "netbase/prefix.h"
#include "probe/prober.h"
#include "routing/bgp_table.h"
#include "serve/serve_table.h"
#include "sim/scenario.h"
#include "sim/sim_time.h"
#include "test_util.h"

namespace scent::lattice {

using test::kTsan;
using test::TempDir;
using test::tsan_or;

// ---------------------------------------------------------------------------
// Worlds

/// One PipelineProperty grid pool: a single provider whose every device
/// answers with EUI-64 from one pool of this shape.
struct PoolShape {
  unsigned pool_length;
  unsigned allocation_length;
  sim::RotationPolicy::Kind kind;
  sim::Placement placement;
};

/// Prints a shape as its test-name text, e.g. "Pool46Alloc56StrideContig".
/// gtest would otherwise print a parameter as a byte dump that includes the
/// struct's uninitialised padding, so the ctest names would change between
/// builds.
void PrintTo(const PoolShape& shape, std::ostream* os);

enum class Kind {
  kPaper,       ///< make_paper_world, scaled down; funnel-found targets.
  kChurn,       ///< A stride rotator and a static allocator with service
                ///< churn; funnel-found targets.
  kTiny,        ///< make_tiny_world; targets four /48s of its rotating pool.
  kPool,        ///< One PipelineProperty grid world (`pool`); make_sim
                ///< builds it, a Lattice rejects it.
  kPaperRows,   ///< Synthetic rows: 40 devices, each pinned to one AS.
  kChurnRows,   ///< ... a third roam ASes; privacy and unrouted replies.
  kDayRows,     ///< `days` day-ordered deltas; a quarter of 48 devices
                ///< roam; privacy and unrouted replies.
  kWindowRows,  ///< Repeated targets whose EUI replies change.
  kFleet,       ///< One snapshot per day of a 400-serial fleet behind two
                ///< providers, and a geo feed overlapping half of it.
};

struct World {
  Kind kind = Kind::kTiny;
  std::uint64_t seed = 0;
  std::size_t days = 0;      ///< Campaign days, day deltas or day files.
  std::size_t rows = 0;      ///< Rows per day (kDayRows, kFleet) or in all.
  std::size_t devices = 48;  ///< kTiny: devices per pool.
  std::size_t feed_block = 64;  ///< kFleet: records per geo-feed block.
  /// Row windows every analysis path snapshots (AnalysisOptions::windows).
  std::vector<analysis::RowWindow> windows = {};
  PoolShape pool{};
};

/// The announcements every synthetic world attributes against: nested
/// prefixes (a /40 inside a /32) and unannounced space, so attribution hits
/// the cached, more-specific and null paths.
[[nodiscard]] routing::BgpTable synthetic_bgp();

/// A fresh simulated Internet (kPaper, kChurn, kTiny, kPool). Equivalence
/// must hold between independently built worlds, so every run builds one.
[[nodiscard]] sim::PaperWorld make_sim(const World& world);

/// `count` /48 sweep units of the tiny world's first rotating pool.
[[nodiscard]] std::vector<net::Prefix> pool_48s(const sim::PaperWorld& world,
                                                std::size_t count);

/// One process of a live campaign over a simulated world (kPaper, kChurn,
/// kTiny): its own world, clock and prober. Funnel worlds run the §4
/// funnel to choose the targets (seed ^ 0xF00D, campaign seed ^ 0xCA3B);
/// the tiny world takes four /48s of its rotating pool.
struct Process {
  Process(const World& world, unsigned threads);
  Process(const Process&) = delete;  // the prober holds world and clock
  Process& operator=(const Process&) = delete;

  [[nodiscard]] core::CampaignResult campaign(
      std::size_t days, unsigned threads, const std::string& chain,
      serve::ServeTable* serve = nullptr,
      std::function<void(std::int64_t, std::size_t)> on_day_progress = {});

  World spec;
  sim::PaperWorld world;
  sim::VirtualClock clock{sim::hours(10)};
  probe::Prober prober;
  core::BootstrapResult boot;
  std::vector<net::Prefix> targets;
};

/// A synthetic corpus (k*Rows) and where each day delta begins.
struct Rows {
  core::ObservationStore store;
  std::vector<std::size_t> day_begin;  ///< day d = [day_begin[d], [d+1]).
};
[[nodiscard]] Rows make_rows(const World& world);

/// Appends day `day` of a kDayRows world to `store`. Days must arrive in
/// ascending order: the serve contract, like the engine's shard merge, is
/// that later rows arrive after earlier ones.
void append_day(core::ObservationStore& store, std::uint64_t seed,
                std::int64_t day, std::size_t rows);

/// Writes rows [cuts[i], cuts[i+1]) of `store` as one snapshot each.
[[nodiscard]] std::vector<std::string> write_chain(
    const core::ObservationStore& store, const std::vector<std::size_t>& cuts,
    const TempDir& dir, const std::string& tag);

/// A geo feed over serials [0, 200) of the fleet OUI and 200 serials of an
/// OUI the corpus never sees.
[[nodiscard]] std::string write_feed(const TempDir& dir, std::uint64_t seed,
                                     std::size_t block_elements = 64);

// ---------------------------------------------------------------------------
// Forms

/// Rendered rows packed into one buffer: a corpus layer holds 10^5 rows,
/// and one allocation per row would dominate a comparison.
class RowList {
 public:
  void push_back(std::string_view row) {
    text_ += row;
    end_row();
  }
  /// Or append a row's text to text() directly, then end_row().
  [[nodiscard]] std::string& text() noexcept { return text_; }
  void end_row() { ends_.push_back(text_.size()); }

  [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ends_.empty(); }
  [[nodiscard]] std::string_view operator[](std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view{text_}.substr(begin, ends_[i] - begin);
  }

 private:
  std::string text_;
  std::vector<std::size_t> ends_;
};

/// One layer of a canonical form: rows of rendered values, in the order the
/// layer defines (corpus order, MAC first-sighting order, ascending ASN...).
struct Layer {
  std::string name;
  RowList rows;
};

struct Form {
  std::vector<Layer> layers;
  /// Path-dependent facts (rows resumed, probes sent, join stats) that are
  /// not compared but that tests may assert on.
  std::map<std::string, std::uint64_t> facts;

  Layer& add(std::string name);
  [[nodiscard]] const Layer* find(const std::string& name) const;
};

/// `got` must hold exactly `want`'s layers, each with equal rows. Layers
/// whose names start with an entry of `skip` are left out on both sides,
/// for forms that differ in a layer on purpose (only a checkpointed run has
/// `chain.` layers). The failure names the first mismatching layer and row
/// and prints both rows, or names a layer that only one side has.
[[nodiscard]] ::testing::AssertionResult same(
    const Form& want, const Form& got,
    const std::vector<std::string>& skip = {});

/// A form holding `table`'s layers: totals, devices (every span, per-AS
/// sub-aggregate, day set and sighting), AS roll-ups, window snapshots.
[[nodiscard]] Form table_form(const analysis::AggregateTable& table);

/// A form holding a campaign result's layers: the daily funnel and totals,
/// the allocation inference, and the corpus with its store counters.
[[nodiscard]] Form campaign_form(const core::CampaignResult& result);

// ---------------------------------------------------------------------------
// Paths

enum class Via {
  kLive,     ///< Simulated: funnel (kPaper, kChurn), then the campaign.
  kStore,    ///< Rows: fused analysis of the in-memory store.
  kChain,    ///< Rows: fused analysis of a snapshot chain (ChainInput).
  kServe,    ///< Rows: one ServeTable delta per day; every version kept.
  kFresh,    ///< Rows: a fresh serial rebuild of every day's prefix.
  kRowScan,  ///< kWindowRows: row-by-row core::Snapshot records.
  kJoin,     ///< kFleet: the partitioned, spilling DossierJoin.
  kNaive,    ///< kFleet: naive_join, the hash-join oracle.
  kTrace,    ///< kTiny: a traced 12-unit sweep's virtual event streams.
};

struct Path {
  Via via = Via::kLive;
  unsigned threads = 1;  ///< 0 = hardware concurrency.

  // kLive
  bool checkpoint = false;  ///< Write a checkpoint chain; its bytes join
                            ///< the form.
  bool serve = false;       ///< Maintain a ServeTable; its last version
                            ///< joins the form.
  /// A first process runs only this many days against the same chain
  /// (0 = none); this run resumes from it. More days than the world's make
  /// this run a pure replay of a longer chain.
  std::size_t kill_after = 0;
  /// The first process instead dies inside day kill_after + 1, after rows
  /// arrive but before the day commits.
  bool mid_day = false;
  unsigned killed_threads = 0;  ///< The first process's threads (0 = same).

  // kChain: file boundaries. kServe: deltas come from per-day snapshot
  // files instead of store rows when set.
  std::vector<std::size_t> cuts = {};
  bool from_files = false;

  // kJoin / kNaive
  unsigned partitions = 16;
  std::size_t block = corpus::kKeyedRunBlockElements;
  join::DayWindow window = {};
};

[[nodiscard]] std::string describe(const Path& path);

/// One world, materialized once (synthetic rows, fleet files), run along
/// any number of paths.
class Lattice {
 public:
  explicit Lattice(World world);

  [[nodiscard]] Form run(const Path& path) const;

  /// Runs `reference` once, then every path; each path's form must equal
  /// the reference's. Returns the reference form.
  Form check(const Path& reference, const std::vector<Path>& paths) const;

  /// kFleet: the day files, in registration order, and the feed.
  [[nodiscard]] const std::vector<join::CorpusDayFile>& fleet() const noexcept {
    return fleet_;
  }
  [[nodiscard]] const std::string& feed() const noexcept { return feed_; }

 private:
  [[nodiscard]] Form run_live(const Path& path) const;
  [[nodiscard]] Form run_rows(const Path& path) const;
  [[nodiscard]] Form run_join(const Path& path) const;
  [[nodiscard]] Form run_trace(const Path& path) const;

  World world_;
  routing::BgpTable bgp_;
  Rows rows_;
  std::unique_ptr<TempDir> dir_;
  std::vector<join::CorpusDayFile> fleet_;
  std::string feed_;
};

}  // namespace scent::lattice
