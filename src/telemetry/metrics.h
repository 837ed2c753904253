// metrics.h - the scent metrics registry: named counters, gauges and
// quantile sketches, plus the span path tree telemetry::Span records into.
//
// Design constraints, in order:
//   1. The probe hot path (fast mode runs millions of probe_one calls per
//      wall second) must pay at most a cached-pointer increment per event.
//      Instruments therefore have stable addresses — callers look a metric
//      up once by name and keep the pointer — and an update is one relaxed
//      atomic add. No locks.
//   2. Counter and gauge cells are relaxed atomics so the engine's shard
//      workers may share one registry (every shard bumping probe.sent)
//      without data races; sketches and spans stay single-writer (they
//      belong to stage drivers or to one shard, and fold together at the
//      deterministic merge points). Instrument *creation* is not thread
//      safe — create before the workers start, or give each shard its own
//      registry and merge_counters_from() after the join.
//   3. A registry pointer of nullptr disables everything: every
//      instrumentation site null-checks, so un-instrumented library users
//      pay one predictable branch.
//   4. The registry is the one telemetry handle a layer takes. The run's
//      other two sinks hang off it: an event Journal and a TraceCollector,
//      each attached at most once. A layer reaches them through the
//      registry it was given (trace_of, journal_event), so no options
//      struct carries a second or third sink pointer.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sim_time.h"

namespace scent::telemetry {

class Journal;
class TraceCollector;

/// Monotonically increasing event count (probes sent, tracker hits, ...).
/// Updates and reads are relaxed atomics: concurrent increments never lose
/// counts, but readers racing with writers see a momentary snapshot.
class Counter {
 public:
  void inc() noexcept { add(1); }

  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins signed level (funnel stage sizes, config knobs).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }

  void set_u64(std::uint64_t v) noexcept { set(static_cast<std::int64_t>(v)); }

  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Mergeable log-bucketed quantile sketch — the one distribution type.
/// It is the HDR-histogram idea reduced to what the data plane needs:
///
///   * Bucket layout is fixed a priori (values 0..31 exact, then 16
///     sub-buckets per power of two), so every sketch in the process
///     shares the same geometry and merging is pure bucket-wise addition.
///   * Addition is commutative and associative, so shard-local sketches
///     merged in shard order are bit-identical to a serial run at ANY
///     thread count — the same determinism contract the engine's shard
///     merge guarantees for the corpus (DESIGN §5d/§5c).
///   * quantile() walks the cumulative counts and returns the bucket's
///     integer midpoint clamped to the observed [min, max]; relative error
///     is bounded by half a bucket width, ≤ 1/32 ≈ 3.2%.
///
/// Single-writer: a sketch belongs to one shard or one stage driver;
/// cross-thread aggregation happens by merge_from() at the deterministic
/// merge points, never by concurrent observe().
class QuantileSketch {
 public:
  /// Sub-bucket resolution: 2^kSubBits exact small values, then
  /// kSubHalf sub-buckets per octave.
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSubCount = std::uint64_t{1} << kSubBits;
  static constexpr std::uint64_t kSubHalf = kSubCount / 2;
  /// 32 exact buckets + 59 octaves (bit widths 6..64) x 16 sub-buckets.
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kSubCount) + (64 - kSubBits) * kSubHalf;
  /// Worst-case relative error of quantile(): half a bucket width over the
  /// bucket's lower bound, 2^(s-1) / (kSubHalf * 2^s).
  static constexpr double kRelativeError =
      1.0 / static_cast<double>(2 * kSubHalf);

  /// Bucket index for a sample value. Exact below kSubCount; above, the
  /// top kSubBits bits of the value select a sub-bucket within its octave.
  [[nodiscard]] static constexpr std::size_t index_for(
      std::uint64_t v) noexcept {
    if (v < kSubCount) return static_cast<std::size_t>(v);
    const unsigned width = static_cast<unsigned>(std::bit_width(v));
    const unsigned shift = width - kSubBits;  // >= 1
    const std::uint64_t sub = v >> shift;     // in [kSubHalf, kSubCount)
    return static_cast<std::size_t>(kSubCount +
                                    (width - kSubBits - 1) * kSubHalf +
                                    (sub - kSubHalf));
  }

  /// Smallest value mapping to bucket `i`.
  [[nodiscard]] static constexpr std::uint64_t lower_bound_for(
      std::size_t i) noexcept {
    if (i < kSubCount) return i;
    const std::size_t off = i - kSubCount;
    const unsigned shift = static_cast<unsigned>(off / kSubHalf) + 1;
    const std::uint64_t sub = kSubHalf + off % kSubHalf;
    return sub << shift;
  }

  /// Deterministic integer representative (bucket midpoint) for bucket `i`.
  [[nodiscard]] static constexpr std::uint64_t representative_for(
      std::size_t i) noexcept {
    if (i < kSubCount) return i;
    const unsigned shift = static_cast<unsigned>((i - kSubCount) / kSubHalf) + 1;
    return lower_bound_for(i) + (std::uint64_t{1} << (shift - 1));
  }

  void observe(std::uint64_t v) noexcept {
    ++counts_[index_for(v)];
    sum_ += v;
    if (count_ == 0 || v < min_) min_ = v;
    if (count_ == 0 || v > max_) max_ = v;
    ++count_;
  }

  /// Bucket-wise addition. Commutative and associative: any merge tree
  /// over the same multiset of samples yields identical state.
  void merge_from(const QuantileSketch& other) noexcept {
    if (other.count_ == 0) return;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      counts_[i] += other.counts_[i];
    }
    sum_ += other.sum_;
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (count_ == 0 || other.max_ > max_) max_ = other.max_;
    count_ += other.count_;
  }

  /// Value at quantile q in [0, 1]: walks cumulative bucket counts to the
  /// 1-based rank floor(q * count) + 1 (capped at count), returns that
  /// bucket's midpoint clamped to the exact observed [min, max]. So p50 of
  /// {1, 100} is 100: rank floor(0.5 * 2) + 1 = 2. Deterministic for
  /// identical state.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    if (count_ == 0) return 0;
    if (q <= 0.0) return min_;
    if (q >= 1.0) return max_;
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count_)) + 1;
    if (rank > count_) rank = count_;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      cumulative += counts_[i];
      if (cumulative >= rank) {
        std::uint64_t r = representative_for(i);
        if (r < min_) r = min_;
        if (r > max_) r = max_;
        return r;
      }
    }
    return max_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0
               ? 0.0
               : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  void reset() noexcept { *this = QuantileSketch{}; }

  /// Full-state equality — the determinism tests' "bit-identical" check.
  [[nodiscard]] bool operator==(const QuantileSketch&) const = default;

 private:
  std::array<std::uint64_t, kBucketCount> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Aggregated statistics for one span path ("campaign/day/sweep").
struct SpanStats {
  QuantileSketch wall_ns;       ///< Per-call wall durations (count = calls).
  std::int64_t virtual_us = 0;  ///< Total sim::VirtualClock time.
  unsigned depth = 0;           ///< Nesting depth (0 = root).
  std::uint64_t first_seq = 0;  ///< Creation order, for report sorting.

  [[nodiscard]] std::uint64_t count() const noexcept {
    return wall_ns.count();
  }

  void record(std::uint64_t wall, std::int64_t virtual_elapsed) noexcept {
    wall_ns.observe(wall);
    virtual_us += virtual_elapsed;
  }

  /// Folds a shard-local slot in; sketch addition keeps it order-free.
  void merge_from(const SpanStats& other) noexcept {
    wall_ns.merge_from(other.wall_ns);
    virtual_us += other.virtual_us;
  }
};

/// The named-instrument registry. Instruments are created on first lookup
/// and live as long as the registry; returned references stay valid (the
/// backing maps are node-based).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name) {
    return counters_.try_emplace(std::string{name}).first->second;
  }
  Gauge& gauge(std::string_view name) {
    return gauges_.try_emplace(std::string{name}).first->second;
  }
  /// Distribution of any non-negative quantity (path lengths, churn
  /// percentages, probes per attempt). Single-writer.
  QuantileSketch& sketch(std::string_view name) {
    return sketches_.try_emplace(std::string{name}).first->second;
  }

  [[nodiscard]] const Counter* find_counter(std::string_view name) const {
    const auto it = counters_.find(std::string{name});
    return it == counters_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const {
    const auto it = gauges_.find(std::string{name});
    return it == gauges_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const QuantileSketch* find_sketch(
      std::string_view name) const {
    const auto it = sketches_.find(std::string{name});
    return it == sketches_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, QuantileSketch>& sketches()
      const noexcept {
    return sketches_;
  }
  [[nodiscard]] const std::map<std::string, SpanStats>& spans() const noexcept {
    return spans_;
  }

  /// The run's event journal (optional; null detaches). Attaching binds
  /// the journal's drop counter to this registry's "journal.dropped", so
  /// events lost to a full disk show up in every summary; reset() keeps
  /// that binding. The journal must not write after the registry is gone.
  void attach_journal(Journal* journal);
  [[nodiscard]] Journal* journal() const noexcept { return journal_; }

  /// The run's trace collector (optional; null detaches). Instrumented
  /// layers drain their flight-recorder rings into it as named lanes.
  void attach_trace(TraceCollector* trace) noexcept { trace_ = trace; }
  [[nodiscard]] TraceCollector* trace() const noexcept { return trace_; }

  /// Virtual clock consulted by Span for sim-time durations (optional).
  void set_clock(const sim::VirtualClock* clock) noexcept { clock_ = clock; }
  [[nodiscard]] const sim::VirtualClock* clock() const noexcept {
    return clock_;
  }

  /// Span bookkeeping — called by telemetry::Span, not user code. Paths
  /// nest by the currently open spans: begin("seed") under an open
  /// "bootstrap" span aggregates under "bootstrap/seed". A name "L.stage"
  /// drops its "L." while a span named exactly "L" is open, so the ring
  /// event "campaign.sweep" aggregates at "campaign/day/sweep". Returns
  /// the path's stable slot.
  SpanStats* span_begin(std::string_view name) {
    std::string path = child_path(name);
    SpanStats* slot = &slot_for(path);
    open_.push_back({std::move(path), std::string{name}});
    return slot;
  }

  void span_end() {
    if (!open_.empty()) open_.pop_back();
  }

  /// The slot `name` would aggregate into if opened now, without opening
  /// it: the merge point for shard-local slots, which fold in under
  /// whatever span the driver has open.
  SpanStats& span_child(std::string_view name) {
    return slot_for(child_path(name));
  }

  /// Folds another registry's counters into this one (created on demand,
  /// added by value). This is the engine's shard-merge primitive: each
  /// worker accumulates into a shard-local registry, and the driver folds
  /// them into the campaign registry after the join — so the hot path
  /// never crosses shard cache lines. Gauges, sketches and spans are
  /// deliberately not merged here: their shard-local forms fold in at the
  /// layer's own merge point (span_child, QuantileSketch::merge_from).
  void merge_counters_from(const Registry& other) {
    for (const auto& [name, other_counter] : other.counters_) {
      counter(name).add(other_counter.value());
    }
  }

  /// Drops every instrument and span record. The clock, journal and trace
  /// bindings are kept; the journal's drop counter is rebound to the new
  /// "journal.dropped", never left pointing at the destroyed one.
  void reset() {
    counters_.clear();
    gauges_.clear();
    sketches_.clear();
    spans_.clear();
    open_.clear();
    next_seq_ = 0;
    attach_journal(journal_);
  }

 private:
  struct OpenSpan {
    std::string path;
    std::string name;  ///< As opened, before any layer prefix was dropped.
  };

  std::string child_path(std::string_view name) const {
    if (open_.empty()) return std::string{name};
    const auto dot = name.find('.');
    if (dot != std::string_view::npos) {
      for (const OpenSpan& open : open_) {
        if (open.name == name.substr(0, dot)) {
          name.remove_prefix(dot + 1);
          break;
        }
      }
    }
    std::string path = open_.back().path;
    path += '/';
    path += name;
    return path;
  }

  SpanStats& slot_for(const std::string& path) {
    auto [it, created] = spans_.try_emplace(path);
    if (created) {
      it->second.depth = static_cast<unsigned>(open_.size());
      it->second.first_seq = next_seq_++;
    }
    return it->second;
  }

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, QuantileSketch> sketches_;
  std::map<std::string, SpanStats> spans_;
  std::vector<OpenSpan> open_;
  std::uint64_t next_seq_ = 0;
  const sim::VirtualClock* clock_ = nullptr;
  Journal* journal_ = nullptr;
  TraceCollector* trace_ = nullptr;
};

/// The trace collector attached to `registry`, or null when either is
/// absent: the one check every traced layer makes.
[[nodiscard]] inline TraceCollector* trace_of(
    const Registry* registry) noexcept {
  return registry != nullptr ? registry->trace() : nullptr;
}

}  // namespace scent::telemetry
