// recorder.h - flight-recorder trace ring buffers and the shard-merge
// collector.
//
// A TraceRecorder is a fixed-capacity ring of begin/end/instant/counter
// events owned by exactly ONE writer — a shard worker or a stage driver —
// the same single-writer rule sketches and span slots follow. Recording an
// event is a couple of stores plus a clock read; there is no locking, no
// allocation, and no I/O on the hot path. When the ring is full the oldest
// event is overwritten and an explicit drop counter is bumped
// (flight-recorder semantics: the newest events survive, and the loss is
// visible, never silent). Regions are normally recorded through
// telemetry::Span, which writes the begin/end pair.
//
// Events carry BOTH timestamps the rest of the codebase uses:
//   * wall_ns  — std::chrono::steady_clock, for real phase-overlap
//                timelines (the Chrome trace exporter's ts axis);
//   * virtual_us — the bound sim::VirtualClock, which replays the serial
//                probe schedule identically at any thread count. The
//                determinism contract (DESIGN §5c) is stated over the
//                virtual stream only: drain shard recorders in shard
//                order and the concatenated (name, type, virtual_us,
//                value) sequence is bit-identical at any thread count,
//                provided no events were dropped.
//
// The TraceCollector accumulates drained recorders as named lanes at the
// existing deterministic shard-merge points. It is driver-thread-only;
// workers never touch it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sim_time.h"

namespace scent::telemetry {

enum class EventType : std::uint8_t { kBegin, kEnd, kInstant, kCounter };

struct TraceEvent {
  const char* name = nullptr;   ///< Static-lifetime literal, never owned.
  EventType type = EventType::kInstant;
  std::uint64_t wall_ns = 0;    ///< steady_clock, process-arbitrary epoch.
  std::int64_t virtual_us = 0;  ///< Bound VirtualClock; 0 when unbound.
  std::int64_t value = 0;       ///< kCounter payload, 0 otherwise.
};

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 14;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  /// Virtual clock stamped into events (optional; 0 when unbound).
  void set_clock(const sim::VirtualClock* clock) noexcept { clock_ = clock; }

  /// `wall_ns` lets a caller that already read the clock (Span) stamp the
  /// event with that same reading.
  void begin(const char* name,
             std::uint64_t wall_ns = now_wall_ns()) noexcept {
    push(name, EventType::kBegin, 0, wall_ns);
  }
  void end(const char* name, std::uint64_t wall_ns = now_wall_ns()) noexcept {
    push(name, EventType::kEnd, 0, wall_ns);
  }
  void instant(const char* name) noexcept {
    push(name, EventType::kInstant, 0, now_wall_ns());
  }
  void counter(const char* name, std::int64_t value) noexcept {
    push(name, EventType::kCounter, value, now_wall_ns());
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events overwritten since the last drain (flight-recorder overflow).
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Appends the retained events oldest-first to `out`, then resets the
  /// ring (the drop counter is the caller's to harvest via take_dropped).
  void drain_into(std::vector<TraceEvent>& out) {
    const std::size_t n = ring_.size();
    std::size_t read = (write_ + n - size_) % n;
    out.reserve(out.size() + size_);
    for (std::size_t i = 0; i < size_; ++i) {
      out.push_back(ring_[read]);
      read = read + 1 == n ? 0 : read + 1;
    }
    size_ = 0;
    write_ = 0;
  }

  /// Returns and clears the overflow counter.
  [[nodiscard]] std::uint64_t take_dropped() noexcept {
    return std::exchange(dropped_, 0);
  }

  /// Current wall clock in the TraceEvent::wall_ns epoch — the one time
  /// source Span, the ring and the exporters share.
  [[nodiscard]] static std::uint64_t now_wall_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  void push(const char* name, EventType type, std::int64_t value,
            std::uint64_t wall_ns) noexcept {
    TraceEvent& e = ring_[write_];
    if (size_ == ring_.size()) {
      ++dropped_;  // overwrote the oldest retained event
    } else {
      ++size_;
    }
    e.name = name;
    e.type = type;
    e.wall_ns = wall_ns;
    e.virtual_us = clock_ != nullptr ? clock_->now() : 0;
    e.value = value;
    write_ = write_ + 1 == ring_.size() ? 0 : write_ + 1;
  }

  std::vector<TraceEvent> ring_;
  std::size_t write_ = 0;  ///< Next slot to fill.
  std::size_t size_ = 0;   ///< Retained events (≤ capacity).
  std::uint64_t dropped_ = 0;
  const sim::VirtualClock* clock_ = nullptr;
};

/// One exporter lane: a named, ordered event stream plus its overflow
/// count. The Chrome exporter renders each lane as one timeline row.
struct TraceLane {
  std::string name;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

/// Driver-side accumulator of drained recorders. Lanes are keyed by name:
/// draining into an existing name appends (a campaign drains "sweep
/// shard 0" once per day into one lane). Not thread safe — drain at the
/// deterministic shard-merge points, on the driver thread, in shard order.
class TraceCollector {
 public:
  TraceCollector() = default;
  explicit TraceCollector(std::size_t recorder_capacity)
      : recorder_capacity_(recorder_capacity) {}

  /// Capacity instrumented layers should use when creating the shard
  /// recorders they later drain into this collector.
  [[nodiscard]] std::size_t recorder_capacity() const noexcept {
    return recorder_capacity_;
  }

  void drain(std::string_view lane_name, TraceRecorder& recorder) {
    TraceLane& lane = lane_for(lane_name);
    recorder.drain_into(lane.events);
    lane.dropped += recorder.take_dropped();
  }

  /// Appends a single pre-built event to a lane (driver-side bookkeeping,
  /// e.g. phase markers recorded outside any ring).
  void append(std::string_view lane_name, const TraceEvent& event) {
    lane_for(lane_name).events.push_back(event);
  }

  [[nodiscard]] const std::vector<TraceLane>& lanes() const noexcept {
    return lanes_;
  }

  [[nodiscard]] std::uint64_t total_events() const noexcept {
    std::uint64_t n = 0;
    for (const auto& lane : lanes_) n += lane.events.size();
    return n;
  }

  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    std::uint64_t n = 0;
    for (const auto& lane : lanes_) n += lane.dropped;
    return n;
  }

 private:
  TraceLane& lane_for(std::string_view name) {
    for (auto& lane : lanes_) {
      if (lane.name == name) return lane;
    }
    lanes_.push_back(TraceLane{std::string{name}, {}, 0});
    return lanes_.back();
  }

  std::vector<TraceLane> lanes_;
  std::size_t recorder_capacity_ = TraceRecorder::kDefaultCapacity;
};

}  // namespace scent::telemetry
