// observation.h - the measurement corpus: every <target, response, time>
// tuple a campaign collects, plus the distinct-address counts the funnel
// reports as it goes.
//
// All downstream inference (Algorithms 1 and 2, density, rotation detection,
// homogeneity, pathology hunting, tracking validation) consumes exactly this
// data; nothing reads simulator ground truth. That separation is what makes
// the reproduction honest: the analysis side sees only what a real scanning
// vantage would see.
//
// Layout: the corpus is columnar (SoA) — parallel target/response/type+code/
// time vectors instead of one vector of 48-byte padded structs. Funnel scans
// touch only the columns they read (density looks at responses, snapshots at
// target+response), type and code pack into one 16-bit lane, and the
// per-observation footprint drops accordingly; bench_micro's ingest guard
// enforces the win. The store keeps no per-device index: every per-IID
// fact (networks, per-AS days, sightings) comes from the one fused pass
// over the rows (analysis/engine.h, derive.h). Its two distinct sets are
// the flat containers from src/container/: insertion-ordered, so every
// downstream iteration is deterministic by construction (DESIGN.md
// §5d/§5e).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "container/flat_hash.h"
#include "netbase/eui64.h"
#include "netbase/ipv6_address.h"
#include "netbase/mac_address.h"
#include "probe/prober.h"
#include "sim/sim_time.h"
#include "wire/icmpv6.h"

namespace scent::core {

/// One responsive probe, as a value. The store keeps these decomposed into
/// columns; this struct is the row view handed to code that wants a whole
/// observation at once.
struct Observation {
  net::Ipv6Address target;
  net::Ipv6Address response;
  wire::Icmpv6Type type = wire::Icmpv6Type::kDestinationUnreachable;
  std::uint8_t code = 0;
  sim::TimePoint time = 0;
};

/// Append-only columnar store of observations. add() updates the
/// uniqueness accounting in O(1) amortized, so campaigns that interleave
/// adds with counts (every funnel stage does) never pay a rebuild-the-
/// world-per-query quadratic cost.
///
/// Each distinct response address is classified (EUI-64 embedded MAC or
/// not) exactly once, on first sight; repeats hit one flat-set probe
/// instead of re-deriving the MAC per observation.
class ObservationStore {
 public:
  /// The stored 16-bit type/code lane: ICMPv6 type in the high byte — the
  /// packed form snapshot columns carry and add_packed() takes back.
  [[nodiscard]] static constexpr std::uint16_t pack_type_code(
      wire::Icmpv6Type type, std::uint8_t code) noexcept {
    return static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(type) << 8) | code);
  }

  void add(const Observation& obs) {
    add_row(obs.target, obs.response, pack_type_code(obs.type, obs.code),
            obs.time);
  }

  void add(const probe::ProbeResult& r) {
    if (!r.responded) return;
    add_row(r.target, r.response_source, pack_type_code(r.type, r.code),
            r.sent_at);
  }

  template <typename Range>
  void add_all(const Range& results) {
    for (const auto& r : results) add(r);
  }

  /// Raw-row append: same path as add(), with type and code already
  /// packed into the stored 16-bit lane.
  void add_packed(net::Ipv6Address target, net::Ipv6Address response,
                  std::uint16_t type_code, sim::TimePoint time) {
    add_row(target, response, type_code, time);
  }

  /// Writable slices over the rows a bulk append is filling, one per
  /// column.
  struct ColumnSlices {
    std::span<net::Ipv6Address> targets;
    std::span<net::Ipv6Address> responses;
    std::span<std::uint16_t> type_codes;
    std::span<sim::TimePoint> times;
  };

  /// Bulk append for deserializers (corpus snapshots) and sweep ingest:
  /// grows every column by `n` rows and has `fill(const ColumnSlices&)`
  /// write them in place — from any number of threads, as long as each
  /// element is written by one. If fill returns true, one pass over the new
  /// rows in row order rebuilds the distinct sets, the insertion history
  /// add_packed() would have produced, so a loaded store is
  /// indistinguishable from the one that was saved. If it returns false,
  /// the columns shrink back and the store holds exactly what it held
  /// before (only capacity may differ).
  template <typename Fill>
  bool append_columns(std::size_t n, Fill&& fill) {
    const std::size_t first = size();
    reserve(first + n);
    resize_columns(first + n);
    const ColumnSlices slices{
        std::span{targets_}.subspan(first),
        std::span{responses_}.subspan(first),
        std::span{type_code_}.subspan(first),
        std::span{times_}.subspan(first)};
    if (!fill(slices)) {
      resize_columns(first);
      return false;
    }
    for (std::size_t i = first; i < responses_.size(); ++i) {
      index_response(responses_[i]);
    }
    return true;
  }

  /// Room for `n` rows. Growth is geometric — at least double the current
  /// capacity — so callers that reserve per sweep or per snapshot file
  /// (size() + rows each time) copy the earlier rows O(log days) times,
  /// not once per call.
  void reserve(std::size_t n) {
    if (n > capacity()) reserve_exactly(std::max(n, 2 * capacity()));
  }

  /// Room for exactly `n` rows, for a caller that applies its own growth
  /// policy (a sweep whose appends already doubled the store once).
  void reserve_exactly(std::size_t n) {
    if (n <= capacity()) return;
    targets_.reserve(n);
    responses_.reserve(n);
    type_code_.reserve(n);
    times_.reserve(n);
  }

  [[nodiscard]] std::size_t size() const noexcept { return targets_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return targets_.capacity();
  }
  [[nodiscard]] bool empty() const noexcept { return targets_.empty(); }

  // Column accessors — the fast path for scans that read one field.
  [[nodiscard]] net::Ipv6Address target(std::size_t i) const noexcept {
    return targets_[i];
  }
  [[nodiscard]] net::Ipv6Address response(std::size_t i) const noexcept {
    return responses_[i];
  }
  [[nodiscard]] wire::Icmpv6Type type(std::size_t i) const noexcept {
    return static_cast<wire::Icmpv6Type>(type_code_[i] >> 8);
  }
  [[nodiscard]] std::uint8_t code(std::size_t i) const noexcept {
    return static_cast<std::uint8_t>(type_code_[i] & 0xff);
  }
  [[nodiscard]] sim::TimePoint time(std::size_t i) const noexcept {
    return times_[i];
  }
  /// The stored (type << 8) | code lane, unsplit — serialization reads and
  /// writes this directly instead of unpacking and repacking per row.
  [[nodiscard]] std::uint16_t type_code(std::size_t i) const noexcept {
    return type_code_[i];
  }

  // Whole columns as contiguous spans — the serialization hooks. A
  // snapshot section is one of these, encoded verbatim.
  [[nodiscard]] std::span<const net::Ipv6Address> target_column()
      const noexcept {
    return targets_;
  }
  [[nodiscard]] std::span<const net::Ipv6Address> response_column()
      const noexcept {
    return responses_;
  }
  [[nodiscard]] std::span<const std::uint16_t> type_code_column()
      const noexcept {
    return type_code_;
  }
  [[nodiscard]] std::span<const sim::TimePoint> time_column() const noexcept {
    return times_;
  }

  /// Row i reassembled as a value.
  [[nodiscard]] Observation at(std::size_t i) const noexcept {
    return Observation{targets_[i], responses_[i], type(i), code(i),
                       times_[i]};
  }

  /// Read-only window over a contiguous range of rows. Indexing and
  /// iteration yield Observation values reassembled from the columns;
  /// column accessors avoid even that when only one field is read.
  class View {
   public:
    View(const ObservationStore* store, std::size_t first,
         std::size_t last) noexcept
        : store_(store), first_(first), last_(last) {}

    [[nodiscard]] std::size_t size() const noexcept { return last_ - first_; }
    [[nodiscard]] bool empty() const noexcept { return last_ == first_; }

    /// The store the window reads and its row range [first, last) there.
    [[nodiscard]] const ObservationStore* store() const noexcept {
      return store_;
    }
    [[nodiscard]] std::size_t first() const noexcept { return first_; }
    [[nodiscard]] std::size_t last() const noexcept { return last_; }

    [[nodiscard]] Observation operator[](std::size_t i) const noexcept {
      return store_->at(first_ + i);
    }
    [[nodiscard]] net::Ipv6Address target(std::size_t i) const noexcept {
      return store_->target(first_ + i);
    }
    [[nodiscard]] net::Ipv6Address response(std::size_t i) const noexcept {
      return store_->response(first_ + i);
    }
    [[nodiscard]] sim::TimePoint time(std::size_t i) const noexcept {
      return store_->time(first_ + i);
    }
    [[nodiscard]] std::uint16_t type_code(std::size_t i) const noexcept {
      return store_->type_code(first_ + i);
    }

    /// The window's slice of each column.
    [[nodiscard]] std::span<const net::Ipv6Address> target_column()
        const noexcept {
      return store_->target_column().subspan(first_, size());
    }
    [[nodiscard]] std::span<const net::Ipv6Address> response_column()
        const noexcept {
      return store_->response_column().subspan(first_, size());
    }
    [[nodiscard]] std::span<const std::uint16_t> type_code_column()
        const noexcept {
      return store_->type_code_column().subspan(first_, size());
    }
    [[nodiscard]] std::span<const sim::TimePoint> time_column()
        const noexcept {
      return store_->time_column().subspan(first_, size());
    }

    class iterator {
     public:
      iterator(const ObservationStore* store, std::size_t index) noexcept
          : store_(store), index_(index) {}
      Observation operator*() const noexcept { return store_->at(index_); }
      iterator& operator++() noexcept {
        ++index_;
        return *this;
      }
      bool operator==(const iterator& o) const noexcept {
        return index_ == o.index_;
      }
      bool operator!=(const iterator& o) const noexcept {
        return index_ != o.index_;
      }

     private:
      const ObservationStore* store_;
      std::size_t index_;
    };

    [[nodiscard]] iterator begin() const noexcept {
      return iterator{store_, first_};
    }
    [[nodiscard]] iterator end() const noexcept {
      return iterator{store_, last_};
    }

   private:
    const ObservationStore* store_;
    std::size_t first_;
    std::size_t last_;
  };

  [[nodiscard]] View all() const noexcept { return View{this, 0, size()}; }

  /// Rows [first, last) — e.g. the slice one sweep unit appended.
  [[nodiscard]] View view(std::size_t first, std::size_t last) const noexcept {
    return View{this, first, last};
  }

  /// Distinct response addresses seen (any IID class).
  [[nodiscard]] std::size_t unique_responses() const noexcept {
    return distinct_responses_.size();
  }

  /// The distinct response addresses themselves, in first-seen order. The
  /// analysis engine walks these to prime a shared read-only
  /// AttributionCache up front (one BGP trie walk per distinct /64) before
  /// fanning out shards.
  [[nodiscard]] std::span<const net::Ipv6Address> distinct_responses()
      const noexcept {
    return {distinct_responses_.begin(), distinct_responses_.size()};
  }

  /// Distinct EUI-64 response addresses seen.
  [[nodiscard]] std::size_t unique_eui64_responses() const noexcept {
    return eui_unique_;
  }

  /// Distinct EUI-64 IIDs (== distinct embedded MACs).
  [[nodiscard]] std::size_t unique_eui64_iids() const noexcept {
    return macs_.size();
  }

  /// Heap bytes held by the columns and distinct sets, for the bytes-per-
  /// observation guard in bench_micro.
  [[nodiscard]] std::size_t memory_footprint() const noexcept {
    return targets_.capacity() * sizeof(net::Ipv6Address) +
           responses_.capacity() * sizeof(net::Ipv6Address) +
           type_code_.capacity() * sizeof(std::uint16_t) +
           times_.capacity() * sizeof(sim::TimePoint) +
           distinct_responses_.memory_footprint() + macs_.memory_footprint();
  }

 private:
  void add_row(net::Ipv6Address target, net::Ipv6Address response,
               std::uint16_t type_code, sim::TimePoint time) {
    targets_.push_back(target);
    responses_.push_back(response);
    type_code_.push_back(type_code);
    times_.push_back(time);
    index_response(response);
  }

  // Classify each distinct response once; repeats cost one probe. An
  // address always embeds the same MAC, so only a first sighting can add
  // one.
  void index_response(net::Ipv6Address response) {
    if (distinct_responses_.insert(response).second) {
      if (const auto mac = net::embedded_mac(response)) {
        ++eui_unique_;
        macs_.insert(*mac);
      }
    }
  }

  void resize_columns(std::size_t n) {
    targets_.resize(n);
    responses_.resize(n);
    type_code_.resize(n);
    times_.resize(n);
  }

  // Parallel columns, one entry per observation.
  std::vector<net::Ipv6Address> targets_;
  std::vector<net::Ipv6Address> responses_;
  std::vector<std::uint16_t> type_code_;  // (type << 8) | code
  std::vector<sim::TimePoint> times_;

  container::FlatSet<net::Ipv6Address, net::Ipv6AddressHash>
      distinct_responses_;
  container::FlatSet<net::MacAddress, net::MacAddressHash> macs_;
  std::size_t eui_unique_ = 0;
};

}  // namespace scent::core
