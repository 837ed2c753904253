// observation.h - the measurement corpus: every <target, response, time>
// tuple a campaign collects, indexed the ways the paper's analyses need.
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
// enforces the win. Indexes are the flat containers from src/container/:
// insertion-ordered, so every downstream iteration is deterministic by
// construction (DESIGN.md §5d/§5e).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "container/arena.h"
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

/// Append-only columnar store of observations, indexed incrementally: add()
/// updates the per-MAC index and uniqueness accounting in O(1) amortized,
/// so campaigns that interleave adds with queries (every funnel stage does)
/// never pay a rebuild-the-world-per-query quadratic cost.
///
/// Each distinct response address is classified (EUI-64 embedded MAC or
/// not) exactly once, on first sight; repeats hit a flat-map probe instead
/// of re-deriving the MAC per observation.
class ObservationStore {
 public:
  using MacIndex = container::FlatMap<net::MacAddress,
                                      container::IndexArena::List,
                                      net::MacAddressHash>;

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

  /// Raw-row append for deserializers (corpus snapshots): same path as
  /// add(), with type and code already packed into the stored 16-bit lane.
  /// Replayed rows rebuild the indexes with the original insertion history,
  /// so a loaded store is indistinguishable from the one that was saved.
  void add_packed(net::Ipv6Address target, net::Ipv6Address response,
                  std::uint16_t type_code, sim::TimePoint time) {
    add_row(target, response, type_code, time);
  }

  void reserve(std::size_t n) {
    targets_.reserve(n);
    responses_.reserve(n);
    type_code_.reserve(n);
    times_.reserve(n);
  }

  [[nodiscard]] std::size_t size() const noexcept { return targets_.size(); }
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

  /// Observation indices grouped by embedded MAC, for EUI-64 responses
  /// only. Mapped values are arena list handles; resolve them with
  /// indices() or indices_of(). Iteration order is MAC first-sighting
  /// order — deterministic.
  [[nodiscard]] const MacIndex& by_mac() const noexcept { return by_mac_; }

  /// Resolves a by_mac() list handle to its index range (push order).
  [[nodiscard]] container::IndexArena::Range indices(
      const container::IndexArena::List& list) const noexcept {
    return index_arena_.range(list);
  }

  /// Materializes one MAC's observation indices (ascending, as inserted).
  [[nodiscard]] std::vector<std::size_t> indices_of(net::MacAddress mac) const {
    std::vector<std::size_t> out;
    const auto it = by_mac_.find(mac);
    if (it == by_mac_.end()) return out;
    out.reserve(it->second.size);
    for (const std::uint32_t i : index_arena_.range(it->second)) {
      out.push_back(i);
    }
    return out;
  }

  /// Distinct response addresses seen (any IID class).
  [[nodiscard]] std::size_t unique_responses() const noexcept {
    return response_class_.size();
  }

  /// The distinct response addresses themselves, in first-seen order —
  /// the classification memo's keys. The analysis engine walks this to
  /// prime a shared read-only AttributionCache up front (one BGP trie
  /// walk per distinct /64) before fanning out shards.
  class DistinctResponses {
   public:
    class iterator {
     public:
      explicit iterator(
          const container::FlatMap<net::Ipv6Address, std::uint64_t,
                                   net::Ipv6AddressHash>::const_iterator it)
          : it_(it) {}
      net::Ipv6Address operator*() const noexcept { return it_->first; }
      iterator& operator++() noexcept {
        ++it_;
        return *this;
      }
      bool operator!=(const iterator& o) const noexcept {
        return it_ != o.it_;
      }

     private:
      container::FlatMap<net::Ipv6Address, std::uint64_t,
                         net::Ipv6AddressHash>::const_iterator it_;
    };
    [[nodiscard]] iterator begin() const noexcept {
      return iterator{map_->begin()};
    }
    [[nodiscard]] iterator end() const noexcept {
      return iterator{map_->end()};
    }
    [[nodiscard]] std::size_t size() const noexcept { return map_->size(); }

   private:
    friend class ObservationStore;
    explicit DistinctResponses(
        const container::FlatMap<net::Ipv6Address, std::uint64_t,
                                 net::Ipv6AddressHash>* map) noexcept
        : map_(map) {}
    const container::FlatMap<net::Ipv6Address, std::uint64_t,
                             net::Ipv6AddressHash>* map_;
  };

  [[nodiscard]] DistinctResponses distinct_responses() const noexcept {
    return DistinctResponses{&response_class_};
  }

  /// Distinct EUI-64 response addresses seen.
  [[nodiscard]] std::size_t unique_eui64_responses() const noexcept {
    return eui_unique_;
  }

  /// Distinct EUI-64 IIDs (== distinct embedded MACs).
  [[nodiscard]] std::size_t unique_eui64_iids() const noexcept {
    return by_mac_.size();
  }

  /// Distinct /64 networks in which a given MAC's EUI-64 address was seen,
  /// in first-seen order. Dedup is a sorted-unique pass over the (small)
  /// per-MAC network list — no per-call hash set.
  [[nodiscard]] std::vector<std::uint64_t> networks_of(
      net::MacAddress mac) const {
    const auto it = by_mac_.find(mac);
    if (it == by_mac_.end()) return {};
    std::vector<std::uint64_t> nets;  // first-seen order, with repeats
    nets.reserve(it->second.size);
    for (const std::uint32_t i : index_arena_.range(it->second)) {
      nets.push_back(responses_[i].network());
    }
    std::vector<std::uint64_t> sorted = nets;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    if (sorted.size() == nets.size()) return nets;  // already distinct
    std::vector<bool> emitted(sorted.size(), false);
    std::vector<std::uint64_t> out;
    out.reserve(sorted.size());
    for (const std::uint64_t net : nets) {
      const std::size_t slot = static_cast<std::size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), net) -
          sorted.begin());
      if (!emitted[slot]) {
        emitted[slot] = true;
        out.push_back(net);
      }
    }
    return out;
  }

  /// Heap bytes held by the columns and indexes, for the bytes-per-
  /// observation guard in bench_micro.
  [[nodiscard]] std::size_t memory_footprint() const noexcept {
    return targets_.capacity() * sizeof(net::Ipv6Address) +
           responses_.capacity() * sizeof(net::Ipv6Address) +
           type_code_.capacity() * sizeof(std::uint16_t) +
           times_.capacity() * sizeof(sim::TimePoint) +
           response_class_.memory_footprint() + by_mac_.memory_footprint() +
           index_arena_.memory_footprint();
  }

 private:
  /// MAC bits cannot exceed 48 bits, so all-ones marks "classified, not
  /// EUI-64" in the response classification cache.
  static constexpr std::uint64_t kNonEui = ~0ULL;

  void add_row(net::Ipv6Address target, net::Ipv6Address response,
               std::uint16_t type_code, sim::TimePoint time) {
    const std::size_t index = targets_.size();
    targets_.push_back(target);
    responses_.push_back(response);
    type_code_.push_back(type_code);
    times_.push_back(time);

    // Classify each distinct response once; repeats cost one probe.
    const auto [entry, fresh] = response_class_.try_emplace(response, kNonEui);
    if (fresh) {
      if (const auto mac = net::embedded_mac(response)) {
        entry->second = mac->bits();
        ++eui_unique_;
      }
    }
    const std::uint64_t mac_bits = entry->second;
    if (mac_bits != kNonEui) {
      const auto mac_entry = by_mac_.try_emplace(net::MacAddress{mac_bits});
      index_arena_.push_back(mac_entry.first->second,
                             static_cast<std::uint32_t>(index));
    }
  }

  // Parallel columns, one entry per observation.
  std::vector<net::Ipv6Address> targets_;
  std::vector<net::Ipv6Address> responses_;
  std::vector<std::uint16_t> type_code_;  // (type << 8) | code
  std::vector<sim::TimePoint> times_;

  /// response address → embedded-MAC bits, or kNonEui. Doubles as the
  /// distinct-response set.
  container::FlatMap<net::Ipv6Address, std::uint64_t, net::Ipv6AddressHash>
      response_class_;
  MacIndex by_mac_;
  container::IndexArena index_arena_;
  std::size_t eui_unique_ = 0;
};

}  // namespace scent::core
