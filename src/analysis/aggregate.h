// aggregate.h - the fused analysis pass's per-device aggregate table.
//
// Every analysis the paper runs over a campaign corpus — Algorithm 1
// (allocation size, §3.2.1), Algorithm 2 (rotation pool size, §3.2.2),
// vendor homogeneity (§5.1), multi-AS pathology hunting (§5.5), rotation
// differencing (§4.3) and tracker sighting histories (§6) — is a function
// of the same handful of per-EUI-64-device facts: which /64s were probed
// and answered, which /64s the WAN address appeared in, which origin ASes
// attributed it, and on which days. Historically each analysis re-walked
// the raw rows to re-derive those facts; the analysis engine walks the
// rows once and materializes them here, and every report derives from
// this table (derive.h) without touching a row again.
//
// Determinism: the table is FlatMap-backed, so device iteration order is
// MAC first-sighting order — the same order a serial scan produces — and
// the engine's shard-order merge (engine.cpp) reproduces exactly that
// order at any thread count. All fields are pure functions of the row
// *set* plus first-occurrence order, both of which are partition-
// independent, so a merged table is bit-identical to a serial one.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "container/flat_hash.h"
#include "core/predictor.h"
#include "core/rotation_detector.h"
#include "netbase/mac_address.h"
#include "routing/bgp_table.h"

namespace scent::analysis {

/// Rebases a day bitset whose bit semantics are "bit min(day - first, 63)"
/// onto an earlier first day (`delta` = old_first - new_first >= 0). Bits
/// pushed past position 63 saturate into bit 63, preserving the pure-
/// function definition — which is what makes shard merges order-free.
[[nodiscard]] constexpr std::uint64_t rebase_day_bits(
    std::uint64_t bits, std::int64_t delta) noexcept {
  if (delta <= 0 || bits == 0) return bits;
  if (delta >= 63) return 1ULL << 63;
  const bool saturated = (bits >> (63 - delta)) != 0;
  std::uint64_t out = bits << delta;
  if (saturated) out |= 1ULL << 63;
  return out;
}

/// An exact set of campaign days in canonical form: a 64-day bitset
/// anchored at the set's minimum day, plus a sorted spill vector for the
/// rare days beyond the window (campaigns cluster observations into a
/// span of days far shorter than 64; real multi-year corpora spill).
///
/// The representation is a pure function of the day *set* — the anchor is
/// always the minimum, the window width is fixed, and a spilled day can
/// never re-enter the window because the anchor only ever decreases — so
/// the defaulted operator== is exact set equality and merge order cannot
/// change the bytes. That keeps the engine's shard-merge bit-identical.
///
/// This replaces a per-span sorted std::vector whose insert-per-row
/// (heap allocation + binary search) dominated the fused scan's hot
/// loop; note() for an in-window day is a subtract, a shift, and an OR.
class DaySet {
 public:
  /// Inserts `day`; idempotent.
  void note(std::int64_t day) {
    if (bits_ == 0) {
      anchor_ = day;
      bits_ = 1;
      return;
    }
    const std::int64_t offset = day - anchor_;
    if (offset >= 0) {
      if (offset < 64) {
        bits_ |= 1ULL << offset;
      } else {
        spill_insert(day);
      }
      return;
    }
    rebase(-offset);
    bits_ |= 1;  // anchor_ == day now.
  }

  /// Set union. Order-free: both inputs are canonical, and note()
  /// re-canonicalizes, so (a ∪ b) and (b ∪ a) are byte-identical.
  void merge(const DaySet& other) {
    std::uint64_t bits = other.bits_;
    while (bits != 0) {
      const int k = std::countr_zero(bits);
      bits &= bits - 1;
      note(other.anchor_ + k);
    }
    for (const std::int64_t day : other.spill_) note(day);
  }

  /// Appends the member days to `out` in ascending order.
  void append_to(std::vector<std::int64_t>& out) const {
    std::uint64_t bits = bits_;
    while (bits != 0) {
      const int k = std::countr_zero(bits);
      bits &= bits - 1;
      out.push_back(anchor_ + k);
    }
    out.insert(out.end(), spill_.begin(), spill_.end());
  }

  /// The member days, ascending.
  [[nodiscard]] std::vector<std::int64_t> values() const {
    std::vector<std::int64_t> out;
    out.reserve(count());
    append_to(out);
    return out;
  }

  [[nodiscard]] bool empty() const noexcept { return bits_ == 0; }
  [[nodiscard]] std::size_t count() const noexcept {
    return static_cast<std::size_t>(std::popcount(bits_)) + spill_.size();
  }
  /// Smallest member day; requires !empty().
  [[nodiscard]] std::int64_t first() const noexcept { return anchor_; }
  /// Largest member day; requires !empty().
  [[nodiscard]] std::int64_t last() const noexcept {
    if (!spill_.empty()) return spill_.back();
    return anchor_ + 63 - std::countl_zero(bits_);
  }

  bool operator==(const DaySet&) const = default;

 private:
  /// Moves the anchor `delta > 0` days earlier. Window bits pushed past
  /// position 63 spill; every spilled day is <= old anchor + 63, i.e.
  /// smaller than every existing spill entry, so they prepend as a block
  /// and the spill vector stays sorted.
  void rebase(std::int64_t delta) {
    std::int64_t spilled_days[64];
    std::size_t spilled = 0;
    if (delta >= 64) {
      std::uint64_t bits = bits_;
      while (bits != 0) {
        const int k = std::countr_zero(bits);
        bits &= bits - 1;
        spilled_days[spilled++] = anchor_ + k;
      }
      bits_ = 0;
    } else {
      std::uint64_t overflow = bits_ >> (64 - delta);
      while (overflow != 0) {
        const int k = std::countr_zero(overflow);
        overflow &= overflow - 1;
        spilled_days[spilled++] = anchor_ + (64 - delta) + k;
      }
      bits_ <<= delta;
    }
    anchor_ -= delta;
    if (spilled != 0) {
      spill_.insert(spill_.begin(), spilled_days, spilled_days + spilled);
    }
  }

  void spill_insert(std::int64_t day) {
    if (spill_.empty() || day > spill_.back()) {
      spill_.push_back(day);
      return;
    }
    const auto it = std::lower_bound(spill_.begin(), spill_.end(), day);
    if (*it != day) spill_.insert(it, day);
  }

  std::int64_t anchor_ = 0;          ///< Minimum member day when non-empty.
  std::uint64_t bits_ = 0;           ///< Bit k == day anchor_ + k present.
  std::vector<std::int64_t> spill_;  ///< Sorted days > anchor_ + 63.
};

/// One device's relationship with one origin AS: the spans and days behind
/// the per-AS allocation medians (campaign day 0), the homogeneity counts,
/// and the pathology classifier's hand-off test. `ad` points into the
/// BgpTable the engine attributed against (stable while it isn't
/// announce()d into) — country and AS name derive from it without a
/// per-device string copy.
struct PerAsSpan {
  const routing::Advertisement* ad = nullptr;
  routing::Asn asn = 0;
  std::uint64_t target_lo = 0;    ///< Probed-target /64 span (Algorithm 1).
  std::uint64_t target_hi = 0;
  std::uint64_t response_lo = 0;  ///< Response /64 span within this AS.
  std::uint64_t response_hi = 0;
  std::uint64_t observations = 0;
  DaySet days;                    ///< Distinct days this AS attributed it.
};

/// Everything the downstream analyses need to know about one EUI-64
/// device, accumulated in a single pass over the rows.
struct DeviceAggregate {
  std::uint32_t oui = 0;             ///< Top 24 MAC bits: the manufacturer.
  std::uint64_t observations = 0;    ///< 0 means "freshly emplaced".
  std::uint64_t target_lo = 0;       ///< Global target /64 span (Alg. 1).
  std::uint64_t target_hi = 0;
  std::uint64_t response_lo = 0;     ///< Global response /64 span (Alg. 2).
  std::uint64_t response_hi = 0;
  std::int64_t first_day = 0;
  std::int64_t last_day = 0;
  /// Bit min(day - first_day, 63) per day seen; day 64+ activity saturates
  /// into bit 63.
  std::uint64_t day_bits = 0;
  /// Per-AS sub-aggregates in first-attribution order (rows with no BGP
  /// match contribute to the global fields only, as the legacy scans did).
  std::vector<PerAsSpan> per_as;
  /// <day, response /64> in observation order with consecutive duplicates
  /// collapsed, what derive.h sightings_of returns for this MAC.
  std::vector<core::Sighting> sightings;
};

/// Per-AS rollup across all devices, derived after the merge.
struct AsRollup {
  routing::Asn asn = 0;
  std::string country;
  std::string as_name;
  std::uint64_t observations = 0;  ///< Attributed EUI observations.
  std::uint64_t devices = 0;       ///< Distinct EUI MACs attributed.
};

/// The merged output of one fused pass.
struct AggregateTable {
  using DeviceMap = container::FlatMap<net::MacAddress, DeviceAggregate,
                                       net::MacAddressHash>;

  DeviceMap devices;                 ///< MAC first-sighting order.
  std::vector<AsRollup> as_rollups;  ///< Ascending ASN.
  /// One rotation Snapshot per requested RowWindow, identical to recording
  /// the window's rows serially (AnalysisOptions::windows).
  std::vector<core::Snapshot> window_snapshots;
  std::uint64_t rows_scanned = 0;
  std::uint64_t eui_rows = 0;        ///< Rows whose response embeds a MAC.
  std::size_t failed_files = 0;      ///< Chain inputs: unreadable snapshots.
  unsigned threads_used = 1;
};

}  // namespace scent::analysis
