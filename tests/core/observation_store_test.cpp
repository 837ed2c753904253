// ObservationStore's incremental accounting: add() maintains the
// uniqueness sets as it goes, so interleaved add/query sequences (every
// funnel stage alternates them) see consistent answers without a rebuild,
// and appending shard slices in order (the sweep's shard merge) yields a
// store indistinguishable from one built serially.
#include "core/observation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "netbase/eui64.h"
#include "netbase/ipv6_address.h"
#include "netbase/mac_address.h"
#include "sim/rng.h"

namespace scent::core {
namespace {

/// A pseudorandom observation stream with deliberate duplicates: a few
/// dozen distinct devices, some EUI-64, some privacy-addressed.
std::vector<Observation> make_stream(std::uint64_t seed, std::size_t count) {
  sim::Rng rng{seed};
  std::vector<Observation> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t network =
        0x20010db800000000ULL | (rng.below(24) << 8);
    net::Ipv6Address response;
    if (rng.chance(0.7)) {
      // EUI-64 IID from a small MAC population (forces repeats).
      const net::MacAddress mac{0x3810d5000000ULL | rng.below(16)};
      response = net::Ipv6Address{network, net::mac_to_eui64(mac)};
    } else {
      response = net::Ipv6Address{network, rng.next() | 0x0400000000000000ULL};
    }
    out.push_back(Observation{
        net::Ipv6Address{network, i}, response,
        wire::Icmpv6Type::kEchoReply, 0,
        static_cast<sim::TimePoint>(i) * 100});
  }
  return out;
}

/// Ground truth computed from scratch over a prefix of the stream.
struct Expected {
  std::unordered_set<net::Ipv6Address, net::Ipv6AddressHash> responses;
  std::vector<net::Ipv6Address> first_seen;  // responses, first-seen order
  std::unordered_set<net::Ipv6Address, net::Ipv6AddressHash> eui_responses;
  std::unordered_set<net::MacAddress, net::MacAddressHash> macs;
};

Expected recompute(const std::vector<Observation>& stream, std::size_t n) {
  Expected e;
  for (std::size_t i = 0; i < n; ++i) {
    if (e.responses.insert(stream[i].response).second) {
      e.first_seen.push_back(stream[i].response);
    }
    if (const auto mac = net::embedded_mac(stream[i].response)) {
      e.eui_responses.insert(stream[i].response);
      e.macs.insert(*mac);
    }
  }
  return e;
}

TEST(ObservationStore, InterleavedAddAndQueryMatchesFromScratchRebuild) {
  const auto stream = make_stream(0x0B5, 600);
  ObservationStore store;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    store.add(stream[i]);
    // Query after *every* add — the pattern that used to trigger a full
    // per-query rebuild. Check against ground truth at coarse intervals
    // (every add for the first 50, then every 97th) to keep the test fast.
    if (i < 50 || i % 97 == 0 || i + 1 == stream.size()) {
      const Expected e = recompute(stream, i + 1);
      ASSERT_EQ(store.size(), i + 1);
      ASSERT_EQ(store.unique_responses(), e.responses.size()) << "at " << i;
      ASSERT_EQ(store.unique_eui64_responses(), e.eui_responses.size());
      ASSERT_EQ(store.unique_eui64_iids(), e.macs.size());
      ASSERT_TRUE(std::ranges::equal(store.distinct_responses(),
                                     e.first_seen))
          << "at " << i;
    }
  }
}

TEST(ObservationStore, AppendEqualsSeriallyConcatenatedAdds) {
  const auto stream = make_stream(0xA99, 400);

  // Serial reference: one store fed the whole stream.
  ObservationStore serial;
  for (const auto& obs : stream) serial.add(obs);

  // Sharded: three disjoint slices, appended in order with add_all — how
  // the sweep merge ingests each shard's buffered results.
  const std::span<const Observation> all{stream};
  ObservationStore merged;
  merged.reserve(stream.size());
  merged.add_all(all.subspan(0, 150));
  merged.add_all(all.subspan(150, 110));
  merged.add_all(all.subspan(260));

  ASSERT_EQ(merged.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(merged.all()[i].target, serial.all()[i].target);
    EXPECT_EQ(merged.all()[i].response, serial.all()[i].response);
    EXPECT_EQ(merged.all()[i].time, serial.all()[i].time);
  }
  EXPECT_EQ(merged.unique_responses(), serial.unique_responses());
  EXPECT_EQ(merged.unique_eui64_responses(), serial.unique_eui64_responses());
  EXPECT_EQ(merged.unique_eui64_iids(), serial.unique_eui64_iids());
  EXPECT_TRUE(std::ranges::equal(merged.distinct_responses(),
                                 serial.distinct_responses()));
}

TEST(ObservationStore, ColumnsViewAndRowsAgree) {
  const auto stream = make_stream(0x1D, 200);
  ObservationStore store;
  for (const auto& obs : stream) store.add(obs);

  ASSERT_EQ(store.size(), stream.size());
  const auto view = store.all();
  ASSERT_EQ(view.size(), stream.size());
  std::size_t seen = 0;
  for (const auto& obs : view) {
    EXPECT_EQ(obs.target, stream[seen].target);
    ++seen;
  }
  EXPECT_EQ(seen, stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    // Column accessors, row reassembly, and view indexing all agree.
    EXPECT_EQ(store.target(i), stream[i].target);
    EXPECT_EQ(store.response(i), stream[i].response);
    EXPECT_EQ(store.type(i), stream[i].type);
    EXPECT_EQ(store.code(i), stream[i].code);
    EXPECT_EQ(store.time(i), stream[i].time);
    EXPECT_EQ(view[i].response, stream[i].response);
    EXPECT_EQ(store.at(i).time, stream[i].time);
  }

  // A sub-view addresses absolute rows [first, last).
  const auto slice = store.view(50, 120);
  ASSERT_EQ(slice.size(), 70u);
  for (std::size_t i = 0; i < slice.size(); ++i) {
    EXPECT_EQ(slice.response(i), stream[50 + i].response);
    EXPECT_EQ(slice[i].target, stream[50 + i].target);
  }

  // The corpus accounts for its heap: at minimum the four columns.
  EXPECT_GE(store.memory_footprint(),
            store.size() * (2 * sizeof(net::Ipv6Address) +
                            sizeof(std::uint16_t) + sizeof(sim::TimePoint)));
}

TEST(ObservationStore, RepeatedResponsesClassifiedOncePerAddress) {
  // The same EUI-64 response observed many times: one row per
  // observation while the uniqueness counters stay at one.
  const net::MacAddress mac{0x3810d5000042ULL};
  const net::Ipv6Address eui_response{0x20010db800000000ULL,
                                      net::mac_to_eui64(mac)};
  const net::Ipv6Address privacy_response{0x20010db800000000ULL,
                                          0x0400cafe12345678ULL};
  ObservationStore store;
  for (std::size_t i = 0; i < 10; ++i) {
    store.add(Observation{net::Ipv6Address{0x20010db8ULL, i}, eui_response,
                          wire::Icmpv6Type::kEchoReply, 0,
                          static_cast<sim::TimePoint>(i)});
    store.add(Observation{net::Ipv6Address{0x20010db8ULL, 100 + i},
                          privacy_response, wire::Icmpv6Type::kEchoReply, 0,
                          static_cast<sim::TimePoint>(i)});
  }
  EXPECT_EQ(store.unique_responses(), 2u);
  EXPECT_EQ(store.unique_eui64_responses(), 1u);
  EXPECT_EQ(store.unique_eui64_iids(), 1u);
  ASSERT_EQ(store.distinct_responses().size(), 2u);
  EXPECT_EQ(store.distinct_responses()[0], eui_response);
  EXPECT_EQ(store.distinct_responses()[1], privacy_response);
  ASSERT_EQ(store.size(), 20u);
  for (std::size_t i = 0; i < store.size(); i += 2) {
    EXPECT_EQ(store.response(i), eui_response);  // every even row
  }
}

TEST(ObservationStore, AppendEmptyAndOntoEmpty) {
  const auto stream = make_stream(0x3E, 10);
  ObservationStore filled;
  for (const auto& obs : stream) filled.add(obs);

  const std::span<const Observation> empty;
  ObservationStore merged;
  merged.add_all(empty);
  EXPECT_TRUE(merged.empty());
  merged.add_all(stream);
  EXPECT_EQ(merged.size(), filled.size());
  merged.add_all(empty);
  EXPECT_EQ(merged.size(), filled.size());
  EXPECT_EQ(merged.unique_responses(), filled.unique_responses());
}

TEST(ObservationStore, PerDayReserveGrowsGeometrically) {
  // A campaign reserves size() + rows once per day (sweep merge) and a
  // chain replay once per file. Each such reserve must not reallocate the
  // columns to the exact new size, or every day copies all earlier rows.
  constexpr std::size_t kDays = 44;
  constexpr std::size_t kRowsPerDay = 100;
  const auto stream = make_stream(0x44, kDays * kRowsPerDay);
  ObservationStore store;
  const net::Ipv6Address* data = store.target_column().data();
  std::size_t reallocations = 0;
  for (std::size_t day = 0; day < kDays; ++day) {
    store.reserve(store.size() + kRowsPerDay);
    for (std::size_t i = 0; i < kRowsPerDay; ++i) {
      store.add(stream[day * kRowsPerDay + i]);
    }
    if (store.target_column().data() != data) {
      data = store.target_column().data();
      ++reallocations;
    }
  }
  ASSERT_EQ(store.size(), kDays * kRowsPerDay);
  EXPECT_LE(reallocations, 7u);
}

}  // namespace
}  // namespace scent::core
