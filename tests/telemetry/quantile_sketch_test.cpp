// Tests for the mergeable log-bucketed quantile sketch: bucket geometry,
// randomized differential accuracy against exact sorted quantiles, and the
// merge algebra the shard-order determinism contract rests on (§5c).
#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace scent::telemetry {
namespace {

/// Exact reference: the same 1-based rank rule quantile() uses,
/// floor(q * n) + 1, answered from the sorted sample vector.
std::uint64_t exact_quantile(std::vector<std::uint64_t> sorted, double q) {
  if (sorted.empty()) return 0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(sorted.size())) + 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

/// A paper-shaped latency population: mostly small values with a heavy
/// tail spanning several octaves (the shape of per-batch ingest times).
std::vector<std::uint64_t> make_samples(std::uint64_t seed,
                                        std::size_t count) {
  sim::Rng rng{seed};
  std::vector<std::uint64_t> samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.chance(0.05)) {
      samples.push_back(rng.below(1u << 30));  // tail: up to ~1s in ns
    } else if (rng.chance(0.5)) {
      samples.push_back(rng.below(1u << 12));  // body
    } else {
      samples.push_back(rng.below(48));        // exact small buckets
    }
  }
  return samples;
}

TEST(QuantileSketch, BucketGeometryRoundTrips) {
  // Every bucket's lower bound maps back to that bucket, the bucket above
  // starts strictly later, and the representative lies inside the bucket.
  for (std::size_t i = 0; i + 1 < QuantileSketch::kBucketCount; ++i) {
    const std::uint64_t lo = QuantileSketch::lower_bound_for(i);
    const std::uint64_t next = QuantileSketch::lower_bound_for(i + 1);
    ASSERT_EQ(QuantileSketch::index_for(lo), i) << "bucket " << i;
    ASSERT_LT(lo, next) << "bucket " << i;
    ASSERT_EQ(QuantileSketch::index_for(next - 1), i) << "bucket " << i;
    const std::uint64_t rep = QuantileSketch::representative_for(i);
    ASSERT_LE(lo, rep) << "bucket " << i;
    ASSERT_LT(rep, next) << "bucket " << i;
  }
  // The full 64-bit range lands in the last bucket.
  EXPECT_EQ(QuantileSketch::index_for(~std::uint64_t{0}),
            QuantileSketch::kBucketCount - 1);
}

TEST(QuantileSketch, SmallValuesAreExact) {
  QuantileSketch sketch;
  for (std::uint64_t v = 0; v < QuantileSketch::kSubCount; ++v) {
    sketch.observe(v);
  }
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.99}) {
    std::vector<std::uint64_t> sorted(QuantileSketch::kSubCount);
    for (std::uint64_t v = 0; v < sorted.size(); ++v) sorted[v] = v;
    EXPECT_EQ(sketch.quantile(q), exact_quantile(sorted, q)) << "q=" << q;
  }
}

TEST(QuantileSketch, RandomizedDifferentialVsSortedExact) {
  std::vector<std::vector<std::uint64_t>> inputs;
  for (const std::uint64_t seed : {0xA1ull, 0xB2ull, 0xC3ull, 0xD4ull}) {
    inputs.push_back(make_samples(seed, 20000));
  }
  // Two samples pin the rank rule: p50 of {1, 100} is rank
  // floor(0.5 * 2) + 1 = 2, i.e. 100 — a ceil(q * n) rank would give 1.
  inputs.push_back({1, 100});
  EXPECT_EQ(exact_quantile(inputs.back(), 0.5), 100u);

  for (std::size_t input = 0; input < inputs.size(); ++input) {
    const std::vector<std::uint64_t>& samples = inputs[input];
    QuantileSketch sketch;
    for (const std::uint64_t v : samples) sketch.observe(v);

    auto sorted = samples;
    std::sort(sorted.begin(), sorted.end());

    EXPECT_EQ(sketch.count(), samples.size());
    EXPECT_EQ(sketch.min(), sorted.front());
    EXPECT_EQ(sketch.max(), sorted.back());

    for (const double q :
         {0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const std::uint64_t exact = exact_quantile(sorted, q);
      const std::uint64_t approx = sketch.quantile(q);
      const double bound =
          static_cast<double>(exact) * QuantileSketch::kRelativeError;
      const double diff = exact > approx
                              ? static_cast<double>(exact - approx)
                              : static_cast<double>(approx - exact);
      EXPECT_LE(diff, bound)
          << "input=" << input << " q=" << q << " exact=" << exact
          << " approx=" << approx;
    }
  }
}

TEST(QuantileSketch, MergeIsAssociativeAndCommutative) {
  const auto samples = make_samples(0x5EED, 9001);
  // Serial reference: one sketch over the whole stream.
  QuantileSketch serial;
  for (const std::uint64_t v : samples) serial.observe(v);

  // Three uneven parts.
  QuantileSketch a, b, c;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i < 100 ? a : i < 4000 ? b : c).observe(samples[i]);
  }

  QuantileSketch left_first = a;   // (a + b) + c
  left_first.merge_from(b);
  left_first.merge_from(c);
  QuantileSketch right_first = b;  // a + (b + c)
  right_first.merge_from(c);
  QuantileSketch a_copy = a;
  a_copy.merge_from(right_first);
  QuantileSketch reversed = c;     // c + b + a
  reversed.merge_from(b);
  reversed.merge_from(a);

  EXPECT_TRUE(left_first == serial);
  EXPECT_TRUE(a_copy == serial);
  EXPECT_TRUE(reversed == serial);

  // Merging an empty sketch is the identity, in both directions.
  QuantileSketch empty;
  QuantileSketch with_empty = serial;
  with_empty.merge_from(empty);
  EXPECT_TRUE(with_empty == serial);
  QuantileSketch from_empty;
  from_empty.merge_from(serial);
  EXPECT_TRUE(from_empty == serial);
}

TEST(QuantileSketch, ShardPartitionMergeIsBitIdenticalAtAnyShardCount) {
  // The §5c contract in miniature: contiguous shard partitions merged in
  // shard order must equal the serial sketch exactly — full state, not
  // just the exported quantiles.
  const auto samples = make_samples(0x71A, 12345);
  QuantileSketch serial;
  for (const std::uint64_t v : samples) serial.observe(v);

  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    std::vector<QuantileSketch> local(shards);
    for (unsigned s = 0; s < shards; ++s) {
      const std::size_t begin = samples.size() * s / shards;
      const std::size_t end = samples.size() * (s + 1) / shards;
      for (std::size_t i = begin; i < end; ++i) local[s].observe(samples[i]);
    }
    QuantileSketch merged;
    for (unsigned s = 0; s < shards; ++s) merged.merge_from(local[s]);
    EXPECT_TRUE(merged == serial) << shards << " shards";
    EXPECT_EQ(merged.quantile(0.999), serial.quantile(0.999));
  }
}

TEST(QuantileSketch, ResetClearsAllState) {
  QuantileSketch sketch;
  sketch.observe(17);
  sketch.observe(123456);
  sketch.reset();
  EXPECT_TRUE(sketch == QuantileSketch{});
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.quantile(0.5), 0u);
}

}  // namespace
}  // namespace scent::telemetry
