// Tests for the shared shard-runner primitives (engine/parallel.h): the
// one thread policy every executor resolves its request through, the
// contiguous row partition, and run_shards' inline-at-one-shard +
// exception contract.
#include "engine/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace scent::engine {
namespace {

TEST(EngineParallel, ResolveThreadsHonoursEveryRequest) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  // 0 = hardware concurrency.
  EXPECT_EQ(resolve_threads(0), hw);

  // Any other request passes through untouched — beyond the core count
  // too: the shards time-slice the cores, and the output is the same.
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(hw), hw);
  EXPECT_EQ(resolve_threads(hw + 5), hw + 5);
}

TEST(EngineParallel, ShardRowsTileTheRangeContiguously) {
  for (const std::size_t total :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
        std::size_t{1000}, std::size_t{1000003}}) {
    for (const unsigned shards : {1u, 2u, 3u, 8u, 13u}) {
      std::size_t expect_begin = 0;
      for (unsigned s = 0; s < shards; ++s) {
        const RowRange range = shard_rows(total, shards, s);
        EXPECT_EQ(range.begin, expect_begin);
        EXPECT_LE(range.begin, range.end);
        // Balanced to within one row.
        EXPECT_LE(range.end - range.begin, total / shards + 1);
        expect_begin = range.end;
      }
      EXPECT_EQ(expect_begin, total);
    }
  }
}

TEST(EngineParallel, SingleShardRunsInlineOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  run_shards(1, [&](unsigned s) {
    EXPECT_EQ(s, 0u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(EngineParallel, EveryShardRunsExactlyOnce) {
  constexpr unsigned kShards = 6;
  std::vector<std::atomic<int>> hits(kShards);
  run_shards(kShards, [&](unsigned s) { hits[s].fetch_add(1); });
  for (unsigned s = 0; s < kShards; ++s) EXPECT_EQ(hits[s].load(), 1);
}

TEST(EngineParallel, LowestShardExceptionWinsAfterAllJoin) {
  std::atomic<int> completed{0};
  try {
    run_shards(4, [&](unsigned s) {
      if (s == 1) throw std::runtime_error("shard one");
      if (s == 3) throw std::runtime_error("shard three");
      completed.fetch_add(1);
    });
    FAIL() << "expected a shard exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard one");
  }
  // The non-throwing shards were joined, not abandoned.
  EXPECT_EQ(completed.load(), 2);
}

}  // namespace
}  // namespace scent::engine
