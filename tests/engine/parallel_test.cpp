// Tests for the shared shard-runner primitives (engine/parallel.h): the
// one thread policy every executor resolves its request through, the
// contiguous row partition, run_shards' inline-at-one-shard +
// exception contract, and run_tasks' ascending dynamic claim.
#include "engine/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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

TEST(EngineParallel, RunTasksRunsEveryTaskOnceOnBoundedWorkers) {
  for (const unsigned workers : {1u, 3u, 8u}) {
    for (const std::size_t tasks :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{37}}) {
      SCOPED_TRACE(testing::Message()
                   << "workers=" << workers << " tasks=" << tasks);
      std::vector<std::atomic<int>> hits(tasks);
      std::atomic<unsigned> max_worker{0};
      const std::thread::id caller = std::this_thread::get_id();
      run_tasks(workers, tasks, [&](unsigned worker, std::size_t task) {
        hits[task].fetch_add(1);
        unsigned seen = max_worker.load();
        while (worker > seen &&
               !max_worker.compare_exchange_weak(seen, worker)) {
        }
        // Worker 0 is the calling thread, and it always runs task 0; one
        // worker (or one task) runs inline, with no thread spawned.
        EXPECT_EQ(worker == 0, std::this_thread::get_id() == caller);
        if (task == 0 || workers == 1 || tasks == 1) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
        }
      });
      for (std::size_t t = 0; t < tasks; ++t) EXPECT_EQ(hits[t].load(), 1);
      const std::size_t used =
          std::max<std::size_t>(1, std::min<std::size_t>(workers, tasks));
      EXPECT_LT(max_worker.load(), used);
    }
  }
}

TEST(EngineParallel, RunTasksLetsATaskWaitOnALowerOne) {
  // Task 0 publishes, every later task waits for it: claimed in ascending
  // order, task 0 is always running or done before anyone waits on it.
  std::atomic<bool> ready{false};
  std::atomic<int> saw_ready{0};
  run_tasks(4, 9, [&](unsigned, std::size_t task) {
    if (task == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ready.store(true);
      ready.notify_all();
      return;
    }
    ready.wait(false);
    saw_ready.fetch_add(1);
  });
  EXPECT_EQ(saw_ready.load(), 8);
}

}  // namespace
}  // namespace scent::engine
