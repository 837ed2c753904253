#include "engine/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace scent::engine {

unsigned resolve_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

RowRange shard_rows(std::size_t total, unsigned shards, unsigned s) noexcept {
  if (shards == 0) shards = 1;
  const auto t = static_cast<unsigned long long>(total);
  return RowRange{static_cast<std::size_t>(t * s / shards),
                  static_cast<std::size_t>(t * (s + 1) / shards)};
}

namespace {

/// Runs body(i) for every i in [0, n), each on its own std::thread — or,
/// with `caller_first`, i = 0 on the calling thread once the others are
/// started — and rethrows the lowest index's exception after all joined.
void fan_out(unsigned n, bool caller_first,
             const std::function<void(unsigned)>& body) {
  std::vector<std::exception_ptr> errors(n);
  const auto guarded = [&body, &errors](unsigned i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned i = caller_first ? 1 : 0; i < n; ++i) {
    threads.emplace_back(guarded, i);
  }
  if (caller_first) guarded(0);
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

void run_shards(unsigned shards, const std::function<void(unsigned)>& body) {
  if (shards <= 1) {
    body(0);
    return;
  }
  fan_out(shards, /*caller_first=*/false, body);
}

void run_tasks(unsigned workers, std::size_t tasks,
               const std::function<void(unsigned, std::size_t)>& body) {
  workers = static_cast<unsigned>(std::min<std::size_t>(
      std::max(workers, 1u), std::max<std::size_t>(tasks, 1)));
  // Task 0 is the caller's from the start; the others are claimed in
  // ascending order from one counter.
  std::atomic<std::size_t> next{1};
  fan_out(workers, /*caller_first=*/true, [&](unsigned worker) {
    for (std::size_t task =
             worker == 0 ? 0 : next.fetch_add(1, std::memory_order_relaxed);
         task < tasks; task = next.fetch_add(1, std::memory_order_relaxed)) {
      body(worker, task);
    }
  });
}

}  // namespace scent::engine
