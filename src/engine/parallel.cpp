#include "engine/parallel.h"

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

void run_shards(unsigned shards, const std::function<void(unsigned)>& body) {
  if (shards <= 1) {
    body(0);
    return;
  }
  std::vector<std::exception_ptr> errors(shards);
  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    workers.emplace_back([&body, &errors, s] {
      try {
        body(s);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace scent::engine
