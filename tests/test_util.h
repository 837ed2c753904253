// test_util.h - header-only helpers shared by the test suites: the
// ThreadSanitizer switch and a scratch directory. No library to link.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

namespace scent::test {

#if defined(__SANITIZE_THREAD__)
inline constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kTsan = true;
#else
inline constexpr bool kTsan = false;
#endif
#else
inline constexpr bool kTsan = false;
#endif

/// Picks the thread-sanitizer value when the suite runs under TSan
/// (≈15× slower), so a matrix shrinks there but still shards for real.
template <typename T>
T tsan_or(T tsan, T plain) {
  return kTsan ? tsan : plain;
}

/// A scratch directory under the gtest temp dir, removed with its contents.
/// Named by pid and a per-process serial, so two ctest processes never
/// share one.
struct TempDir {
  std::string path;

  explicit TempDir(const std::string& tag) {
    static std::atomic<unsigned> serial{0};
    path = std::string{::testing::TempDir()} + "/scent_" + tag + "_" +
           std::to_string(::getpid()) + "_" + std::to_string(serial++);
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string file(const std::string& name) const {
    return path + "/" + name;
  }
};

}  // namespace scent::test
