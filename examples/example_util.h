// example_util.h - CLI plumbing shared by every example.
//
// The shared flags, parsed identically everywhere:
//   --threads=N      worker shards for engine-backed sweeps: a plain
//                    decimal in [0, kMaxThreads] (0 = hardware
//                    concurrency); bit-identical results at any value.
//   --out-dir=DIR    where journals, snapshots and other artifacts land
//                    (created if needed; default "." — never a hardcoded
//                    file name in the repo root).
//   --trace-out=FILE write a Chrome trace-event JSON timeline of the run
//                    (open in https://ui.perfetto.dev or chrome://tracing).
#pragma once

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "telemetry/export.h"
#include "telemetry/recorder.h"

namespace scent::examples {

/// Largest --threads= request accepted. Every request is honoured exactly
/// (one shard per thread), so a typo must not turn into millions of them.
inline constexpr unsigned kMaxThreads = 1024;

/// Parses a --threads= value: plain decimal digits, at most kMaxThreads.
/// No sign, no whitespace, no trailing characters, not empty.
[[nodiscard]] inline bool parse_threads(const char* text,
                                        unsigned& out) noexcept {
  if (*text == '\0') return false;
  unsigned value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    value = value * 10 + static_cast<unsigned>(*p - '0');
    if (value > kMaxThreads) return false;
  }
  out = value;
  return true;
}

struct Cli {
  unsigned threads = 1;
  bool threads_ok = true;  ///< False when --threads= was not a valid count.
  std::string out_dir = ".";
  bool out_dir_ok = true;  ///< False when --out-dir could not be created.
  std::string trace_out;   ///< Empty = tracing off.

  /// Parses the shared flags; unrecognized arguments are left for the
  /// example's own parsing.
  static Cli parse(int argc, char** argv) {
    Cli cli;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--threads=", 10) == 0) {
        cli.threads_ok = parse_threads(argv[i] + 10, cli.threads);
        if (!cli.threads_ok) {
          std::fprintf(stderr,
                       "error: --threads=%s is not a number in [0, %u]\n",
                       argv[i] + 10, kMaxThreads);
        }
      } else if (std::strncmp(argv[i], "--out-dir=", 10) == 0) {
        cli.out_dir = argv[i] + 10;
      } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
        cli.trace_out = argv[i] + 12;
      }
    }
    if (cli.out_dir.empty()) cli.out_dir = ".";
    if (cli.out_dir != ".") {
      std::error_code ec;
      std::filesystem::create_directories(cli.out_dir, ec);
      // create_directories reports false-without-error when the directory
      // already exists, so test existence, not the return value. An example
      // that cannot land artifacts must fail loudly, not write nothing and
      // exit 0 — main() checks require_out_dir() before doing any work.
      cli.out_dir_ok = std::filesystem::is_directory(cli.out_dir, ec);
      if (!cli.out_dir_ok) {
        std::fprintf(stderr, "error: cannot create --out-dir=%s\n",
                     cli.out_dir.c_str());
      }
    }
    return cli;
  }

  /// Exit status for an invalid --threads= or an unusable --out-dir, or
  /// 0. Call first in main():
  ///   if (int rc = cli.require_valid()) return rc;
  [[nodiscard]] int require_valid() const noexcept {
    return threads_ok && out_dir_ok ? 0 : 2;
  }

  /// Routes an artifact file name through the output directory.
  [[nodiscard]] std::string path(const std::string& file) const {
    return out_dir + "/" + file;
  }
};

/// Owns the optional trace collector behind --trace-out. collector() is
/// null when tracing is off — the same pointer the instrumented layers
/// null-check — and finish() writes the Chrome trace-event JSON file and
/// reports it on stdout. Safe to call finish() exactly once, at the end.
class TraceSink {
 public:
  explicit TraceSink(const Cli& cli) : path_(cli.trace_out) {
    if (!path_.empty()) {
      collector_ = std::make_unique<telemetry::TraceCollector>();
    }
  }

  [[nodiscard]] telemetry::TraceCollector* collector() noexcept {
    return collector_.get();
  }

  /// Writes the trace when enabled. Returns false only on write failure.
  bool finish() {
    if (collector_ == nullptr) return true;
    if (!telemetry::write_chrome_trace(path_, *collector_)) {
      std::fprintf(stderr, "trace write failed: %s\n", path_.c_str());
      return false;
    }
    std::printf("trace: %s (%llu events across %zu lanes, %llu dropped)\n",
                path_.c_str(),
                static_cast<unsigned long long>(collector_->total_events()),
                collector_->lanes().size(),
                static_cast<unsigned long long>(collector_->total_dropped()));
    return true;
  }

 private:
  std::string path_;
  std::unique_ptr<telemetry::TraceCollector> collector_;
};

}  // namespace scent::examples
