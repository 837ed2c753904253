// file.h - the one RAII stdio handle for the library's data files.
//
// The library keeps iostreams off its data paths: snapshots, checkpoint
// manifests, the join's block files and core/io.h's text formats all read
// and write through this handle. It is header-only so core/io.cpp can use
// it without a link dependency on scent_corpus.
#pragma once

#include <cstdio>
#include <string>

namespace scent::corpus {

/// Owns one std::FILE*. The destructor closes it without reporting; call
/// close() to learn whether buffered writes reached the file.
struct File {
  std::FILE* handle = nullptr;

  File() = default;
  File(const std::string& path, const char* mode)
      : handle(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (handle != nullptr) std::fclose(handle);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  explicit operator bool() const noexcept { return handle != nullptr; }

  /// Drops any handle held, unreported, and opens `path`. False if fopen
  /// fails.
  bool open(const std::string& path, const char* mode) {
    if (handle != nullptr) std::fclose(handle);
    handle = std::fopen(path.c_str(), mode);
    return handle != nullptr;
  }

  /// Flush-closes. False if nothing was open, any prior write failed or the
  /// close itself did — stdio buffers writes, so a full disk often only
  /// surfaces here.
  bool close() {
    if (handle == nullptr) return false;
    const bool stream_clean = std::ferror(handle) == 0;
    const bool close_clean = std::fclose(handle) == 0;
    handle = nullptr;
    return stream_clean && close_clean;
  }
};

}  // namespace scent::corpus
