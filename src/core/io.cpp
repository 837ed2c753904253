#include "core/io.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>

#include "corpus/file.h"

namespace scent::core {
namespace {

using corpus::File;

/// Strips trailing CR/LF and surrounding spaces.
std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r' ||
                        s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  return s;
}

bool is_comment_or_blank(std::string_view s) {
  return s.empty() || s.front() == '#';
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

bool save_prefixes(const std::string& path,
                   const std::vector<net::Prefix>& prefixes,
                   const std::string& header_comment) {
  File file{path, "w"};
  if (!file) return false;
  bool ok = true;
  if (!header_comment.empty()) {
    ok = std::fprintf(file.handle, "# %s\n", header_comment.c_str()) >= 0 && ok;
  }
  for (const auto& prefix : prefixes) {
    ok = std::fprintf(file.handle, "%s\n", prefix.to_string().c_str()) >= 0 &&
         ok;
  }
  return file.close() && ok;
}

std::optional<std::vector<net::Prefix>> load_prefixes(const std::string& path,
                                                      LoadStats* stats) {
  File file{path, "r"};
  if (!file) return std::nullopt;
  std::vector<net::Prefix> prefixes;
  LoadStats local;
  char line[256];
  while (std::fgets(line, sizeof line, file.handle) != nullptr) {
    const std::string_view text = trim(line);
    if (is_comment_or_blank(text)) continue;
    if (const auto prefix = net::Prefix::parse(text)) {
      prefixes.push_back(*prefix);
      ++local.loaded;
    } else {
      ++local.skipped;
    }
  }
  if (stats != nullptr) *stats = local;
  return prefixes;
}

bool save_observations(const std::string& path,
                       const ObservationStore& store) {
  File file{path, "w"};
  if (!file) return false;
  bool ok =
      std::fprintf(file.handle, "target,response,type,code,time_us\n") >= 0;
  for (const auto& obs : store.all()) {
    ok = std::fprintf(file.handle, "%s,%s,%u,%u,%" PRId64 "\n",
                      obs.target.to_string().c_str(),
                      obs.response.to_string().c_str(),
                      static_cast<unsigned>(obs.type),
                      static_cast<unsigned>(obs.code), obs.time) >= 0 &&
         ok;
  }
  return file.close() && ok;
}

std::optional<Observation> parse_observation_row(std::string_view line) {
  const std::string_view text = trim(line);
  // Split into exactly five comma-separated fields.
  std::string_view fields[5];
  std::size_t field = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ',') {
      if (field >= 5) return std::nullopt;  // too many fields
      fields[field++] = text.substr(start, i - start);
      start = i + 1;
    }
  }
  if (field != 5) return std::nullopt;

  const auto target = net::Ipv6Address::parse(fields[0]);
  const auto response = net::Ipv6Address::parse(fields[1]);
  const auto type = parse_u64(fields[2]);
  const auto code = parse_u64(fields[3]);
  if (!target || !response || !type || !code || *type > 255 || *code > 255) {
    return std::nullopt;
  }
  // time_us may be negative in principle; parse sign manually.
  std::string_view time_text = fields[4];
  bool negative = false;
  if (!time_text.empty() && time_text.front() == '-') {
    negative = true;
    time_text.remove_prefix(1);
  }
  const auto magnitude = parse_u64(time_text);
  if (!magnitude) return std::nullopt;

  Observation obs;
  obs.target = *target;
  obs.response = *response;
  obs.type = static_cast<wire::Icmpv6Type>(*type);
  obs.code = static_cast<std::uint8_t>(*code);
  obs.time = negative ? -static_cast<sim::TimePoint>(*magnitude)
                      : static_cast<sim::TimePoint>(*magnitude);
  return obs;
}

std::optional<ObservationStore> load_observations(const std::string& path,
                                                  LoadStats* stats) {
  File file{path, "r"};
  if (!file) return std::nullopt;
  ObservationStore store;
  LoadStats local;
  char line[512];
  bool first = true;
  while (std::fgets(line, sizeof line, file.handle) != nullptr) {
    const std::string_view text = trim(line);
    if (is_comment_or_blank(text)) continue;
    if (first && text.starts_with("target,")) {
      first = false;
      continue;  // header row
    }
    first = false;
    if (const auto obs = parse_observation_row(text)) {
      store.add(*obs);
      ++local.loaded;
    } else {
      ++local.skipped;
    }
  }
  if (stats != nullptr) *stats = local;
  return store;
}

}  // namespace scent::core
