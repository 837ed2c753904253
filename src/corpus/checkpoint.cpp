#include "corpus/checkpoint.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>

#include "corpus/file.h"

namespace scent::corpus {
namespace {

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

/// Splits on runs of spaces/tabs; returns false if there are more than
/// `max_fields` fields.
bool split_fields(std::string_view text, std::string_view* fields,
                  std::size_t max_fields, std::size_t& count) {
  count = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    if (i >= text.size()) break;
    const std::size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\t') ++i;
    if (count >= max_fields) return false;
    fields[count++] = text.substr(start, i - start);
  }
  return true;
}

template <typename Int>
std::optional<Int> parse_int(std::string_view text) {
  Int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::string snapshot_file_name(std::size_t day_ordinal) {
  char name[32];
  std::snprintf(name, sizeof name, "day_%04zu.snap", day_ordinal);
  return name;
}

std::string manifest_path(const std::string& dir) {
  return dir + "/manifest.txt";
}

bool save_checkpoint(const std::string& dir,
                     const CampaignCheckpoint& checkpoint) {
  const std::string final_path = manifest_path(dir);
  const std::string tmp_path = final_path + ".tmp";
  {
    File file{tmp_path, "w"};
    if (!file) return false;
    std::FILE* f = file.handle;
    bool ok = std::fprintf(f, "# scent campaign checkpoint manifest\n") >= 0;
    ok = std::fprintf(f, "version %" PRIu32 "\n", checkpoint.version) >= 0 && ok;
    ok = std::fprintf(f, "seed %" PRIu64 "\n", checkpoint.seed) >= 0 && ok;
    ok = std::fprintf(f, "first_day %" PRId64 "\n", checkpoint.first_day) >=
             0 &&
         ok;
    ok = std::fprintf(f, "scan_tod_us %" PRId64 "\n",
                      checkpoint.scan_time_of_day) >= 0 &&
         ok;
    ok = std::fprintf(f, "alloc_after_day0 %d\n",
                      checkpoint.allocation_granularity_after_day0 ? 1 : 0) >=
             0 &&
         ok;
    ok = std::fprintf(f, "targets_digest %" PRIu64 "\n",
                      checkpoint.targets_digest) >= 0 &&
         ok;
    for (const auto& [asn, length] : checkpoint.allocation_length_by_as) {
      ok = std::fprintf(f, "as %" PRIu32 " %u\n", asn, length) >= 0 && ok;
    }
    for (const auto& day : checkpoint.days) {
      ok = std::fprintf(f,
                        "day %" PRId64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                        " %" PRIu64 " %" PRId64 " %s\n",
                        day.day, day.probes, day.responses,
                        day.unique_eui64_iids, day.rows, day.clock_us,
                        day.snapshot_file.c_str()) >= 0 &&
           ok;
    }
    ok = std::fprintf(f, "end %zu\n", checkpoint.days.size()) >= 0 && ok;
    if (!(file.close() && ok)) {
      std::remove(tmp_path.c_str());
      return false;
    }
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

std::optional<CampaignCheckpoint> load_checkpoint(const std::string& dir) {
  File file{manifest_path(dir), "r"};
  if (!file) return std::nullopt;

  CampaignCheckpoint checkpoint;
  bool version_seen = false;
  bool end_seen = false;
  char line[512];
  while (std::fgets(line, sizeof line, file.handle) != nullptr) {
    const std::string_view text = trim(line);
    if (text.empty() || text.front() == '#') continue;
    std::string_view fields[8];
    std::size_t count = 0;
    if (!split_fields(text, fields, 8, count) || count == 0) {
      return std::nullopt;
    }
    const std::string_view key = fields[0];
    if (key == "version" && count == 2) {
      const auto v = parse_int<std::uint32_t>(fields[1]);
      if (!v || *v != kCheckpointFormatVersion) return std::nullopt;
      checkpoint.version = *v;
      version_seen = true;
    } else if (key == "seed" && count == 2) {
      const auto v = parse_int<std::uint64_t>(fields[1]);
      if (!v) return std::nullopt;
      checkpoint.seed = *v;
    } else if (key == "first_day" && count == 2) {
      const auto v = parse_int<std::int64_t>(fields[1]);
      if (!v) return std::nullopt;
      checkpoint.first_day = *v;
    } else if (key == "scan_tod_us" && count == 2) {
      const auto v = parse_int<std::int64_t>(fields[1]);
      if (!v) return std::nullopt;
      checkpoint.scan_time_of_day = *v;
    } else if (key == "alloc_after_day0" && count == 2) {
      const auto v = parse_int<int>(fields[1]);
      if (!v || (*v != 0 && *v != 1)) return std::nullopt;
      checkpoint.allocation_granularity_after_day0 = *v == 1;
    } else if (key == "targets_digest" && count == 2) {
      const auto v = parse_int<std::uint64_t>(fields[1]);
      if (!v) return std::nullopt;
      checkpoint.targets_digest = *v;
    } else if (key == "as" && count == 3) {
      const auto asn = parse_int<routing::Asn>(fields[1]);
      const auto length = parse_int<unsigned>(fields[2]);
      if (!asn || !length || *length > 128) return std::nullopt;
      checkpoint.allocation_length_by_as[*asn] = *length;
    } else if (key == "day" && count == 8) {
      CheckpointDay day;
      const auto abs_day = parse_int<std::int64_t>(fields[1]);
      const auto probes = parse_int<std::uint64_t>(fields[2]);
      const auto responses = parse_int<std::uint64_t>(fields[3]);
      const auto iids = parse_int<std::uint64_t>(fields[4]);
      const auto rows = parse_int<std::uint64_t>(fields[5]);
      const auto clock_us = parse_int<std::int64_t>(fields[6]);
      if (!abs_day || !probes || !responses || !iids || !rows || !clock_us ||
          fields[7].empty()) {
        return std::nullopt;
      }
      day.day = *abs_day;
      day.probes = *probes;
      day.responses = *responses;
      day.unique_eui64_iids = *iids;
      day.rows = *rows;
      day.clock_us = *clock_us;
      day.snapshot_file = std::string{fields[7]};
      checkpoint.days.push_back(std::move(day));
    } else if (key == "end" && count == 2) {
      const auto n = parse_int<std::uint64_t>(fields[1]);
      if (!n || *n != checkpoint.days.size()) return std::nullopt;
      end_seen = true;
      break;  // the marker is the last meaningful line
    }
    // Unknown keys (and known keys with unexpected arity) fall through:
    // ignored for forward compatibility.
  }
  if (!version_seen || !end_seen) return std::nullopt;
  return checkpoint;
}

}  // namespace scent::corpus
