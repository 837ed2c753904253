// journal.h - the structured event journal: one JSON object per line.
//
// Campaigns emit a small number of *notable* events — per-day funnel
// records, rotation windows detected, pathologies classified, tracker
// hits/misses — that deserve durable, machine-readable storage next to the
// CSV corpora core/io.cpp writes. JSONL fits: appendable, greppable, one
// self-describing record per line, parseable by anything.
//
// Writer style follows core/io.cpp: stdio (no iostreams on data paths),
// tolerant reader, and explicit error reporting — a full disk surfaces as
// a false return from event()/close(), never silently.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "sim/sim_time.h"
#include "telemetry/metrics.h"

namespace scent::telemetry {

/// A journal field value. Unsigned sources are stored as int64 (funnel
/// counts fit comfortably; JSON has no unsigned type anyway).
using JournalValue = std::variant<std::int64_t, double, bool, std::string>;

/// One key/value pair of an event. The constructor overload set exists so
/// braced initializers like {"probes", sent_counter} pick the intended
/// arithmetic alternative instead of fighting variant conversion rules.
struct JournalField {
  std::string_view key;
  JournalValue value;

  JournalField(std::string_view k, std::int64_t v) : key(k), value(v) {}
  JournalField(std::string_view k, std::uint64_t v)
      : key(k), value(static_cast<std::int64_t>(v)) {}
  JournalField(std::string_view k, int v)
      : key(k), value(static_cast<std::int64_t>(v)) {}
  JournalField(std::string_view k, unsigned v)
      : key(k), value(static_cast<std::int64_t>(v)) {}
  JournalField(std::string_view k, double v) : key(k), value(v) {}
  JournalField(std::string_view k, bool v) : key(k), value(v) {}
  JournalField(std::string_view k, const char* v)
      : key(k), value(std::string{v}) {}
  JournalField(std::string_view k, std::string_view v)
      : key(k), value(std::string{v}) {}
  JournalField(std::string_view k, std::string v)
      : key(k), value(std::move(v)) {}
};

/// A parsed journal line.
struct JournalEvent {
  std::string type;
  std::vector<std::pair<std::string, JournalValue>> fields;  ///< Minus "type".

  [[nodiscard]] const JournalValue* find(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// JSONL event writer. Events carry a "type" key, a "seq" number drawn
/// from one per-process monotonic counter (so interleaved journals from
/// the same run can be totally ordered after the fact), an automatic
/// "time_us" virtual timestamp when a clock is bound, and the caller's
/// fields.
class Journal {
 public:
  Journal() = default;
  ~Journal() { (void)close(); }
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens (truncates) `path`. Returns false and stays closed on failure.
  bool open(const std::string& path);

  /// Virtual clock used to stamp events with "time_us" (optional).
  void set_clock(const sim::VirtualClock* clock) noexcept { clock_ = clock; }

  /// Optional counter bumped once per dropped event. Registry::
  /// attach_journal binds it to "journal.dropped", so a full disk shows
  /// up in the telemetry summary instead of only in event()'s return.
  void set_drop_counter(Counter* counter) noexcept {
    drop_counter_ = counter;
  }

  /// Appends one event line. Returns false if the journal is closed or the
  /// write failed (the journal stays usable; failures are also remembered
  /// and re-reported by close()).
  bool event(std::string_view type, std::initializer_list<JournalField> fields);

  /// Flush-closes the file. Returns false if any write (including buffered
  /// data flushed here — the disk-full case) failed. Idempotent.
  bool close();

  [[nodiscard]] bool is_open() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] std::size_t events_written() const noexcept { return events_; }
  /// Events lost to failed writes on this journal (never silent: also
  /// mirrored into the drop counter when one is bound).
  [[nodiscard]] std::size_t events_dropped() const noexcept {
    return dropped_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::FILE* handle_ = nullptr;
  std::string path_;
  const sim::VirtualClock* clock_ = nullptr;
  Counter* drop_counter_ = nullptr;
  std::size_t events_ = 0;
  std::size_t dropped_ = 0;
  bool write_failed_ = false;
};

/// Appends one event to the journal attached to `registry`. A no-op
/// returning false when the registry is null or has no journal, so an
/// instrumented layer emits through the one handle it was given.
bool journal_event(const Registry* registry, std::string_view type,
                   std::initializer_list<JournalField> fields);

/// Appends `value` to `out` as JSON (strings escaped and quoted).
void append_json_value(std::string& out, const JournalValue& value);

/// Appends `text` to `out` as a quoted, escaped JSON string.
void append_json_string(std::string& out, std::string_view text);

/// Parses one journal line (a flat JSON object of string/number/bool
/// values). Returns nullopt on malformed input or a missing "type" key.
[[nodiscard]] std::optional<JournalEvent> parse_journal_line(
    std::string_view line);

/// Reads a whole journal file; nullopt if the file cannot be opened.
/// Malformed lines are skipped, counted in *skipped when provided.
[[nodiscard]] std::optional<std::vector<JournalEvent>> load_journal(
    const std::string& path, std::size_t* skipped = nullptr);

}  // namespace scent::telemetry
