#include "telemetry/journal.h"

#include <atomic>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdlib>

namespace scent::telemetry {

namespace {

/// One per-process sequence counter shared by every Journal instance:
/// "seq" totally orders events across concurrently written journals of
/// the same run. Relaxed is enough — monotonic uniqueness is the contract,
/// not cross-field synchronization.
std::atomic<std::uint64_t> g_journal_seq{0};

/// Skips spaces and tabs (the writer never emits them, but hand-edited
/// journals are legitimate input).
void skip_ws(std::string_view& s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
}

bool consume(std::string_view& s, char c) {
  skip_ws(s);
  if (s.empty() || s.front() != c) return false;
  s.remove_prefix(1);
  return true;
}

/// Parses a quoted JSON string (after the opening quote has NOT yet been
/// consumed). Handles the escapes the writer emits plus \uXXXX for
/// codepoints below 256.
std::optional<std::string> parse_string(std::string_view& s) {
  if (!consume(s, '"')) return std::nullopt;
  std::string out;
  while (!s.empty()) {
    const char c = s.front();
    s.remove_prefix(1);
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (s.empty()) return std::nullopt;
    const char esc = s.front();
    s.remove_prefix(1);
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (s.size() < 4) return std::nullopt;
        unsigned code = 0;
        const auto [ptr, ec] =
            std::from_chars(s.data(), s.data() + 4, code, 16);
        if (ec != std::errc{} || ptr != s.data() + 4) return std::nullopt;
        s.remove_prefix(4);
        out += code < 256 ? static_cast<char>(code) : '?';
        break;
      }
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;  // unterminated
}

std::optional<JournalValue> parse_value(std::string_view& s) {
  skip_ws(s);
  if (s.empty()) return std::nullopt;
  if (s.front() == '"') {
    auto str = parse_string(s);
    if (!str) return std::nullopt;
    return JournalValue{std::move(*str)};
  }
  if (s.starts_with("true")) {
    s.remove_prefix(4);
    return JournalValue{true};
  }
  if (s.starts_with("false")) {
    s.remove_prefix(5);
    return JournalValue{false};
  }
  // Number: integer unless it contains '.', 'e', or 'E'.
  std::size_t end = 0;
  bool floating = false;
  while (end < s.size()) {
    const char c = s[end];
    if (c == '.' || c == 'e' || c == 'E') floating = true;
    if (std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '+' && c != '.' && c != 'e' && c != 'E') {
      break;
    }
    ++end;
  }
  if (end == 0) return std::nullopt;
  const std::string_view num = s.substr(0, end);
  if (floating) {
    // std::from_chars<double> is not universally available; the number is
    // short and already validated, so strtod on a bounded copy is fine.
    const std::string copy{num};
    char* parse_end = nullptr;
    const double value = std::strtod(copy.c_str(), &parse_end);
    if (parse_end != copy.c_str() + copy.size()) return std::nullopt;
    s.remove_prefix(end);
    return JournalValue{value};
  }
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(num.data(), num.data() + num.size(),
                                         value);
  if (ec != std::errc{} || ptr != num.data() + num.size()) return std::nullopt;
  s.remove_prefix(end);
  return JournalValue{value};
}

}  // namespace

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_value(std::string& out, const JournalValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, *i);
    out += buf;
  } else if (const auto* d = std::get_if<double>(&value)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", *d);
    out += buf;
  } else if (const auto* b = std::get_if<bool>(&value)) {
    out += *b ? "true" : "false";
  } else {
    append_json_string(out, std::get<std::string>(value));
  }
}

bool Journal::open(const std::string& path) {
  (void)close();
  handle_ = std::fopen(path.c_str(), "w");
  if (handle_ == nullptr) return false;
  path_ = path;
  events_ = 0;
  dropped_ = 0;
  write_failed_ = false;
  return true;
}

bool Journal::event(std::string_view type,
                    std::initializer_list<JournalField> fields) {
  if (handle_ == nullptr) return false;
  std::string line;
  line.reserve(64 + fields.size() * 24);
  line += "{\"type\":";
  append_json_string(line, type);
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, ",\"seq\":%" PRIu64,
                  g_journal_seq.fetch_add(1, std::memory_order_relaxed));
    line += buf;
  }
  if (clock_ != nullptr) {
    char buf[32];
    std::snprintf(buf, sizeof buf, ",\"time_us\":%" PRId64, clock_->now());
    line += buf;
  }
  for (const auto& field : fields) {
    line += ',';
    append_json_string(line, field.key);
    line += ':';
    append_json_value(line, field.value);
  }
  line += "}\n";
  if (std::fwrite(line.data(), 1, line.size(), handle_) != line.size()) {
    write_failed_ = true;
    ++dropped_;
    if (drop_counter_ != nullptr) drop_counter_->inc();
    return false;
  }
  ++events_;
  return true;
}

bool journal_event(const Registry* registry, std::string_view type,
                   std::initializer_list<JournalField> fields) {
  if (registry == nullptr || registry->journal() == nullptr) return false;
  return registry->journal()->event(type, fields);
}

void Registry::attach_journal(Journal* journal) {
  if (journal_ != nullptr && journal_ != journal) {
    journal_->set_drop_counter(nullptr);
  }
  journal_ = journal;
  if (journal_ != nullptr) {
    journal_->set_drop_counter(&counter("journal.dropped"));
  }
}

bool Journal::close() {
  if (handle_ == nullptr) return !write_failed_;
  const bool stream_clean = std::ferror(handle_) == 0;
  const bool close_clean = std::fclose(handle_) == 0;
  handle_ = nullptr;
  write_failed_ = write_failed_ || !stream_clean || !close_clean;
  return !write_failed_;
}

std::optional<JournalEvent> parse_journal_line(std::string_view line) {
  // Trim trailing newline/CR.
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  std::string_view s = line;
  if (!consume(s, '{')) return std::nullopt;
  JournalEvent event;
  bool have_type = false;
  skip_ws(s);
  if (!s.empty() && s.front() == '}') {
    return std::nullopt;  // empty object: no type
  }
  while (true) {
    auto key = parse_string(s);
    if (!key || !consume(s, ':')) return std::nullopt;
    auto value = parse_value(s);
    if (!value) return std::nullopt;
    if (*key == "type") {
      const auto* str = std::get_if<std::string>(&*value);
      if (str == nullptr) return std::nullopt;
      event.type = *str;
      have_type = true;
    } else {
      event.fields.emplace_back(std::move(*key), std::move(*value));
    }
    if (consume(s, ',')) continue;
    if (consume(s, '}')) break;
    return std::nullopt;
  }
  skip_ws(s);
  if (!s.empty() || !have_type) return std::nullopt;
  return event;
}

std::optional<std::vector<JournalEvent>> load_journal(const std::string& path,
                                                      std::size_t* skipped) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return std::nullopt;
  std::vector<JournalEvent> events;
  std::size_t bad = 0;
  char line[4096];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    const std::string_view text{line};
    if (text.find_first_not_of(" \t\r\n") == std::string_view::npos) continue;
    if (auto event = parse_journal_line(text)) {
      events.push_back(std::move(*event));
    } else {
      ++bad;
    }
  }
  std::fclose(f);
  if (skipped != nullptr) *skipped = bad;
  return events;
}

}  // namespace scent::telemetry
