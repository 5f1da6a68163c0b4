#include "daemon/wire.hpp"

#include <cctype>
#include <charconv>
#include <cstring>

#include "obs/timeline.hpp"

namespace cryptodrop::daemon {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::object) return nullptr;
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::string ? v->str
                                                 : std::string(fallback);
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::number ? v->num : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::boolean ? v->b : fallback;
}

namespace {

/// Recursive-descent JSON reader over a string_view cursor.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    // Unescaped runs are copied whole: memchr finds the next quote, and
    // a second memchr bounded by it finds the next escape. The quote is
    // searched for again only once an escape (`\"`) has consumed it.
    const char* const begin = text.data();
    const char* const end = begin + text.size();
    const char* quote = nullptr;
    while (true) {
      const char* const run = begin + pos;
      if (quote == nullptr || quote < run) {
        quote = static_cast<const char*>(
            std::memchr(run, '"', static_cast<std::size_t>(end - run)));
        if (quote == nullptr) return std::nullopt;  // Unterminated string.
      }
      const char* const backslash = static_cast<const char*>(
          std::memchr(run, '\\', static_cast<std::size_t>(quote - run)));
      const char* const run_end = backslash != nullptr ? backslash : quote;
      out.append(run, run_end);
      pos = static_cast<std::size_t>(run_end - begin) + 1;
      if (backslash == nullptr) return out;
      const char esc = text[pos++];  // In bounds: `quote` follows it.
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by this project's own serializer).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
  }

  /// Parses the value at `pos`; `depth` counts the arrays and objects
  /// enclosing it, so recursion stops at kMaxJsonDepth.
  std::optional<JsonValue> parse_value(std::size_t depth) {
    skip_ws();
    if (pos >= text.size()) return std::nullopt;
    JsonValue v;
    const char c = text[pos];
    if ((c == '{' || c == '[') && depth == kMaxJsonDepth) return std::nullopt;
    if (c == '{') {
      ++pos;
      v.kind = JsonValue::Kind::object;
      skip_ws();
      if (consume('}')) return v;
      while (true) {
        auto key = parse_string();
        if (!key || !consume(':')) return std::nullopt;
        auto member = parse_value(depth + 1);
        if (!member) return std::nullopt;
        v.fields.emplace_back(std::move(*key), std::move(*member));
        if (consume(',')) continue;
        if (consume('}')) return v;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos;
      v.kind = JsonValue::Kind::array;
      skip_ws();
      if (consume(']')) return v;
      while (true) {
        auto item = parse_value(depth + 1);
        if (!item) return std::nullopt;
        v.items.push_back(std::move(*item));
        if (consume(',')) continue;
        if (consume(']')) return v;
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      v.kind = JsonValue::Kind::string;
      v.str = std::move(*s);
      return v;
    }
    if (c == 't') {
      if (!literal("true")) return std::nullopt;
      v.kind = JsonValue::Kind::boolean;
      v.b = true;
      return v;
    }
    if (c == 'f') {
      if (!literal("false")) return std::nullopt;
      v.kind = JsonValue::Kind::boolean;
      v.b = false;
      return v;
    }
    if (c == 'n') {
      if (!literal("null")) return std::nullopt;
      return v;  // null_
    }
    // Number.
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    double num = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data() + start, text.data() + pos, num);
    if (ec != std::errc() || ptr != text.data() + pos) return std::nullopt;
    v.kind = JsonValue::Kind::number;
    v.num = num;
    return v;
  }
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text) {
  Parser parser{text};
  auto value = parser.parse_value(0);
  if (!value) return std::nullopt;
  parser.skip_ws();
  if (parser.pos != text.size()) return std::nullopt;  // Trailing garbage.
  return value;
}

Json report_to_json(const core::ProcessReport& report) {
  Json indicators = Json::object();
  indicators.set("entropy_delta", report.entropy_events)
      .set("type_change", report.type_change_events)
      .set("similarity_drop", report.similarity_drop_events)
      .set("deletion", report.deletion_events)
      .set("funneling", report.funneling_events)
      .set("burst_rate", report.rate_events);

  Json read_ext = Json::array();
  for (const std::string& ext : report.read_extensions) read_ext.push(ext);
  Json write_ext = Json::array();
  for (const std::string& ext : report.write_extensions) write_ext.push(ext);

  Json timeline = Json::array();
  for (const core::ScoreEvent& event : report.timeline) {
    Json e = Json::object();
    e.set("op_seq", event.op_seq)
        .set("indicator", std::string(core::indicator_name(event.indicator)))
        .set("points", event.points)
        .set("path", event.path);
    if (!event.backend.empty()) e.set("backend", event.backend);
    timeline.push(std::move(e));
  }

  Json j = Json::object();
  j.set("pid", report.pid)
      .set("name", report.name)
      .set("score", report.score)
      .set("threshold", report.threshold)
      .set("suspended", report.suspended)
      .set("union_triggered", report.union_triggered)
      .set("union_count", report.union_count)
      .set("read_entropy_mean", report.read_entropy_mean)
      .set("write_entropy_mean", report.write_entropy_mean)
      .set("indicators", std::move(indicators))
      .set("read_extensions", std::move(read_ext))
      .set("write_extensions", std::move(write_ext))
      .set("timeline", std::move(timeline))
      .set("forensic", obs::to_json(report.forensic));
  return j;
}

Json scoreboard_to_json(const core::EngineSnapshot& snapshot) {
  Json processes = Json::array();
  for (const core::ProcessReport& report : snapshot.processes) {
    processes.push(report_to_json(report));
  }
  Json j = Json::object();
  j.set("default_threshold", snapshot.default_threshold)
      .set("processes", std::move(processes));
  return j;
}

}  // namespace cryptodrop::daemon
