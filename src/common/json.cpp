#include "common/json.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace cryptodrop {

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::object) return nullptr;
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Json::string_or(std::string_view key,
                            std::string_view fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->is_string() ? v->str : std::string(fallback);
}

double Json::number_or(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->is_number() ? v->number_ : fallback;
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->is_bool() ? v->bool_ : fallback;
}

Status Json::integer_error(std::string_view key, double lo, double hi) {
  return Status(Errc::invalid_argument,
                "`" + std::string(key) + "` must be an integer in [" +
                    Json(lo).to_string() + ", " + Json(hi).to_string() + "]");
}

std::string Json::to_string() const {
  std::string out;
  write(out, /*indent=*/-1, /*depth=*/0);
  return out;
}

std::string Json::to_pretty_string() const {
  std::string out;
  write(out, /*indent=*/2, /*depth=*/0);
  out.push_back('\n');
  return out;
}

namespace {

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/// Index of the first byte at or after `i` that needs escaping, or
/// `s.size()` when none does. SSE2, the x86-64 baseline, tests 16 bytes
/// per step.
std::size_t next_escape(std::string_view s, std::size_t i) {
#if defined(__SSE2__)
  const __m128i quote = _mm_set1_epi8('"');
  const __m128i backslash = _mm_set1_epi8('\\');
  const __m128i control_max = _mm_set1_epi8(0x1f);
  for (; i + 16 <= s.size(); i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.data() + i));
    // Unsigned v <= 0x1f, as min(v, 0x1f) == v; byte compares are signed.
    const __m128i control = _mm_cmpeq_epi8(_mm_min_epu8(v, control_max), v);
    const __m128i hit = _mm_or_si128(
        control, _mm_or_si128(_mm_cmpeq_epi8(v, quote), _mm_cmpeq_epi8(v, backslash)));
    const unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(hit));
    if (mask != 0) return i + static_cast<std::size_t>(std::countr_zero(mask));
  }
#endif
  while (i < s.size() && !needs_escape(s[i])) ++i;
  return i;
}

/// Appends `s` as a quoted JSON string: runs that need no escaping are
/// appended whole.
void escape_into(std::string& out, std::string_view s) {
  out.push_back('"');
  std::size_t i = 0;
  while (true) {
    const std::size_t stop = next_escape(s, i);
    out.append(s.data() + i, stop - i);
    if (stop == s.size()) break;
    const char c = s[stop];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
    i = stop + 1;
  }
  out.push_back('"');
}

void newline(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::null:
      out += "null";
      break;
    case Kind::boolean:
      out += bool_ ? "true" : "false";
      break;
    case Kind::number: {
      // JSON has no NaN or infinity: write them as null.
      if (!std::isfinite(number_)) {
        out += "null";
        break;
      }
      char buf[32];
      // Integers print without a fraction; others with %.10g. The range
      // test comes first, so the cast never sees a value past int64.
      if (number_ >= -0x1p63 && number_ < 0x1p63 &&
          number_ == std::trunc(number_)) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(number_));
      } else {
        const int len = std::snprintf(buf, sizeof(buf), "%.10g", number_);
        // Near DBL_MAX, rounding to 10 digits overflows to a value the
        // reader rejects; 17 digits always read back finite.
        double back = 0.0;
        if (std::from_chars(buf, buf + len, back).ec != std::errc()) {
          std::snprintf(buf, sizeof(buf), "%.17g", number_);
        }
      }
      out += buf;
      break;
    }
    case Kind::string:
      escape_into(out, str);
      break;
    case Kind::object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : fields) {
        if (!first) out.push_back(',');
        first = false;
        newline(out, indent, depth + 1);
        escape_into(out, key);
        out += indent < 0 ? ":" : ": ";
        value.write(out, indent, depth + 1);
      }
      if (!fields.empty()) newline(out, indent, depth);
      out.push_back('}');
      break;
    }
    case Kind::array: {
      out.push_back('[');
      bool first = true;
      for (const Json& value : items) {
        if (!first) out.push_back(',');
        first = false;
        newline(out, indent, depth + 1);
        value.write(out, indent, depth + 1);
      }
      if (!items.empty()) newline(out, indent, depth);
      out.push_back(']');
      break;
    }
  }
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
  std::optional<Json> parse_value(std::size_t depth) {
    skip_ws();
    if (pos >= text.size()) return std::nullopt;
    const char c = text[pos];
    if ((c == '{' || c == '[') && depth == kMaxJsonDepth) return std::nullopt;
    if (c == '{') {
      ++pos;
      Json v = Json::object();
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
      Json v = Json::array();
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
      return Json(std::move(*s));
    }
    if (c == 't') {
      if (!literal("true")) return std::nullopt;
      return Json(true);
    }
    if (c == 'f') {
      if (!literal("false")) return std::nullopt;
      return Json(false);
    }
    if (c == 'n') {
      if (!literal("null")) return std::nullopt;
      return Json();
    }
    // Number.
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '-' ||
            text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    double num = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data() + start, text.data() + pos, num);
    if (ec != std::errc() || ptr != text.data() + pos) return std::nullopt;
    return Json(num);
  }
};

}  // namespace

std::optional<Json> parse_json(std::string_view text) {
  Parser parser{text};
  auto value = parser.parse_value(0);
  if (!value) return std::nullopt;
  parser.skip_ws();
  if (parser.pos != text.size()) return std::nullopt;  // Trailing garbage.
  return value;
}

}  // namespace cryptodrop
