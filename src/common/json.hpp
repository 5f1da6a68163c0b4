// The project's one JSON value type. Reports, daemon replies and span
// traces are built and serialized through it, and parse_json reads the
// daemon's request lines, `cryptodrop trace-report` input and `top`'s
// watch frames back into it.
//
// Objects keep their members in insertion (or document) order. Numbers
// are doubles: integral values print without a fraction, others with
// %.10g, so 10 significant digits survive and a written value reads
// back to what it printed. Strings are escaped per RFC 8259. The reader
// caps nesting at kMaxJsonDepth.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace cryptodrop {

/// Deepest array/object nesting parse_json accepts. The daemon's own
/// replies nest at most seven levels; the cap bounds the reader's
/// recursion, so input like `[[[[...` cannot exhaust the stack.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// A single JSON value: null, boolean, number, string, object or array.
class Json {
 public:
  /// Default-constructs null.
  Json() = default;
  /// Null from the nullptr literal.
  Json(std::nullptr_t) {}  // NOLINT
  /// Boolean.
  Json(bool b) : kind_(Kind::boolean), bool_(b) {}  // NOLINT
  /// Number.
  Json(double d) : kind_(Kind::number), number_(d) {}  // NOLINT
  /// Number from int (always exact in a double).
  Json(int i) : kind_(Kind::number), number_(i) {}  // NOLINT
  /// Number from long; values beyond 2^53 round.
  Json(long i) : kind_(Kind::number), number_(static_cast<double>(i)) {}  // NOLINT
  /// Number from long long; values beyond 2^53 round.
  Json(long long i) : kind_(Kind::number), number_(static_cast<double>(i)) {}  // NOLINT
  /// Number from unsigned long; values beyond 2^53 round.
  Json(unsigned long u) : kind_(Kind::number), number_(static_cast<double>(u)) {}  // NOLINT
  /// Number from unsigned long long; values beyond 2^53 round.
  Json(unsigned long long u) : kind_(Kind::number), number_(static_cast<double>(u)) {}  // NOLINT
  /// Number from unsigned (always exact in a double).
  Json(unsigned u) : kind_(Kind::number), number_(u) {}  // NOLINT
  /// String from a C literal.
  Json(const char* s) : str(s), kind_(Kind::string) {}  // NOLINT
  /// String, taking ownership.
  Json(std::string s) : str(std::move(s)), kind_(Kind::string) {}  // NOLINT
  /// String copied from a view.
  Json(std::string_view s) : str(s), kind_(Kind::string) {}  // NOLINT

  /// An empty object, ready for set().
  static Json object() {
    Json j;
    j.kind_ = Kind::object;
    return j;
  }
  /// An empty array, ready for push().
  static Json array() {
    Json j;
    j.kind_ = Kind::array;
    return j;
  }

  /// Object member, appended in order (a duplicate key is kept; find()
  /// returns the first). Returns *this for chaining.
  Json& set(std::string key, Json value) {
    fields.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  /// Array element. Returns *this for chaining.
  Json& push(Json value) {
    items.push_back(std::move(value));
    return *this;
  }

  /// True when this value is a boolean.
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::boolean; }
  /// True when this value is a number.
  [[nodiscard]] bool is_number() const { return kind_ == Kind::number; }
  /// True when this value is a string.
  [[nodiscard]] bool is_string() const { return kind_ == Kind::string; }
  /// True when this value is an array.
  [[nodiscard]] bool is_array() const { return kind_ == Kind::array; }
  /// True when this value is an object.
  [[nodiscard]] bool is_object() const { return kind_ == Kind::object; }
  /// Element count for arrays, member count for objects.
  [[nodiscard]] std::size_t size() const {
    return kind_ == Kind::array ? items.size() : fields.size();
  }

  /// Member lookup (first match), or nullptr when absent or this is not
  /// an object.
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// String member, or `fallback` when absent or not a string.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;
  /// Numeric member, or `fallback` when absent or not a number.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  /// Boolean member, or `fallback` when absent or not a boolean.
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;

  /// Integer member for ids, counts and cursors: `fallback` when absent
  /// or not a number; the value when it is integral, fits T and lies
  /// within ±2^53 (past that a double skips integers, so an echoed
  /// value could differ); invalid_argument naming the key and the
  /// accepted range otherwise. The range check runs before the cast, so
  /// no client number reaches an undefined double-to-integer conversion.
  template <typename T>
  [[nodiscard]] Result<T> integer_or(std::string_view key, T fallback) const {
    static_assert(std::is_integral_v<T>);
    const Json* v = find(key);
    if (v == nullptr || !v->is_number()) return fallback;
    constexpr double kExact = 9007199254740992.0;  // 2^53
    const double lo =
        std::max(-kExact, static_cast<double>(std::numeric_limits<T>::min()));
    const double hi =
        std::min(kExact, static_cast<double>(std::numeric_limits<T>::max()));
    const double d = v->number_;
    if (d >= lo && d <= hi && d == std::trunc(d)) return static_cast<T>(d);
    return integer_error(key, lo, hi);
  }

  /// Compact serialization.
  [[nodiscard]] std::string to_string() const;
  /// Pretty serialization with 2-space indentation and a final newline.
  [[nodiscard]] std::string to_pretty_string() const;

  // The containers are public so readers can iterate them directly; a
  // value's kind and scalar stay behind the accessors above.

  /// The string; empty unless is_string().
  std::string str;
  /// Array elements in order; empty unless is_array().
  std::vector<Json> items;
  /// Object members in insertion or document order; empty unless
  /// is_object().
  std::vector<std::pair<std::string, Json>> fields;

 private:
  enum class Kind : std::uint8_t { null, boolean, number, string, object, array };

  static Status integer_error(std::string_view key, double lo, double hi);
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::null;
  bool bool_ = false;
  double number_ = 0.0;
};

/// Parses one JSON document (object, array or scalar). Returns nullopt
/// on malformed input, trailing garbage, or nesting deeper than
/// kMaxJsonDepth.
std::optional<Json> parse_json(std::string_view text);

}  // namespace cryptodrop
