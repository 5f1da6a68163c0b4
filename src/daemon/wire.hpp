// Wire layer for the cryptodropd control API (docs/DAEMON.md).
//
// The control protocol is line-delimited JSON: one request object per
// line in, one response object per line out. The repo's common::Json is
// a serialize-only builder, so this header adds the missing half — a
// small recursive-descent JSON reader (JsonValue / parse_json) — plus
// the response-side serializers shared between the daemon and the
// parity harness: to_json(ProcessReport) is used by BOTH the daemon's
// `verdicts` response and the in-process golden run, so "bit-identical
// scoreboards" is a string comparison of the same serializer's output.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/engine.hpp"

namespace cryptodrop::daemon {

/// A parsed JSON document node (the reader half common::Json lacks).
struct JsonValue {
  /// JSON node kinds. `null_` is also what lookups return on miss.
  enum class Kind : std::uint8_t { null_, boolean, number, string, array, object };

  Kind kind = Kind::null_;
  bool b = false;            ///< Valid when kind == boolean.
  double num = 0.0;          ///< Valid when kind == number.
  std::string str;           ///< Valid when kind == string.
  std::vector<JsonValue> items;  ///< Valid when kind == array.
  /// Key/value pairs in document order. Valid when kind == object.
  std::vector<std::pair<std::string, JsonValue>> fields;

  /// Member lookup (first match), or nullptr when absent / not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// String member, or `fallback` when absent or not a string.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;
  /// Numeric member, or `fallback` when absent or not a number.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  /// Boolean member, or `fallback` when absent or not a boolean.
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
};

/// Deepest array/object nesting parse_json accepts. The daemon's own
/// replies nest at most seven levels; the cap bounds the reader's
/// recursion, so input like `[[[[...` cannot exhaust the stack.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parses one JSON document (object/array/scalar). Returns nullopt on
/// malformed input, trailing garbage or nesting deeper than
/// kMaxJsonDepth.
std::optional<JsonValue> parse_json(std::string_view text);

/// Serializes one process report — score, verdict, indicator counts,
/// entropy means, extension sets, score timeline and forensic timeline —
/// the "per-tenant scoreboard" unit of the daemon parity gate.
Json report_to_json(const core::ProcessReport& report);

/// Serializes the scoreboard half of an engine snapshot: the report
/// list plus the default threshold. Latency and metrics are excluded:
/// they carry wall-clock measurements outside the determinism contract.
Json scoreboard_to_json(const core::EngineSnapshot& snapshot);

}  // namespace cryptodrop::daemon
