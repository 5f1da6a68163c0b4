// Span-trace export and analysis.
//
// Three layers over obs::SpanSnapshot (see obs/span.hpp; not to be
// confused with vfs/trace.hpp, which records/replays the operations
// themselves):
//  * Export — Chrome trace-event JSON (B/E duration pairs, `ts` in
//    microseconds, one track per (pid, tid)) loadable in Perfetto or
//    chrome://tracing. Snapshots from many trials merge into one file
//    via per-trial pid/tid offsets plus `process_name` metadata events.
//  * Parse/validate — trace events read through common/json.hpp's
//    depth-capped parse_json, plus a validator for the properties
//    tests and `trace-report` rely on: well-formed, monotone `ts` per
//    (pid, tid) track, matching B/E pairs.
//  * Analyze — folds a parsed trace into the critical-path summary the
//    `cryptodrop trace-report` subcommand prints: per-stage self-time
//    table, top-k slowest operations with their stage breakdown, and
//    per-indicator cost attribution ("what would dropping sdhash buy").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "obs/span.hpp"

namespace cryptodrop::obs {

// --- export ------------------------------------------------------------

/// Per-snapshot knobs for merging many trials into one trace file.
struct TraceExportOptions {
  /// Added to every span's pid/tid so trials land on distinct tracks.
  std::uint64_t pid_offset = 0;
  std::uint64_t tid_offset = 0;
  /// When non-empty, emitted as a `process_name` metadata event for
  /// every pid the snapshot touches (Perfetto's track label).
  std::string process_label;
};

/// Appends one snapshot's spans to `events` (a Json array) as B/E
/// duration-event pairs, reconstructing each thread's open/close nesting
/// from parentage. Spans whose parent was evicted render as roots.
void append_trace_events(Json& events, const SpanSnapshot& snapshot,
                         const TraceExportOptions& options = {});

/// A complete single-snapshot trace document:
/// {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}.
[[nodiscard]] Json to_trace_json(const SpanSnapshot& snapshot,
                                 const TraceExportOptions& options = {});

/// A valid trace document with zero events (what a
/// -DCRYPTODROP_NO_METRICS build writes).
[[nodiscard]] Json empty_trace_json();

// --- parse / validate --------------------------------------------------

/// One parsed trace event (the subset of the Chrome schema we emit).
struct TraceEvent {
  std::string name;
  char phase = '?';  ///< 'B', 'E', 'M', ...
  double ts = 0.0;   ///< Microseconds.
  std::int64_t pid = 0;
  std::int64_t tid = 0;
  /// Scalar args, values stringified ("3.5", "write", "true").
  std::vector<std::pair<std::string, std::string>> args;
};

/// Parses a trace document (either {"traceEvents": [...]} or a bare
/// event array). Fails with invalid_argument on malformed JSON, nesting
/// deeper than kMaxJsonDepth, a missing/ill-typed traceEvents array, or
/// a `pid`/`tid` that is not an integer within ±2^53.
[[nodiscard]] Result<std::vector<TraceEvent>> parse_trace_events(
    std::string_view text);

/// Checks the invariants the exporter guarantees: monotone ts per
/// (pid, tid) track and matching, properly nested B/E pairs (metadata
/// events are exempt). Returns the first violation found.
[[nodiscard]] Status validate_trace_events(
    const std::vector<TraceEvent>& events);

// --- critical-path analysis -------------------------------------------

/// Aggregate cost of one span name across the trace. `self_us` is total
/// duration minus time spent in child spans — the stage's own cost.
struct StageCost {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// One root operation, for the top-k slowest table.
struct SlowOp {
  std::string op;    ///< The root span's `op` arg ("write", ...).
  std::string path;  ///< The root span's `path` arg.
  std::int64_t pid = 0;
  double ts = 0.0;
  double dur_us = 0.0;
  /// Self time inside this op per stage name, largest first.
  std::vector<std::pair<std::string, double>> stage_self_us;
};

/// Measured cost attributable to one indicator: its measurement stages'
/// self time (entropy → entropy_delta, magic sniff → type_change,
/// sdhash digest+compare → similarity_drop) plus score_update spans by
/// their `indicator` arg.
struct IndicatorCost {
  std::string indicator;
  std::uint64_t spans = 0;
  double self_us = 0.0;
};

/// The folded critical-path summary of one trace.
struct TraceReport {
  std::size_t events = 0;  ///< B/E events analyzed.
  std::size_t ops = 0;     ///< Root spans (operations).
  double total_self_us = 0.0;
  std::vector<StageCost> stages;          ///< Self time, largest first.
  std::vector<SlowOp> slowest;            ///< Duration, largest first.
  std::vector<IndicatorCost> indicators;  ///< Self time, largest first.
};

/// Folds parsed events into a TraceReport, keeping the `top_k` slowest
/// root operations.
[[nodiscard]] TraceReport analyze_trace(const std::vector<TraceEvent>& events,
                                        std::size_t top_k = 10);

/// Renders the report as the aligned text tables `cryptodrop
/// trace-report` prints.
[[nodiscard]] std::string format_trace_report(const TraceReport& report);

}  // namespace cryptodrop::obs
