// Include-graph extractor and layer-DAG gate (DESIGN.md §17).
//
// Pass 1 of the whole-repo analyzer: parse `#include "..."` edges over
// every scanned file, resolve them to repo-relative nodes, and check
// the result against the checked-in layer order (tools/lint/layers.txt).
// Two rule families come out of it:
//
//   layer-violation  an include edge that goes up the layer DAG, or
//                    sideways between different layers of equal rank —
//                    the offending edge (from -> to, with layer ranks)
//                    is printed.
//   include-cycle    a file-level include cycle; the full cycle path is
//                    printed. Cycles are reported against their
//                    lexicographically smallest member so allowlist
//                    entries are stable.
//
// Everything operates on in-memory {path -> lines} maps so fixture
// tests can exercise both rules without touching the filesystem.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lint/lint_rules.hpp"

namespace cryptodrop::lint {

/// The parsed layer order from tools/lint/layers.txt: one
/// `rank name prefix [prefix...]` entry per line, `#` comments and
/// blank lines skipped. A file belongs to the layer whose prefix
/// matches it (longest prefix wins); an edge from layer A to layer B
/// is legal iff A == B or rank(B) < rank(A).
struct LayerSpec {
  /// One named layer: a rank and the path prefixes it owns.
  struct Layer {
    int rank = 0;
    std::string name;
    std::vector<std::string> prefixes;
  };

  std::vector<Layer> layers;

  /// Parses layers.txt lines; malformed lines are appended to `errors`.
  static LayerSpec parse(const std::vector<std::string>& lines,
                         std::vector<std::string>* errors);

  /// The layer owning `path` (longest matching prefix), or nullptr
  /// when no layer claims it (such files are exempt from the gate).
  [[nodiscard]] const Layer* layer_of(const std::string& path) const;
};

/// One resolved include edge, with the 1-based line of the #include.
struct IncludeEdge {
  std::string from;
  std::string to;
  std::size_t line = 0;
};

/// Per-layer aggregate for the report: file count and cross-layer
/// fan-in/fan-out edge counts.
struct LayerStat {
  std::string name;
  int rank = 0;
  std::size_t files = 0;
  std::size_t fan_in = 0;   ///< Edges arriving from other layers.
  std::size_t fan_out = 0;  ///< Edges leaving to other layers.
};

/// The repo include graph over a fixed file set. Only edges whose
/// target resolves to a file in the set are kept — system headers and
/// generated files fall out naturally.
struct IncludeGraph {
  std::vector<std::string> nodes;   ///< Sorted repo-relative paths.
  std::vector<IncludeEdge> edges;   ///< Sorted by (from, line).

  /// Builds the graph from {repo-relative path -> raw lines}. An
  /// include target is resolved first against the including file's
  /// directory, then against the repo roots (src/, tools/, bench/,
  /// tests/) and the repo root itself.
  static IncludeGraph build(
      const std::map<std::string, std::vector<std::string>>& files);
};

/// Checks every edge against the layer order (rule `layer-violation`).
std::vector<Issue> check_layering(const IncludeGraph& graph,
                                  const LayerSpec& spec);

/// Finds file-level include cycles via DFS (rule `include-cycle`).
std::vector<Issue> check_cycles(const IncludeGraph& graph);

/// Per-layer fan-in/fan-out aggregates for --report-json, in layers.txt
/// order.
std::vector<LayerStat> layer_stats(const IncludeGraph& graph,
                                   const LayerSpec& spec);

/// Everything --report-json emits: graph shape, per-layer fan-in/out,
/// hot-set size, violation counts. Schema (version 1):
///
///   { "schema_version": 1,
///     "files_scanned": N,
///     "include_graph": { "nodes": N, "edges": N,
///       "layers": [ {"name": s, "rank": n, "files": n,
///                    "fan_in": n, "fan_out": n}, ... ] },
///     "hot_paths": { "annotated": N, "reachable": N },
///     "violations": { "total": N, "by_rule": { rule: N, ... } },
///     "suppressions_used": N }
struct ReportStats {
  std::size_t files_scanned = 0;
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  std::vector<LayerStat> layers;
  std::size_t hot_annotated = 0;
  std::size_t hot_reachable = 0;
  std::map<std::string, std::size_t> violations_by_rule;  ///< Unsuppressed.
  std::size_t suppressions_used = 0;
};

/// Renders ReportStats as the version-1 JSON document above, pretty
/// printed through common::Json in a stable key order — the shape the
/// schema test in tests/lint_test.cpp pins.
std::string render_report_json(const ReportStats& stats);

}  // namespace cryptodrop::lint
