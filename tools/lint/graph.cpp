#include "lint/graph.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <tuple>

#include "common/json.hpp"
#include "lint/scan.hpp"

namespace cryptodrop::lint {

namespace {

/// Longest-prefix layer match: `prefix` owns `path` when path == prefix
/// or path starts with prefix + '/'.
bool prefix_owns(const std::string& prefix, const std::string& path) {
  if (path.size() < prefix.size()) return false;
  if (path.compare(0, prefix.size(), prefix) != 0) return false;
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

/// The quoted target of an `#include "..."` line, or "" when the line
/// is not a quoted include (angle includes are system headers).
std::string include_target(const std::string& raw) {
  const std::string line = trim(raw);
  if (line.empty() || line[0] != '#') return "";
  std::size_t i = 1;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (line.compare(i, 7, "include") != 0) return "";
  i += 7;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size() || line[i] != '"') return "";
  const std::size_t close = line.find('"', i + 1);
  if (close == std::string::npos) return "";
  return line.substr(i + 1, close - i - 1);
}

std::string normalized(const std::string& path) {
  return std::filesystem::path(path).lexically_normal().generic_string();
}

}  // namespace

LayerSpec LayerSpec::parse(const std::vector<std::string>& lines,
                           std::vector<std::string>* errors) {
  LayerSpec spec;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string line = trim(lines[n]);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    Layer layer;
    std::string prefix;
    if (!(in >> layer.rank >> layer.name)) {
      if (errors != nullptr) {
        errors->push_back("layers.txt:" + std::to_string(n + 1) +
                          ": want `rank name prefix...`, got: " + line);
      }
      continue;
    }
    while (in >> prefix) layer.prefixes.push_back(prefix);
    if (layer.prefixes.empty()) {
      if (errors != nullptr) {
        errors->push_back("layers.txt:" + std::to_string(n + 1) +
                          ": layer `" + layer.name + "` has no path prefix");
      }
      continue;
    }
    spec.layers.push_back(std::move(layer));
  }
  return spec;
}

const LayerSpec::Layer* LayerSpec::layer_of(const std::string& path) const {
  const Layer* best = nullptr;
  std::size_t best_len = 0;
  for (const Layer& layer : layers) {
    for (const std::string& prefix : layer.prefixes) {
      if (prefix_owns(prefix, path) && prefix.size() >= best_len) {
        best = &layer;
        best_len = prefix.size();
      }
    }
  }
  return best;
}

IncludeGraph IncludeGraph::build(
    const std::map<std::string, std::vector<std::string>>& files) {
  IncludeGraph graph;
  for (const auto& [path, lines] : files) graph.nodes.push_back(path);

  for (const auto& [path, lines] : files) {
    const std::string dir = std::filesystem::path(path).parent_path().generic_string();
    for (std::size_t n = 0; n < lines.size(); ++n) {
      const std::string target = include_target(lines[n]);
      if (target.empty()) continue;
      // Resolution order mirrors the build's include dirs: the including
      // file's own directory first, then the repo include roots.
      std::vector<std::string> candidates;
      if (!dir.empty()) candidates.push_back(normalized(dir + "/" + target));
      for (const char* root : {"src/", "tools/", "bench/", "tests/", ""}) {
        candidates.push_back(normalized(root + target));
      }
      for (const std::string& candidate : candidates) {
        if (files.count(candidate) == 0) continue;
        graph.edges.push_back(IncludeEdge{path, candidate, n + 1});
        break;
      }
    }
  }
  std::sort(graph.edges.begin(), graph.edges.end(),
            [](const IncludeEdge& a, const IncludeEdge& b) {
              return std::tie(a.from, a.line) < std::tie(b.from, b.line);
            });
  return graph;
}

std::vector<Issue> check_layering(const IncludeGraph& graph,
                                  const LayerSpec& spec) {
  std::vector<Issue> issues;
  for (const IncludeEdge& edge : graph.edges) {
    const LayerSpec::Layer* from = spec.layer_of(edge.from);
    const LayerSpec::Layer* to = spec.layer_of(edge.to);
    if (from == nullptr || to == nullptr) continue;  // unlayered: exempt
    if (from->name == to->name) continue;            // intra-layer: fine
    if (to->rank < from->rank) continue;             // downward: fine
    const char* direction =
        to->rank > from->rank ? "goes up the layer DAG"
                              : "crosses between equal-rank layers";
    issues.push_back(Issue{
        edge.from, edge.line, "layer-violation",
        "edge " + edge.from + " -> " + edge.to + " " + direction +
            ": layer `" + from->name + "` (rank " +
            std::to_string(from->rank) + ") must not include layer `" +
            to->name + "` (rank " + std::to_string(to->rank) +
            ") — see tools/lint/layers.txt"});
  }
  return issues;
}

std::vector<Issue> check_cycles(const IncludeGraph& graph) {
  // Iterative DFS with white/grey/black coloring; a grey hit closes a
  // cycle, reported once against its smallest member.
  std::map<std::string, std::vector<const IncludeEdge*>> adj;
  for (const IncludeEdge& edge : graph.edges) {
    adj[edge.from].push_back(&edge);
  }
  enum class Color { white, grey, black };
  std::map<std::string, Color> color;
  for (const std::string& node : graph.nodes) color[node] = Color::white;

  std::vector<Issue> issues;
  std::set<std::string> reported_cycles;

  struct Frame {
    std::string node;
    std::size_t next = 0;
  };
  for (const std::string& start : graph.nodes) {
    if (color[start] != Color::white) continue;
    std::vector<Frame> stack{Frame{start, 0}};
    color[start] = Color::grey;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto it = adj.find(frame.node);
      const std::size_t degree = it == adj.end() ? 0 : it->second.size();
      if (frame.next >= degree) {
        color[frame.node] = Color::black;
        stack.pop_back();
        continue;
      }
      const IncludeEdge* edge = it->second[frame.next++];
      const Color target = color[edge->to];
      if (target == Color::black) continue;
      if (target == Color::white) {
        color[edge->to] = Color::grey;
        stack.push_back(Frame{edge->to, 0});
        continue;
      }
      // Grey: edge->to is on the stack — extract the cycle.
      std::vector<std::string> cycle;
      std::size_t first = 0;
      for (std::size_t i = 0; i < stack.size(); ++i) {
        if (stack[i].node == edge->to) first = i;
      }
      for (std::size_t i = first; i < stack.size(); ++i) {
        cycle.push_back(stack[i].node);
      }
      const std::string anchor = *std::min_element(cycle.begin(), cycle.end());
      std::string path;
      for (const std::string& node : cycle) path += node + " -> ";
      path += edge->to;
      if (reported_cycles.insert(path).second) {
        issues.push_back(Issue{anchor, edge->line, "include-cycle",
                               "include cycle: " + path});
      }
    }
  }
  return issues;
}

std::vector<LayerStat> layer_stats(const IncludeGraph& graph,
                                   const LayerSpec& spec) {
  std::vector<LayerStat> stats;
  std::map<std::string, std::size_t> index;
  for (const LayerSpec::Layer& layer : spec.layers) {
    index[layer.name] = stats.size();
    stats.push_back(LayerStat{layer.name, layer.rank, 0, 0, 0});
  }
  for (const std::string& node : graph.nodes) {
    const LayerSpec::Layer* layer = spec.layer_of(node);
    if (layer != nullptr) ++stats[index[layer->name]].files;
  }
  for (const IncludeEdge& edge : graph.edges) {
    const LayerSpec::Layer* from = spec.layer_of(edge.from);
    const LayerSpec::Layer* to = spec.layer_of(edge.to);
    if (from == nullptr || to == nullptr || from->name == to->name) continue;
    ++stats[index[from->name]].fan_out;
    ++stats[index[to->name]].fan_in;
  }
  return stats;
}

std::string render_report_json(const ReportStats& stats) {
  Json layers = Json::array();
  for (const LayerStat& layer : stats.layers) {
    layers.push(Json::object()
                    .set("name", layer.name)
                    .set("rank", layer.rank)
                    .set("files", layer.files)
                    .set("fan_in", layer.fan_in)
                    .set("fan_out", layer.fan_out));
  }
  std::size_t total = 0;
  Json by_rule = Json::object();
  for (const auto& [rule, count] : stats.violations_by_rule) {
    total += count;
    by_rule.set(rule, count);
  }
  return Json::object()
      .set("schema_version", 1)
      .set("files_scanned", stats.files_scanned)
      .set("include_graph", Json::object()
                                .set("nodes", stats.graph_nodes)
                                .set("edges", stats.graph_edges)
                                .set("layers", std::move(layers)))
      .set("hot_paths", Json::object()
                            .set("annotated", stats.hot_annotated)
                            .set("reachable", stats.hot_reachable))
      .set("violations", Json::object()
                             .set("total", total)
                             .set("by_rule", std::move(by_rule)))
      .set("suppressions_used", stats.suppressions_used)
      .to_pretty_string();
}

}  // namespace cryptodrop::lint
