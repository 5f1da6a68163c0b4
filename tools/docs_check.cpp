// docs-check: the documentation gate, run as a tier-1 ctest.
//
// Five invariants, checked against the living code so the docs cannot
// silently rot (scanning helpers shared with tools/lint — one parser,
// two gates; DESIGN.md §13):
//
//  1. Schema honesty. obs::known_metric_names() — the list the lint
//     gate enforces at call sites — must name exactly the metrics a
//     freshly constructed AnalysisEngine, fault filter and daemon
//     front end register, and obs::known_placeholder_labels() must
//     match the core/vfs/daemon enums it mirrors. This pins the
//     static schema to the runtime.
//
//  2. Metric parity. The metrics schema table in docs/OBSERVABILITY.md
//     (between the `<!-- metrics-schema:begin -->` / `end` markers) must
//     name exactly the metrics a freshly constructed AnalysisEngine
//     registers — nothing missing, nothing stale. Per-indicator counter
//     families are documented once as `name.<indicator>`.
//
//  3. Span-name parity. The span-schema table in docs/OBSERVABILITY.md
//     (between the `<!-- span-schema:begin -->` / `end` markers) must
//     name exactly obs::known_span_names() — both directions, like the
//     metric table.
//
//  4. Doc comments. Every public type and function in the repo's public
//     headers (the fixed list below) must carry a comment on the
//     preceding line (lint::HeaderScanner).
//
//  5. Control-API parity. The request-type table in docs/DAEMON.md
//     (between the `<!-- control-schema:begin -->` / `end` markers)
//     must name exactly daemon::known_request_types() — every wire
//     request the dispatcher answers is documented, and nothing the
//     docs promise has quietly been removed.
//
//  6. Event-schema parity. The journal-event table in
//     docs/OBSERVABILITY.md (between the `<!-- event-schema:begin -->`
//     / `end` markers) must name exactly daemon::all_event_kinds() —
//     every structured event the daemon can journal is documented.
//
// Usage: docs_check <repo-root>   (exit 0 = docs in sync)
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "daemon/control.hpp"
#include "daemon/metrics.hpp"
#include "daemon/telemetry.hpp"
#include "entropy/backend.hpp"
#include "lint/scan.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "vfs/fault_filter.hpp"

namespace {

using cryptodrop::core::AnalysisEngine;
using cryptodrop::core::Indicator;
using cryptodrop::core::ScoringConfig;
namespace lint = cryptodrop::lint;

/// Indicator labels straight from the core enum, for validating the
/// obs schema and collapsing per-indicator families into one
/// documented `family.<indicator>` row.
std::vector<std::string> indicator_labels() {
  static constexpr Indicator kAll[] = {
      Indicator::entropy_delta,   Indicator::type_change,
      Indicator::similarity_drop, Indicator::deletion,
      Indicator::funneling,       Indicator::union_indication,
      Indicator::burst_rate,
  };
  std::vector<std::string> labels;
  for (Indicator ind : kAll) {
    labels.emplace_back(cryptodrop::core::indicator_name(ind));
  }
  return labels;
}

/// Fault-kind labels straight from the vfs enum, for the `<fault>`
/// placeholder family.
std::vector<std::string> fault_labels() {
  using cryptodrop::vfs::FaultKind;
  static constexpr FaultKind kAll[] = {
      FaultKind::io_error, FaultKind::access_denied,
      FaultKind::short_write, FaultKind::delay_post,
  };
  std::vector<std::string> labels;
  for (FaultKind kind : kAll) {
    labels.emplace_back(cryptodrop::vfs::fault_kind_name(kind));
  }
  return labels;
}

/// Entropy-backend labels straight from the entropy enum, for the
/// `<entropy_backend>` placeholder family (per-backend vote counters).
std::vector<std::string> entropy_backend_labels() {
  std::vector<std::string> labels;
  for (cryptodrop::entropy::BackendKind kind :
       cryptodrop::entropy::all_backend_kinds()) {
    labels.emplace_back(cryptodrop::entropy::backend_name(kind));
  }
  return labels;
}

/// Shed-reason labels straight from the daemon enum, for the
/// `<shed_reason>` placeholder family (per-reason drop counters).
std::vector<std::string> shed_reason_labels() {
  std::vector<std::string> labels;
  for (cryptodrop::daemon::ShedReason reason :
       cryptodrop::daemon::all_shed_reasons()) {
    labels.emplace_back(cryptodrop::daemon::shed_reason_name(reason));
  }
  return labels;
}

/// Op-type labels straight from the vfs enum, for the `<op_type>`
/// placeholder family (per-op dispatch histograms).
std::vector<std::string> op_type_labels() {
  std::vector<std::string> labels;
  for (cryptodrop::vfs::OpType op : cryptodrop::vfs::kOpTypes) {
    labels.emplace_back(cryptodrop::vfs::op_name(op));
  }
  return labels;
}

/// Placeholder -> labels, derived from the real enums (not from obs —
/// invariant 1 is exactly that obs agrees with this map).
std::map<std::string, std::vector<std::string>> enum_placeholder_labels() {
  return {{"<indicator>", indicator_labels()},
          {"<fault>", fault_labels()},
          {"<entropy_backend>", entropy_backend_labels()},
          {"<shed_reason>", shed_reason_labels()},
          {"<op_type>", op_type_labels()}};
}

/// Every metric name a default-config engine, a default-plan fault
/// filter and a fresh daemon front end register, families collapsed,
/// sorted and deduplicated.
std::set<std::string> registered_metric_names() {
  const AnalysisEngine engine{ScoringConfig{}};
  const cryptodrop::vfs::FaultInjectionFilter filter{cryptodrop::vfs::FaultPlan{}};
  const cryptodrop::daemon::DaemonMetrics daemon_metrics;
  const auto placeholders = enum_placeholder_labels();
  std::set<std::string> names;
  for (const cryptodrop::obs::MetricsSnapshot& snap :
       {engine.metrics_snapshot(), filter.metrics_snapshot(),
        daemon_metrics.snapshot()}) {
    for (const auto& c : snap.counters) {
      names.insert(lint::collapse_family(c.name, placeholders));
    }
    for (const auto& g : snap.gauges) {
      names.insert(lint::collapse_family(g.name, placeholders));
    }
    for (const auto& h : snap.histograms) {
      names.insert(lint::collapse_family(h.name, placeholders));
    }
  }
  return names;
}

// --- invariant 1: obs schema matches the runtime -----------------------

int check_schema_honesty() {
  int failures = 0;

  // Placeholder label sets must mirror the enums verbatim (order too —
  // both are schema order).
  for (const auto& [placeholder, labels] : enum_placeholder_labels()) {
    std::vector<std::string> listed;
    for (std::string_view label :
         cryptodrop::obs::known_placeholder_labels(placeholder)) {
      listed.emplace_back(label);
    }
    if (listed != labels) {
      std::fprintf(stderr,
                   "docs-check: obs::known_placeholder_labels(\"%s\") "
                   "disagrees with the enum it mirrors (%zu vs %zu labels)\n",
                   placeholder.c_str(), listed.size(), labels.size());
      ++failures;
    }
  }

  // known_metric_names() must name exactly what a live engine + fault
  // filter register (collapsed to families).
  std::set<std::string> known;
  for (std::string_view name : cryptodrop::obs::known_metric_names()) {
    known.insert(std::string(name));
  }
  const std::set<std::string> registered = registered_metric_names();
  for (const std::string& name : registered) {
    if (known.count(name) == 0) {
      std::fprintf(stderr,
                   "docs-check: metric `%s` is registered at runtime but "
                   "missing from obs::known_metric_names()\n",
                   name.c_str());
      ++failures;
    }
  }
  for (const std::string& name : known) {
    if (registered.count(name) == 0) {
      std::fprintf(stderr,
                   "docs-check: obs::known_metric_names() lists `%s` but "
                   "no engine registers it\n",
                   name.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("docs-check: obs name schema matches runtime (%zu families)\n",
                known.size());
  }
  return failures;
}

// --- invariant 2: metric parity ----------------------------------------

int check_metric_parity(const std::string& root) {
  const std::string doc_path = root + "/docs/OBSERVABILITY.md";
  const std::set<std::string> registered = registered_metric_names();
  const std::set<std::string> documented = lint::schema_table_tokens(
      lint::read_lines_or_exit(doc_path), "metrics-schema:begin",
      "metrics-schema:end");
  int failures = 0;
  for (const std::string& name : registered) {
    if (documented.count(name) == 0) {
      std::fprintf(stderr,
                   "docs-check: metric `%s` is registered by the engine but "
                   "missing from the docs/OBSERVABILITY.md schema table\n",
                   name.c_str());
      ++failures;
    }
  }
  for (const std::string& name : documented) {
    if (registered.count(name) == 0) {
      std::fprintf(stderr,
                   "docs-check: docs/OBSERVABILITY.md documents metric `%s` "
                   "but no engine registers it\n",
                   name.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("docs-check: metric schema in sync (%zu metrics)\n",
                registered.size());
  }
  return failures;
}

// --- invariant 3: span-name parity -------------------------------------

int check_span_parity(const std::string& root) {
  const std::string doc_path = root + "/docs/OBSERVABILITY.md";
  std::set<std::string> emitted;
  for (std::string_view name : cryptodrop::obs::known_span_names()) {
    emitted.insert(std::string(name));
  }
  const std::set<std::string> documented = lint::schema_table_tokens(
      lint::read_lines_or_exit(doc_path), "span-schema:begin",
      "span-schema:end");
  int failures = 0;
  for (const std::string& name : emitted) {
    if (documented.count(name) == 0) {
      std::fprintf(stderr,
                   "docs-check: span `%s` is emitted by the instrumentation "
                   "but missing from the docs/OBSERVABILITY.md span table\n",
                   name.c_str());
      ++failures;
    }
  }
  for (const std::string& name : documented) {
    if (emitted.count(name) == 0) {
      std::fprintf(stderr,
                   "docs-check: docs/OBSERVABILITY.md documents span `%s` but "
                   "no instrumentation emits it\n",
                   name.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("docs-check: span schema in sync (%zu span names)\n",
                emitted.size());
  }
  return failures;
}

// --- invariant 4: header doc comments ----------------------------------

int check_header_docs(const std::string& root) {
  // Every header under src/ is public API surface — the list is a
  // glob, not a hand-maintained array, so new headers join the gate
  // the moment they land (PR 5's curated list had drifted three
  // subsystems behind by PR 10).
  std::vector<std::string> headers;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           std::filesystem::path(root) / "src")) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".h") continue;
    headers.push_back(
        std::filesystem::relative(entry.path(), root).generic_string());
  }
  std::sort(headers.begin(), headers.end());
  lint::HeaderScanner scanner;
  for (const std::string& header : headers) {
    scanner.scan(header, lint::read_lines_or_exit(root + "/" + header));
  }
  if (scanner.failures == 0) {
    std::printf("docs-check: all public declarations documented (%zu headers)\n",
                headers.size());
  }
  return scanner.failures;
}

// --- invariant 5: control-API parity -----------------------------------

int check_control_parity(const std::string& root) {
  const std::string doc_path = root + "/docs/DAEMON.md";
  std::set<std::string> handled;
  for (std::string_view name : cryptodrop::daemon::known_request_types()) {
    handled.insert(std::string(name));
  }
  const std::set<std::string> documented = lint::schema_table_tokens(
      lint::read_lines_or_exit(doc_path), "control-schema:begin",
      "control-schema:end");
  int failures = 0;
  for (const std::string& name : handled) {
    if (documented.count(name) == 0) {
      std::fprintf(stderr,
                   "docs-check: control request `%s` is handled by the daemon "
                   "dispatcher but missing from the docs/DAEMON.md request "
                   "table\n",
                   name.c_str());
      ++failures;
    }
  }
  for (const std::string& name : documented) {
    if (handled.count(name) == 0) {
      std::fprintf(stderr,
                   "docs-check: docs/DAEMON.md documents control request `%s` "
                   "but the dispatcher does not handle it\n",
                   name.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("docs-check: control-API schema in sync (%zu request types)\n",
                handled.size());
  }
  return failures;
}

// --- invariant 6: journal event-schema parity --------------------------

int check_event_parity(const std::string& root) {
  const std::string doc_path = root + "/docs/OBSERVABILITY.md";
  std::set<std::string> emitted;
  for (cryptodrop::daemon::EventKind kind :
       cryptodrop::daemon::all_event_kinds()) {
    emitted.insert(std::string(cryptodrop::daemon::event_kind_name(kind)));
  }
  const std::set<std::string> documented = lint::schema_table_tokens(
      lint::read_lines_or_exit(doc_path), "event-schema:begin",
      "event-schema:end");
  int failures = 0;
  for (const std::string& name : emitted) {
    if (documented.count(name) == 0) {
      std::fprintf(stderr,
                   "docs-check: journal event `%s` is emitted by the daemon "
                   "but missing from the docs/OBSERVABILITY.md event table\n",
                   name.c_str());
      ++failures;
    }
  }
  for (const std::string& name : documented) {
    if (emitted.count(name) == 0) {
      std::fprintf(stderr,
                   "docs-check: docs/OBSERVABILITY.md documents journal event "
                   "`%s` but the daemon never emits it\n",
                   name.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("docs-check: journal event schema in sync (%zu kinds)\n",
                emitted.size());
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : ".";
  int failures = 0;
  failures += check_schema_honesty();
  failures += check_metric_parity(root);
  failures += check_span_parity(root);
  failures += check_header_docs(root);
  failures += check_control_parity(root);
  failures += check_event_parity(root);
  if (failures != 0) {
    std::fprintf(stderr, "docs-check: %d failure(s)\n", failures);
    return 1;
  }
  return 0;
}
