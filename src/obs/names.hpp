// The metric-name schema of record.
//
// Every metric name the project registers — engine counters/gauges/
// histograms and the fault filter's per-kind counters — is listed here
// as a family: either a literal name ("ops_observed_total") or a
// placeholder family ("indicator_events_total.<indicator>") whose
// suffix ranges over a fixed label set.
//
// Two gates consume this list (one parser, two gates — DESIGN.md §13):
//  * tools/docs_check verifies it matches both the names a live engine
//    registers and the schema table in docs/OBSERVABILITY.md;
//  * tools/lint/cryptodrop_lint verifies every string literal passed
//    to MetricsRegistry::counter/gauge/histogram at any call site in
//    src/, tools/ and bench/ resolves to a family listed here.
//
// Span names have the same arrangement via known_span_names()
// (obs/span.hpp). Adding a metric means touching this list, the
// OBSERVABILITY.md table, and the registration site — any partial
// update fails a tier-1 gate.
#pragma once

#include <string_view>
#include <vector>

namespace cryptodrop::obs {

/// Every metric-name family the project registers, in schema order.
/// Placeholder families use `<indicator>` / `<fault>` suffixes.
std::vector<std::string_view> known_metric_names();

/// The label set a placeholder expands to: "<indicator>" yields the
/// seven indicator labels, "<fault>" the four fault kinds,
/// "<entropy_backend>" the four entropy backends, "<shed_reason>" the
/// four daemon admission-control shed reasons, "<op_type>" the eight
/// vfs operation types. Unknown placeholders yield an empty list.
/// docs_check asserts these lists match the core/vfs/entropy/daemon
/// enums they mirror.
std::vector<std::string_view> known_placeholder_labels(
    std::string_view placeholder);

}  // namespace cryptodrop::obs
