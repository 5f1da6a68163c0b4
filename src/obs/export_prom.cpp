#include "obs/export_prom.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "obs/names.hpp"

namespace cryptodrop::obs {
namespace {

/// Formats a double the way the exposition format expects: integral
/// values print without a fraction ("42"), non-finite ones as the
/// format's "+Inf", "-Inf" and "NaN" tokens, everything else with enough
/// digits to round-trip a bucket bound or sum ("2.5", "0.0000001").
std::string format_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buffer[64];
  // The range test comes first, so the cast never sees a value past
  // long long.
  if (v < 1e15 && v > -1e15 && v == std::trunc(v)) {
    std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.10g", v);
  }
  return buffer;
}

/// The dotted label suffix of `name` ("" when the name has no dot).
std::string_view label_of(std::string_view name) {
  const std::size_t dot = name.find('.');
  return dot == std::string_view::npos ? std::string_view{}
                                       : name.substr(dot + 1);
}

/// Label key for `family`: the placeholder token when
/// known_metric_names() lists `family.<placeholder>`, else "label"
/// (covers fixed dotted suffixes like stage_latency_us.entropy).
std::string label_key_for(const std::string& family) {
  const std::string prefix = family + ".<";
  for (std::string_view known : known_metric_names()) {
    if (known.size() > prefix.size() && known.back() == '>' &&
        known.substr(0, prefix.size()) == prefix) {
      return std::string(known.substr(prefix.size(),
                                      known.size() - prefix.size() - 1));
    }
  }
  return "label";
}

/// One sample inside a family: its label value ("" = unlabeled) plus a
/// pointer to whichever snapshot row it came from.
template <typename Snapshot>
struct Sample {
  std::string label;
  const Snapshot* row = nullptr;
};

/// Groups snapshot rows into families keyed by sanitized family name
/// (std::map gives the lexicographic family order for free).
template <typename Snapshot>
std::map<std::string, std::vector<Sample<Snapshot>>> group_families(
    const std::vector<Snapshot>& rows) {
  std::map<std::string, std::vector<Sample<Snapshot>>> families;
  for (const Snapshot& row : rows) {
    families[prom_family_name(row.name)].push_back(
        Sample<Snapshot>{std::string(label_of(row.name)), &row});
  }
  for (auto& [family, samples] : families) {
    std::sort(samples.begin(), samples.end(),
              [](const auto& a, const auto& b) { return a.label < b.label; });
  }
  return families;
}

/// `{key="value"}` for a labeled sample, "" for an unlabeled one.
std::string label_selector(const std::string& key, const std::string& value) {
  if (value.empty()) return "";
  return "{" + key + "=\"" + prom_escape_label(value) + "\"}";
}

/// `{key="value",le="bound"}` / `{le="bound"}` for a histogram bucket.
std::string bucket_selector(const std::string& key, const std::string& value,
                            const std::string& bound) {
  std::string out = "{";
  if (!value.empty()) out += key + "=\"" + prom_escape_label(value) + "\",";
  out += "le=\"" + bound + "\"}";
  return out;
}

void append_header(std::string& out, const std::string& family,
                   const std::string& help, const char* type) {
  out += "# HELP " + family + " " + prom_escape_help(help) + "\n";
  out += "# TYPE " + family + " " + std::string(type) + "\n";
}

}  // namespace

std::string prom_escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prom_escape_label(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prom_family_name(std::string_view metric_name) {
  const std::size_t dot = metric_name.find('.');
  std::string_view family =
      dot == std::string_view::npos ? metric_name : metric_name.substr(0, dot);
  std::string out;
  out.reserve(family.size());
  for (char c : family) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += legal ? c : '_';
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;

  for (const auto& [family, samples] : group_families(snapshot.counters)) {
    const std::string key = label_key_for(family);
    append_header(out, family, samples.front().row->help, "counter");
    for (const auto& sample : samples) {
      char value[32];
      std::snprintf(value, sizeof(value), "%" PRIu64, sample.row->value);
      out += family + label_selector(key, sample.label) + " " + value + "\n";
    }
  }

  for (const auto& [family, samples] : group_families(snapshot.gauges)) {
    const std::string key = label_key_for(family);
    append_header(out, family, samples.front().row->help, "gauge");
    for (const auto& sample : samples) {
      out += family + label_selector(key, sample.label) + " " +
             format_number(sample.row->value) + "\n";
    }
  }

  for (const auto& [family, samples] : group_families(snapshot.histograms)) {
    const std::string key = label_key_for(family);
    append_header(out, family, samples.front().row->help, "histogram");
    for (const auto& sample : samples) {
      const HistogramSnapshot& h = *sample.row;
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.bounds.size(); ++i) {
        if (i < h.counts.size()) cumulative += h.counts[i];
        char value[32];
        std::snprintf(value, sizeof(value), "%" PRIu64, cumulative);
        out += family + "_bucket" +
               bucket_selector(key, sample.label, format_number(h.bounds[i])) +
               " " + value + "\n";
      }
      char total[32];
      std::snprintf(total, sizeof(total), "%" PRIu64, h.count);
      out += family + "_bucket" + bucket_selector(key, sample.label, "+Inf") +
             " " + total + "\n";
      out += family + "_sum" + label_selector(key, sample.label) + " " +
             format_number(h.sum) + "\n";
      out += family + "_count" + label_selector(key, sample.label) + " " +
             total + "\n";
    }
  }

  return out;
}

}  // namespace cryptodrop::obs
