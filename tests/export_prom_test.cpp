// Tests for the Prometheus text-exposition exporter
// (src/obs/export_prom.hpp): golden round trips for all three metric
// kinds, escaping, determinism under registration order and thread
// count, and bidirectional family parity with obs::known_metric_names().
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "daemon/metrics.hpp"
#include "obs/export_prom.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "vfs/fault_filter.hpp"

namespace cryptodrop::obs {
namespace {

// The exporter tests build their MetricsSnapshot by hand rather than
// recording into a registry: -DCRYPTODROP_NO_METRICS compiles recording
// out, and the exporter must stay fully tested in that build too.

TEST(ExportPromTest, GoldenTextForAllThreeKinds) {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"test_ops_total", "ops", "Ops processed.", 3},
                       {"test_shed_total.queue_full", "ops", "Sheds by reason.", 2},
                       {"test_shed_total.benign", "ops", "Sheds by reason.", 1}};
  snapshot.gauges = {{"test_depth", "items", "Current depth.", 2.5}};
  // Samples 1 (le="1"), 3 (le="4") and 100 (overflow -> +Inf only).
  snapshot.histograms = {{"test_latency_us", "us", "Latency.", {1.0, 2.0, 4.0},
                          {1, 0, 1, 1}, 3, 104.0}};
  const std::string text = to_prometheus(snapshot);
  EXPECT_EQ(text,
            "# HELP test_ops_total Ops processed.\n"
            "# TYPE test_ops_total counter\n"
            "test_ops_total 3\n"
            "# HELP test_shed_total Sheds by reason.\n"
            "# TYPE test_shed_total counter\n"
            "test_shed_total{label=\"benign\"} 1\n"
            "test_shed_total{label=\"queue_full\"} 2\n"
            "# HELP test_depth Current depth.\n"
            "# TYPE test_depth gauge\n"
            "test_depth 2.5\n"
            "# HELP test_latency_us Latency.\n"
            "# TYPE test_latency_us histogram\n"
            "test_latency_us_bucket{le=\"1\"} 1\n"
            "test_latency_us_bucket{le=\"2\"} 1\n"
            "test_latency_us_bucket{le=\"4\"} 2\n"
            "test_latency_us_bucket{le=\"+Inf\"} 3\n"
            "test_latency_us_sum 104\n"
            "test_latency_us_count 3\n");
}

TEST(ExportPromTest, HugeAndNonFiniteGaugesUseExpositionTokens) {
  // The integral-value test must not cast a value past long long (UBSan
  // traps on it); non-finite values print as the format's own tokens.
  MetricsSnapshot snapshot;
  snapshot.gauges = {{"test_huge", "x", "Huge.", 1e300},
                     {"test_pos_inf", "x", "Inf.", HUGE_VAL},
                     {"test_neg_inf", "x", "-Inf.", -HUGE_VAL},
                     {"test_nan", "x", "NaN.", std::nan("")}};
  const std::string text = to_prometheus(snapshot);
  EXPECT_NE(text.find("\ntest_huge 1e+300\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\ntest_pos_inf +Inf\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\ntest_neg_inf -Inf\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\ntest_nan NaN\n"), std::string::npos) << text;
}

TEST(ExportPromTest, KnownPlaceholderFamiliesGetTheirTokenAsLabelKey) {
  MetricsSnapshot snapshot = daemon::DaemonMetrics().snapshot();
  for (CounterSnapshot& counter : snapshot.counters) {
    if (counter.name == "daemon_ops_shed_total.queue_full") counter.value = 7;
  }
  const std::string text = to_prometheus(snapshot);
  EXPECT_NE(text.find("daemon_ops_shed_total{shed_reason=\"queue_full\"} 7"),
            std::string::npos)
      << text;
  // Flat families render without a selector.
  EXPECT_NE(text.find("\ndaemon_ops_ingested_total 0\n"), std::string::npos);
}

TEST(ExportPromTest, HelpAndLabelEscaping) {
  EXPECT_EQ(prom_escape_help("a\\b\nc"), "a\\\\b\\nc");
  EXPECT_EQ(prom_escape_label("say \"hi\"\\now\n"), "say \\\"hi\\\"\\\\now\\n");
  EXPECT_EQ(prom_family_name("stage_latency_us.entropy"), "stage_latency_us");
  EXPECT_EQ(prom_family_name("weird-name.suffix"), "weird_name");

  MetricsSnapshot snapshot;
  snapshot.counters = {{"esc_total.a\"b\\c", "x", "multi\nline \\help", 1}};
  const std::string text = to_prometheus(snapshot);
  EXPECT_NE(text.find("# HELP esc_total multi\\nline \\\\help\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("esc_total{label=\"a\\\"b\\\\c\"} 1\n"),
            std::string::npos)
      << text;
  // Escaping keeps the document line-structured: exactly one newline
  // per emitted line, none embedded mid-line by the raw inputs.
  std::istringstream lines(text);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) ++count;
  EXPECT_EQ(count, 3u);
}

TEST(ExportPromTest, OutputIsDeterministicAcrossRegistrationOrder) {
  const auto build = [](bool reversed) {
    auto registry = std::make_unique<MetricsRegistry>();
    const std::vector<std::string> names = {"zeta_total", "alpha_total",
                                            "mid_total.b", "mid_total.a"};
    if (!reversed) {
      for (const std::string& name : names) {
        registry->counter(name, "help", "x").add(5);
      }
    } else {
      for (auto it = names.rbegin(); it != names.rend(); ++it) {
        registry->counter(*it, "help", "x").add(5);
      }
    }
    registry->gauge("g", "help", "x").set(1.25);
    registry->histogram("h_us", "help", "us", {1.0, 2.0}).record(2);
    return registry;
  };
  EXPECT_EQ(to_prometheus(build(false)->snapshot()),
            to_prometheus(build(true)->snapshot()));
}

TEST(ExportPromTest, OutputIsDeterministicOneVsEightThreads) {
  const auto run = [](std::size_t threads) {
    auto registry = std::make_unique<MetricsRegistry>();
    Counter& ops = registry->counter("jobs_total", "help", "ops");
    Histogram& lat =
        registry->histogram("jobs_us", "help", "us", {1.0, 4.0, 16.0});
    const std::size_t per_thread = 80 / threads;
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      // Thread t records its slice of the same global value multiset,
      // so only the interleaving varies with the thread count.
      pool.emplace_back([&ops, &lat, per_thread, t] {
        for (std::size_t i = 0; i < per_thread; ++i) {
          ops.add();
          lat.record(static_cast<double>((t * per_thread + i) % 20));
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
    return to_prometheus(registry->snapshot());
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ExportPromTest, FamilyParityWithKnownMetricNamesBothWays) {
  // The exporter must emit exactly the families the schema of record
  // implies — rendered over everything a fresh engine, fault filter
  // and daemon front end register (the same trio docs_check pins).
  const core::AnalysisEngine engine{core::ScoringConfig{}};
  const vfs::FaultInjectionFilter filter{vfs::FaultPlan{}};
  const daemon::DaemonMetrics daemon_metrics;
  std::string rendered;
  for (const MetricsSnapshot& snap :
       {engine.metrics_snapshot(), filter.metrics_snapshot(),
        daemon_metrics.snapshot()}) {
    rendered += to_prometheus(snap);
  }
  std::set<std::string> emitted;
  std::istringstream lines(rendered);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string prefix = "# TYPE ";
    if (line.rfind(prefix, 0) != 0) continue;
    emitted.insert(line.substr(prefix.size(), line.find(' ', prefix.size()) -
                                                  prefix.size()));
  }
  std::set<std::string> expected;
  for (std::string_view name : known_metric_names()) {
    expected.insert(prom_family_name(name));
  }
  EXPECT_EQ(emitted, expected);
}

TEST(ExportPromTest, OutputParsesAsValidExposition) {
  // Structural validation of a real registry's dump: every line is a
  // comment or `name{...} value`, every sample's family has exactly one
  // HELP and TYPE above it, histogram buckets are cumulative.
  daemon::DaemonMetrics metrics;
  metrics.ingested().add(12);
  metrics.worker_ingest_latency_us().record(3);
  metrics.worker_ingest_latency_us().record(900);
  const std::string text = to_prometheus(metrics.snapshot());
  std::istringstream lines(text);
  std::string line;
  std::set<std::string> typed;
  std::uint64_t last_bucket = 0;
  bool in_buckets = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string family =
          line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(typed.insert(family).second)
          << "family typed twice: " << family;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const std::string family =
        series.substr(0, series.find_first_of("{ "));
    // Strip _bucket/_sum/_count to find the declaring family.
    std::string base = family;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (base.size() > s.size() &&
          base.compare(base.size() - s.size(), s.size(), s) == 0 &&
          typed.count(base) == 0) {
        const std::string candidate = base.substr(0, base.size() - s.size());
        if (typed.count(candidate) != 0) base = candidate;
      }
    }
    EXPECT_TRUE(typed.count(base) != 0) << "sample before TYPE: " << line;
    if (family.size() > 7 &&
        family.compare(family.size() - 7, 7, "_bucket") == 0) {
      const std::uint64_t value =
          std::strtoull(line.c_str() + space + 1, nullptr, 10);
      if (in_buckets) {
        EXPECT_GE(value, last_bucket) << "buckets not cumulative: " << line;
      }
      last_bucket = value;
      in_buckets = line.find("le=\"+Inf\"") == std::string::npos;
    } else {
      in_buckets = false;
      last_bucket = 0;
    }
  }
}

}  // namespace
}  // namespace cryptodrop::obs
