// The observability layer: concurrent writers on one metric cell,
// histogram bucket semantics, forensic timeline rings,
// engine.explain(), and the determinism contract for metrics across job
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/engine.hpp"
#include "crypto/chacha20.hpp"
#include "harness/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "vfs/filesystem.hpp"

namespace cryptodrop {
namespace {

// Under -DCRYPTODROP_NO_METRICS every instrument is a compiled-out no-op
// (that is the contract: empty-but-valid), so tests that assert recorded
// values skip themselves there; behavior tests gate only their metric
// assertions on obs::kMetricsEnabled.
#define SKIP_WITHOUT_METRICS()                                          \
  if (!obs::kMetricsEnabled)                                            \
  GTEST_SKIP() << "instrumentation compiled out (CRYPTODROP_NO_METRICS)"

// --- instruments -------------------------------------------------------

TEST(ObsCounter, SumsAcrossShardsAndThreads) {
  // Eight writers on one cell: relaxed adds never lose an increment.
  SKIP_WITHOUT_METRICS();
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(ObsGauge, LastWriteWins) {
  SKIP_WITHOUT_METRICS();
  obs::Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_EQ(gauge.value(), -1.25);
}

TEST(ObsHistogram, BucketEdgesAreInclusiveUpperBounds) {
  SKIP_WITHOUT_METRICS();
  obs::Histogram hist({1.0, 2.0, 4.0});
  // v lands in the first bucket with v <= bound; past the last bound it
  // goes to the overflow bucket.
  hist.record(0.5);  // bucket 0
  hist.record(1.0);  // bucket 0 (edge is inclusive)
  hist.record(1.5);  // bucket 1
  hist.record(2.0);  // bucket 1
  hist.record(3.0);  // bucket 2
  hist.record(4.0);  // bucket 2
  hist.record(99.0);  // overflow

  const obs::HistogramSnapshot snap = hist.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 2u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 7u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 4.0 + 99.0);
  EXPECT_GT(snap.mean(), 0.0);
}

TEST(ObsHistogram, ShardMergeMatchesTotalAcrossThreads) {
  // Eight writers on one bucket array: bucket counts add up to the
  // sample count.
  SKIP_WITHOUT_METRICS();
  obs::Histogram hist(obs::MetricsRegistry::latency_buckets_us());
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 5'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        hist.record(static_cast<double>((t * 31 + i) % 100'000));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kRecordsPerThread);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsRegistry, RegistrationIsIdempotentAndStable) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x_total", "help a", "events");
  obs::Counter& b = registry.counter("x_total", "different help ignored");
  EXPECT_EQ(&a, &b);
  SKIP_WITHOUT_METRICS();  // registration checked; values need recording
  a.add(4);
  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_NE(snap.counter("x_total"), nullptr);
  EXPECT_EQ(snap.counter("x_total")->value, 4u);
  EXPECT_EQ(snap.counter("x_total")->help, "help a");
  EXPECT_EQ(snap.counter("missing"), nullptr);
}

TEST(ObsSnapshot, MergeAddsCountersMaxesGaugesAppendsUnseen) {
  SKIP_WITHOUT_METRICS();
  obs::MetricsRegistry a;
  a.counter("shared_total", "h").add(3);
  a.gauge("level", "h").set(2.0);
  a.histogram("lat_us", "h", "microseconds", {1.0, 10.0}).record(0.5);

  obs::MetricsRegistry b;
  b.counter("shared_total", "h").add(5);
  b.counter("only_in_b_total", "h").add(1);
  b.gauge("level", "h").set(7.0);
  b.histogram("lat_us", "h", "microseconds", {1.0, 10.0}).record(5.0);

  obs::MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());

  EXPECT_EQ(merged.counter("shared_total")->value, 8u);
  EXPECT_EQ(merged.counter("only_in_b_total")->value, 1u);
  EXPECT_EQ(merged.gauge("level")->value, 7.0);
  const obs::HistogramSnapshot* h = merged.histogram("lat_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  ASSERT_EQ(h->counts.size(), 3u);
  EXPECT_EQ(h->counts[0], 1u);
  EXPECT_EQ(h->counts[1], 1u);
  EXPECT_DOUBLE_EQ(h->sum, 5.5);
}

TEST(ObsSnapshot, ToJsonNamesEveryMetric) {
  obs::MetricsRegistry registry;
  registry.counter("a_total", "counts a", "events").add(2);
  registry.gauge("b", "gauges b").set(1.5);
  registry.histogram("c_us", "times c", "microseconds", {1.0}).record(0.5);
  const std::string text = obs::to_json(registry.snapshot()).to_pretty_string();
  EXPECT_NE(text.find("\"a_total\""), std::string::npos);
  EXPECT_NE(text.find("\"b\""), std::string::npos);
  EXPECT_NE(text.find("\"c_us\""), std::string::npos);
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);
}

// --- timeline ring -----------------------------------------------------

obs::TimelineEvent event_with_points(int points) {
  obs::TimelineEvent ev;
  ev.kind = obs::TimelineEventKind::entropy_delta;
  ev.points = points;
  return ev;
}

TEST(ObsTimelineRing, EvictsOldestKeepsSeqNumbers) {
  obs::TimelineRing ring(3);
  for (int i = 0; i < 5; ++i) ring.push(event_with_points(i));
  EXPECT_EQ(ring.events().size(), 3u);
  EXPECT_EQ(ring.total_recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
  // The survivors are the three newest, and their seq numbers reflect
  // their position in the full (pre-eviction) history.
  EXPECT_EQ(ring.events()[0].seq, 2u);
  EXPECT_EQ(ring.events()[0].points, 2);
  EXPECT_EQ(ring.events()[2].seq, 4u);
  EXPECT_EQ(ring.events()[2].points, 4);
}

TEST(ObsTimelineRing, ZeroCapacityRecordsNothing) {
  obs::TimelineRing ring(0);
  ring.push(event_with_points(1));
  EXPECT_TRUE(ring.events().empty());
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

// --- engine integration ------------------------------------------------

constexpr const char* kRoot = "users/victim/documents";

class ObsEngineTest : public ::testing::Test {
 protected:
  vfs::FileSystem fs;
  core::ScoringConfig config;
  std::unique_ptr<core::AnalysisEngine> engine;
  vfs::ProcessId pid = 0;
  Rng rng{17};

  void SetUp() override { config.protected_root = kRoot; }

  void attach() {
    config.union_threshold = std::min(config.union_threshold, config.score_threshold);
    engine = std::make_unique<core::AnalysisEngine>(config);
    fs.attach_filter(engine.get());
    pid = fs.register_process("suspect");
  }

  std::string doc(const std::string& name) {
    return std::string(kRoot) + "/" + name;
  }

  void put_prose(const std::string& path, std::size_t n) {
    ASSERT_TRUE(fs.put_file_raw(path, to_bytes(synth_prose(rng, n))).is_ok());
  }

  /// Encrypt files in place until the engine suspends the process.
  void encrypt_until_stopped(std::size_t files) {
    for (std::size_t i = 0; i < files; ++i) {
      const std::string path = doc("f" + std::to_string(i) + ".txt");
      auto data = fs.read_file(pid, path);
      if (!data) break;
      const Bytes ct = crypto::chacha20_encrypt(rng.bytes(32), rng.bytes(12),
                                                ByteView(data.value()));
      if (!fs.write_file(pid, path, ByteView(ct)).is_ok()) break;
    }
  }

  void seed_and_attack(int threshold, std::size_t files = 40) {
    config.score_threshold = threshold;
    attach();
    for (std::size_t i = 0; i < files; ++i) {
      put_prose(doc("f" + std::to_string(i) + ".txt"), 15'000);
    }
    encrypt_until_stopped(files);
  }
};

TEST_F(ObsEngineTest, ExplainSuspendedEndsWithSuspensionVerdict) {
  seed_and_attack(/*threshold=*/100);
  ASSERT_TRUE(engine->is_suspended(pid));

  const obs::ForensicTimeline timeline = engine->explain(pid);
  EXPECT_EQ(timeline.pid, pid);
  EXPECT_TRUE(timeline.suspended);
  EXPECT_GE(timeline.final_score, timeline.threshold);
  ASSERT_FALSE(timeline.events.empty());
  const obs::TimelineEvent& last = timeline.events.back();
  EXPECT_EQ(last.kind, obs::TimelineEventKind::suspension);
  EXPECT_EQ(last.score_after, timeline.final_score);
  EXPECT_GE(last.score_after, static_cast<int>(last.detail));  // threshold

  // Score deltas are internally consistent: after = before + points.
  for (const obs::TimelineEvent& ev : timeline.events) {
    EXPECT_EQ(ev.score_after, ev.score_before + ev.points);
  }
}

TEST_F(ObsEngineTest, ExplainBenignProcessHasNoVerdict) {
  config.score_threshold = 200;
  attach();
  put_prose(doc("a.txt"), 20'000);
  (void)fs.read_file(pid, doc("a.txt"));

  const obs::ForensicTimeline timeline = engine->explain(pid);
  EXPECT_FALSE(timeline.suspended);
  for (const obs::TimelineEvent& ev : timeline.events) {
    EXPECT_NE(ev.kind, obs::TimelineEventKind::suspension);
  }

  // A never-seen pid yields an empty timeline at the default threshold.
  const obs::ForensicTimeline unknown = engine->explain(4242);
  EXPECT_FALSE(unknown.suspended);
  EXPECT_TRUE(unknown.events.empty());
  EXPECT_EQ(unknown.threshold, config.score_threshold);
}

TEST_F(ObsEngineTest, TimelineCapacityBoundsTheRing) {
  config.timeline_capacity = 4;
  seed_and_attack(/*threshold=*/100);

  const obs::ForensicTimeline timeline = engine->explain(pid);
  EXPECT_LE(timeline.events.size(), 4u);
  EXPECT_EQ(timeline.events_dropped,
            timeline.events_recorded - timeline.events.size());
  // Eviction is oldest-first, so the terminal verdict always survives.
  ASSERT_FALSE(timeline.events.empty());
  EXPECT_EQ(timeline.events.back().kind, obs::TimelineEventKind::suspension);
}

TEST_F(ObsEngineTest, RecordTimelineOffDisablesForensicEvents) {
  config.timeline_capacity = 0;
  seed_and_attack(/*threshold=*/100);
  ASSERT_TRUE(engine->is_suspended(pid));

  const obs::ForensicTimeline timeline = engine->explain(pid);
  EXPECT_TRUE(timeline.suspended);  // verdict state is still reported
  EXPECT_TRUE(timeline.events.empty());
  EXPECT_EQ(timeline.events_recorded, 0u);
}

TEST_F(ObsEngineTest, EngineCountersMatchReportAndOps) {
  SKIP_WITHOUT_METRICS();
  seed_and_attack(/*threshold=*/150);
  const core::EngineSnapshot snap = engine->snapshot();
  const core::ProcessReport* report = snap.find(pid);
  ASSERT_NE(report, nullptr);

  const obs::MetricsSnapshot& metrics = snap.metrics;
  ASSERT_NE(metrics.counter("ops_observed_total"), nullptr);
  EXPECT_EQ(metrics.counter("ops_observed_total")->value, snap.observed_ops);
  EXPECT_EQ(metrics.counter("suspensions_total")->value,
            report->suspended ? 1u : 0u);
  EXPECT_EQ(metrics.counter("indicator_events_total.entropy_delta")->value,
            report->entropy_events);
  EXPECT_EQ(metrics.counter("indicator_events_total.type_change")->value,
            report->type_change_events);
  EXPECT_EQ(metrics.counter("indicator_events_total.similarity_drop")->value,
            report->similarity_drop_events);
  // The snapshot embeds the process's forensic record too.
  EXPECT_EQ(report->forensic.suspended, report->suspended);
  EXPECT_FALSE(report->forensic.events.empty());

  // Stage histograms saw the work the run implies: every in-place
  // rewrite sniffs types and digests content.
  const obs::HistogramSnapshot* magic = metrics.histogram("stage_latency_us.magic_sniff");
  ASSERT_NE(magic, nullptr);
  EXPECT_GT(magic->count, 0u);
  // Every observed op is timed exactly once per callback it reaches, so
  // the eight per-op dispatch histograms together cover at least them.
  std::uint64_t dispatched = 0;
  for (vfs::OpType op : vfs::kOpTypes) {
    const obs::HistogramSnapshot* dispatch =
        metrics.histogram("filter_dispatch_us." + std::string(vfs::op_name(op)));
    ASSERT_NE(dispatch, nullptr) << vfs::op_name(op);
    dispatched += dispatch->count;
  }
  EXPECT_GE(dispatched, snap.observed_ops);
  EXPECT_EQ(metrics.counter("similarity_digests_total")->value,
            metrics.histogram("stage_latency_us.sdhash_digest")->count);
}

TEST_F(ObsEngineTest, DeniedOpsAreCounted) {
  seed_and_attack(/*threshold=*/100);
  ASSERT_TRUE(engine->is_suspended(pid));
  const std::uint64_t denied_before =
      engine->metrics_snapshot().counter("ops_denied_total")->value;
  EXPECT_EQ(fs.read_file(pid, doc("f0.txt")).code(), Errc::access_denied);
  EXPECT_EQ(fs.read_file(pid, doc("f0.txt")).code(), Errc::access_denied);
  const std::uint64_t denied_after =
      engine->metrics_snapshot().counter("ops_denied_total")->value;
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(denied_after, denied_before + 2);
  } else {
    EXPECT_EQ(denied_after, 0u);  // denial enforced above; count compiled out
  }
}

// --- determinism across job counts -------------------------------------

TEST(ObsDeterminism, CampaignMetricsIdenticalAtAnyJobCount) {
  corpus::CorpusSpec spec = harness::small_corpus_spec(180, 20);
  spec.compute_hashes = false;
  const harness::Environment env = harness::make_environment(spec, 77);

  std::vector<sim::SampleSpec> all = sim::table1_samples(1);
  std::vector<sim::SampleSpec> specs;
  const std::size_t stride = all.size() / 6;
  for (std::size_t i = 0; i < 6; ++i) specs.push_back(all[i * stride]);

  harness::TrialOptions serial;
  serial.jobs = 1;
  harness::TrialOptions parallel;
  parallel.jobs = 8;
  const auto r1 = harness::run_campaign(env, specs, {}, serial);
  const auto r8 = harness::run_campaign(env, specs, {}, parallel);

  const obs::MetricsSnapshot m1 = harness::merged_metrics(r1);
  const obs::MetricsSnapshot m8 = harness::merged_metrics(r8);

  // Counters are fully deterministic: every count depends only on the
  // trial's own (seeded) operations, never on scheduling.
  ASSERT_EQ(m1.counters.size(), m8.counters.size());
  for (const obs::CounterSnapshot& c : m1.counters) {
    const obs::CounterSnapshot* other = m8.counter(c.name);
    ASSERT_NE(other, nullptr) << c.name;
    EXPECT_EQ(c.value, other->value) << c.name;
  }
  // Histogram *sample counts* are deterministic too (how many times each
  // stage ran); the bucket spread is wall-clock and is not compared.
  ASSERT_EQ(m1.histograms.size(), m8.histograms.size());
  for (const obs::HistogramSnapshot& h : m1.histograms) {
    const obs::HistogramSnapshot* other = m8.histogram(h.name);
    ASSERT_NE(other, nullptr) << h.name;
    EXPECT_EQ(h.count, other->count) << h.name;
  }
  // Gauges describing per-trial state are deterministic. The buffer-pool
  // gauges are process-wide totals that grow with every digest computed
  // in the process, this test's earlier run included, so they are
  // exempt.
  for (const obs::GaugeSnapshot& g : m1.gauges) {
    if (g.name.rfind("buffer_pool_", 0) == 0) continue;
    const obs::GaugeSnapshot* other = m8.gauge(g.name);
    ASSERT_NE(other, nullptr) << g.name;
    EXPECT_EQ(g.value, other->value) << g.name;
  }
}

}  // namespace
}  // namespace cryptodrop
