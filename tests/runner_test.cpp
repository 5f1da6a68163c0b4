// The parallel experiment runner: pool semantics, fail-fast validation,
// and the determinism contract — a parallel sweep must be bit-identical
// to the serial path at any job count.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "core/session.hpp"
#include "harness/runner.hpp"

namespace cryptodrop::harness {
namespace {

class RunnerTest : public ::testing::Test {
 protected:
  static Environment* env;

  static Environment build_environment() {
    corpus::CorpusSpec spec = small_corpus_spec(220, 24);
    spec.compute_hashes = false;
    return make_environment(spec, 321);
  }

  static void SetUpTestSuite() { env = new Environment(build_environment()); }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }

  static std::vector<sim::SampleSpec> some_specs(std::size_t n) {
    std::vector<sim::SampleSpec> all = sim::table1_samples(1);
    // Stride across the zoo so all three behavior classes show up.
    std::vector<sim::SampleSpec> picked;
    const std::size_t stride = all.size() / n;
    for (std::size_t i = 0; i < n; ++i) picked.push_back(all[i * stride]);
    return picked;
  }
};

Environment* RunnerTest::env = nullptr;

TEST(RunnerPool, EffectiveJobsNeverZero) {
  EXPECT_GE(effective_jobs(0), 1u);
  EXPECT_EQ(effective_jobs(1), 1u);
  EXPECT_EQ(effective_jobs(7), 7u);
}

TEST(RunnerPool, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 500;
  std::vector<std::atomic<int>> seen(kCount);
  TrialOptions options;
  options.jobs = 8;
  std::atomic<std::size_t> last_total{0};
  std::atomic<std::size_t> progress_calls{0};
  options.progress = [&](std::size_t done, std::size_t total) {
    (void)done;
    last_total = total;
    ++progress_calls;
  };
  parallel_for(kCount, options, [&](std::size_t i) { ++seen[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(progress_calls.load(), kCount);
  EXPECT_EQ(last_total.load(), kCount);
}

TEST(RunnerPool, SingleJobRunsInOrderInline) {
  std::vector<std::size_t> order;
  TrialOptions options;
  options.jobs = 1;
  parallel_for(5, options, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(RunnerPool, FirstExceptionPropagatesAfterDraining) {
  std::atomic<int> executed{0};
  TrialOptions options;
  options.jobs = 4;
  EXPECT_THROW(
      parallel_for(64, options,
                   [&](std::size_t i) {
                     ++executed;
                     if (i == 13) throw std::runtime_error("trial 13 exploded");
                   }),
      std::runtime_error);
  // A failed trial must not wedge the pool: everything else still ran.
  EXPECT_EQ(executed.load(), 64);
}

TEST(RunnerPool, ZeroItemsIsANoOp) {
  TrialOptions options;
  bool called = false;
  parallel_for(0, options, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_F(RunnerTest, ParallelCampaignBitIdenticalToSerial) {
  const auto specs = some_specs(6);
  const core::ScoringConfig config;

  TrialOptions options;
  options.jobs = 1;
  const auto serial = run_campaign(*env, specs, config, options);
  options.jobs = 4;
  const auto parallel = run_campaign(*env, specs, config, options);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const RansomwareRunResult& s = serial[i];
    const RansomwareRunResult& p = parallel[i];
    EXPECT_EQ(s.family, p.family);
    EXPECT_EQ(s.detected, p.detected);
    EXPECT_EQ(s.files_lost, p.files_lost);
    EXPECT_EQ(s.final_score, p.final_score);
    EXPECT_EQ(s.union_triggered, p.union_triggered);
    EXPECT_EQ(s.union_count, p.union_count);
    EXPECT_EQ(s.directories_touched, p.directories_touched);
    EXPECT_EQ(s.extensions_accessed, p.extensions_accessed);
    EXPECT_EQ(s.report.entropy_events, p.report.entropy_events);
    EXPECT_EQ(s.report.type_change_events, p.report.type_change_events);
    EXPECT_EQ(s.report.similarity_drop_events, p.report.similarity_drop_events);
    EXPECT_EQ(s.report.deletion_events, p.report.deletion_events);
    EXPECT_EQ(s.report.funneling_events, p.report.funneling_events);
    // Each trial owns its engine, so even per-op sequence numbers in the
    // timeline are schedule-independent.
    const std::vector<obs::TimelineEvent>& se = s.report.forensic.events;
    const std::vector<obs::TimelineEvent>& pe = p.report.forensic.events;
    ASSERT_EQ(se.size(), pe.size());
    for (std::size_t j = 0; j < se.size(); ++j) {
      EXPECT_EQ(se[j].op_seq, pe[j].op_seq);
      EXPECT_EQ(se[j].kind, pe[j].kind);
      EXPECT_EQ(se[j].points, pe[j].points);
      EXPECT_EQ(se[j].path, pe[j].path);
    }
  }
}

TEST_F(RunnerTest, BenignSuiteParallelMatchesSerial) {
  std::vector<sim::BenignWorkload> workloads = sim::figure6_workloads();
  const core::ScoringConfig config;

  TrialOptions options;
  options.jobs = 1;
  const auto serial = run_campaign(*env, workloads, config, 9, options);
  options.jobs = 4;
  const auto parallel = run_campaign(*env, workloads, config, 9, options);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].app, parallel[i].app);
    EXPECT_EQ(serial[i].detected, parallel[i].detected);
    EXPECT_EQ(serial[i].final_score, parallel[i].final_score);
    EXPECT_EQ(serial[i].union_triggered, parallel[i].union_triggered);
  }
}

TEST_F(RunnerTest, SharedDigestCacheDoesNotChangeResults) {
  // Every trial clones the environment's volume, so a corpus baseline is
  // one buffer everywhere and its digest memo is shared. A campaign on a
  // warm environment must match one on an environment freshly built from
  // the same seed: separate buffers, cold memos.
  const auto specs = some_specs(3);
  TrialOptions options;
  options.jobs = 2;
  (void)run_campaign(*env, specs, core::ScoringConfig{}, options);  // warms the memos
  const auto warm = run_campaign(*env, specs, core::ScoringConfig{}, options);
  const Environment fresh = build_environment();
  const auto cold = run_campaign(fresh, specs, core::ScoringConfig{}, options);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].files_lost, cold[i].files_lost);
    EXPECT_EQ(warm[i].final_score, cold[i].final_score);
    EXPECT_EQ(warm[i].report.similarity_drop_events,
              cold[i].report.similarity_drop_events);
  }
}

TEST_F(RunnerTest, InvalidConfigFailsBeforeAnyTrialRuns) {
  core::ScoringConfig bad;
  bad.score_threshold = 100;  // default union_threshold 170 > 100
  TrialOptions options;
  std::atomic<std::size_t> progressed{0};
  options.progress = [&](std::size_t, std::size_t) { ++progressed; };

  EXPECT_THROW(run_campaign(*env, some_specs(3), bad, options), std::invalid_argument);
  EXPECT_THROW(run_campaign(*env, sim::figure6_workloads(), bad, 9, options),
               std::invalid_argument);
  EXPECT_EQ(progressed.load(), 0u);
}

TEST_F(RunnerTest, MonitorSessionSnapshotRoundTrip) {
  core::MonitorSession session(env->base_fs, core::ScoringConfig{});
  const vfs::ProcessId pid = session.spawn("editor");

  // Touch one protected file so the engine has something on the books.
  const std::string path = env->corpus.manifest.front().path;
  ASSERT_TRUE(session.fs().read_file(pid, path).is_ok());

  const core::EngineSnapshot snap = session.snapshot();
  ASSERT_NE(snap.find(pid), nullptr);
  EXPECT_EQ(snap.find(pid)->pid, pid);
  EXPECT_GT(snap.observed_ops, 0u);

  // snapshot().report_for mirrors process_report, including the default
  // report for a pid the engine never saw.
  const core::ProcessReport direct = session.engine().process_report(pid);
  const core::ProcessReport via_snap = snap.report_for(pid);
  EXPECT_EQ(direct.score, via_snap.score);
  EXPECT_EQ(direct.read_extensions, via_snap.read_extensions);

  EXPECT_EQ(snap.find(9999), nullptr);
  EXPECT_EQ(snap.report_for(9999).threshold, core::ScoringConfig{}.score_threshold);
  EXPECT_EQ(snap.report_for(9999).score, 0);
}

TEST_F(RunnerTest, SessionsAreIsolatedFromEachOther) {
  // Two concurrent trials clone the same base volume; destruction in one
  // must be invisible to the other (the snapshot-revert analogue that
  // makes parallel trials safe).
  core::MonitorSession a(env->base_fs, core::ScoringConfig{});
  core::MonitorSession b(env->base_fs, core::ScoringConfig{});
  std::string path;
  for (const corpus::ManifestEntry& entry : env->corpus.manifest) {
    if (!entry.read_only) {
      path = entry.path;
      break;
    }
  }
  ASSERT_FALSE(path.empty());

  const vfs::ProcessId pa = a.spawn("destroyer");
  ASSERT_TRUE(a.fs().remove(pa, path).is_ok());
  EXPECT_FALSE(a.fs().read_file(pa, path).is_ok());

  const vfs::ProcessId pb = b.spawn("bystander");
  EXPECT_TRUE(b.fs().read_file(pb, path).is_ok());
  // b's engine never saw a's destruction (pids coincide across clones,
  // so compare measured events rather than scoreboard membership).
  EXPECT_EQ(b.snapshot().report_for(pb).deletion_events, 0u);
  EXPECT_EQ(a.snapshot().report_for(pa).deletion_events, 1u);
}

}  // namespace
}  // namespace cryptodrop::harness
