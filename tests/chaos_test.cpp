// Chaos campaigns (ctest label: chaos): the zoo and the benign suite
// replayed over a faulted substrate. The detector's results must hold —
// full TPR, no new false positives, comparable files lost — and the
// whole campaign must stay bit-identical at any job count, fault stream
// included.
#include <gtest/gtest.h>

#include <optional>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/text.hpp"
#include "core/engine.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "sim/benign/benign.hpp"
#include "sim/ransomware/families.hpp"
#include "simhash/digest_cache.hpp"
#include "vfs/filesystem.hpp"

namespace cryptodrop::harness {
namespace {

constexpr double kFaultRate = 0.10;
constexpr std::uint64_t kFaultSeed = 2016;

class ChaosTest : public ::testing::Test {
 protected:
  static Environment* env;

  static void SetUpTestSuite() {
    corpus::CorpusSpec spec;
    spec.total_files = 400;
    spec.total_dirs = 40;
    spec.compute_hashes = false;
    env = new Environment(make_environment(spec, 123));
  }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }

  /// An even slice through the Table-I zoo (preserves family variety).
  static std::vector<sim::SampleSpec> zoo_subset(std::size_t count) {
    const std::vector<sim::SampleSpec> all = sim::table1_samples(1);
    std::vector<sim::SampleSpec> picked;
    const double stride =
        static_cast<double>(all.size()) / static_cast<double>(count);
    for (std::size_t i = 0; i < count; ++i) {
      picked.push_back(all[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
    }
    return picked;
  }

  static TrialOptions chaos_options(std::size_t jobs = 0) {
    TrialOptions options;
    options.jobs = jobs;
    options.faults = vfs::FaultPlan::uniform(kFaultRate, kFaultSeed);
    return options;
  }
};

Environment* ChaosTest::env = nullptr;

std::uint64_t total_faults(const obs::MetricsSnapshot& snap) {
  std::uint64_t total = 0;
  for (const obs::CounterSnapshot& c : snap.counters) {
    if (c.name.rfind("faults_injected_total.", 0) == 0) total += c.value;
  }
  return total;
}

TEST_F(ChaosTest, ZooKeepsFullTPRUnderFaults) {
  const auto specs = zoo_subset(10);
  const auto results = run_campaign(*env, specs, core::ScoringConfig{}, chaos_options());
  ASSERT_EQ(results.size(), specs.size());
  std::size_t detected = 0;
  for (const auto& r : results) {
    EXPECT_TRUE(r.detected) << r.family << " escaped under faults";
    detected += r.detected ? 1 : 0;
  }
  EXPECT_EQ(detected, specs.size());  // 100% TPR at a 10% fault rate
  // Fault counts are metrics; -DCRYPTODROP_NO_METRICS compiles them out
  // (the faults themselves are still injected).
  if (obs::kMetricsEnabled) {
    EXPECT_GT(total_faults(merged_metrics(results)), 0u)
        << "campaign ran fault-free; the chaos plan was not applied";
  }
}

TEST_F(ChaosTest, FilesLostStaysComparableToFaultFree) {
  const auto specs = zoo_subset(10);
  const core::ScoringConfig config;
  const auto faulted = run_campaign(*env, specs, config, chaos_options());
  const auto clean = run_campaign(*env, specs, config);
  const double faulted_median = median(files_lost_values(faulted));
  const double clean_median = median(files_lost_values(clean));
  // Faults can nudge loss both ways (failed encryption writes lose
  // fewer files; delayed detection loses more) but must not change its
  // order of magnitude.
  EXPECT_LE(faulted_median, clean_median * 2.0 + 4.0);
  EXPECT_GE(faulted_median + 4.0, clean_median / 2.0);
}

TEST_F(ChaosTest, BenignSuiteAddsNoNewFalsePositives) {
  const auto workloads = sim::all_benign_workloads();
  const core::ScoringConfig config;
  const auto faulted = run_campaign(*env, workloads, config, 9, chaos_options());
  const auto clean = run_campaign(*env, workloads, config, 9);
  ASSERT_EQ(faulted.size(), clean.size());
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    EXPECT_EQ(faulted[i].app, clean[i].app);
    if (faulted[i].detected && !faulted[i].expected_false_positive) {
      EXPECT_TRUE(clean[i].detected)
          << faulted[i].app << " became a false positive only under faults";
    }
  }
}

TEST_F(ChaosTest, CampaignIsBitIdenticalAcrossJobCounts) {
  const auto specs = zoo_subset(8);
  const core::ScoringConfig config;
  const auto r1 = run_campaign(*env, specs, config, chaos_options(1));
  const auto r3 = run_campaign(*env, specs, config, chaos_options(3));
  ASSERT_EQ(r1.size(), r3.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].detected, r3[i].detected) << i;
    EXPECT_EQ(r1[i].files_lost, r3[i].files_lost) << i;
    EXPECT_EQ(r1[i].final_score, r3[i].final_score) << i;
    EXPECT_EQ(r1[i].union_triggered, r3[i].union_triggered) << i;
  }
  // The full counter picture — engine counters and injected-fault
  // counters alike — is part of the determinism contract.
  const obs::MetricsSnapshot m1 = merged_metrics(r1);
  const obs::MetricsSnapshot m3 = merged_metrics(r3);
  ASSERT_EQ(m1.counters.size(), m3.counters.size());
  for (std::size_t i = 0; i < m1.counters.size(); ++i) {
    EXPECT_EQ(m1.counters[i].name, m3.counters[i].name);
    EXPECT_EQ(m1.counters[i].value, m3.counters[i].value) << m1.counters[i].name;
  }
  if (obs::kMetricsEnabled) {
    EXPECT_GT(total_faults(m1), 0u);
  }
}

TEST_F(ChaosTest, BenignSuiteIsBitIdenticalAcrossJobCounts) {
  const auto workloads = sim::all_benign_workloads();
  const core::ScoringConfig config;
  const auto r1 = run_campaign(*env, workloads, config, 9, chaos_options(1));
  const auto r3 = run_campaign(*env, workloads, config, 9, chaos_options(3));
  ASSERT_EQ(r1.size(), r3.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].detected, r3[i].detected) << r1[i].app;
    EXPECT_EQ(r1[i].final_score, r3[i].final_score) << r1[i].app;
  }
  const obs::MetricsSnapshot m1 = merged_metrics(r1);
  const obs::MetricsSnapshot m3 = merged_metrics(r3);
  ASSERT_EQ(m1.counters.size(), m3.counters.size());
  for (std::size_t i = 0; i < m1.counters.size(); ++i) {
    EXPECT_EQ(m1.counters[i].value, m3.counters[i].value) << m1.counters[i].name;
  }
}

TEST_F(ChaosTest, DigestCacheNeverStaleAfterTruncateThenRewrite) {
  // Regression guard for the close-path digest-retention optimisation:
  // the engine keeps the freshly measured digest as the next baseline,
  // and each content buffer memoizes its own digest — neither may ever
  // hand back the *old* content's digest after a truncate-then-rewrite,
  // or the similarity indicator would compare ransomware output against
  // itself and stay silent.
  core::ScoringConfig config;
  config.protected_root = "users/victim/documents";
  config.score_threshold = 1000000;  // indicators only; no suspension
  config.union_threshold = 1000000;

  Rng rng(777);
  const Bytes prose = to_bytes(synth_prose(rng, 30000));
  const Bytes noise = rng.bytes(30000);
  const std::string path = "users/victim/documents/ledger.txt";

  for (int round = 0; round < 2; ++round) {
    // Two rounds over the same bytes in fresh buffers: what round 1
    // memoized must not leak into round 2's measurements.
    vfs::FileSystem fs;
    core::AnalysisEngine engine(config);
    fs.attach_filter(&engine);
    const vfs::ProcessId pid = fs.register_process("subject");
    ASSERT_TRUE(fs.put_file_raw(path, prose).is_ok());
    ASSERT_TRUE(fs.read_file(pid, path).is_ok());

    // Truncate-then-rewrite with unrelated bytes: the baseline digest
    // (captured pre-truncate) must be compared against the *new*
    // content's digest, never a stale memoized one.
    auto h = fs.open(pid, path, vfs::kWrite | vfs::kTruncate);
    ASSERT_TRUE(h.is_ok());
    ASSERT_TRUE(fs.write(pid, h.value(), ByteView(noise)).is_ok());
    ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
    EXPECT_EQ(engine.process_report(pid).similarity_drop_events, 1u)
        << "round " << round;

    // Rewrite back to the original prose: the retained baseline is now
    // the noise digest, so similarity must drop again — a stale "prose"
    // baseline would instead report a perfect match here.
    auto h2 = fs.open(pid, path, vfs::kWrite | vfs::kTruncate);
    ASSERT_TRUE(h2.is_ok());
    ASSERT_TRUE(fs.write(pid, h2.value(), ByteView(prose)).is_ok());
    ASSERT_TRUE(fs.close(pid, h2.value()).is_ok());
    EXPECT_EQ(engine.process_report(pid).similarity_drop_events, 2u)
        << "round " << round;
  }

  // Memo-level check of the same hazard on the one path that changes a
  // buffer in place: a write to a buffer its file node alone holds.
  vfs::FileSystem fs;
  const vfs::ProcessId pid = fs.register_process("appender");
  auto h = fs.open(pid, path, vfs::kWrite | vfs::kCreate);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.write(pid, h.value(), ByteView(prose)).is_ok());
  const vfs::Content* buffer = nullptr;
  std::optional<simhash::SimilarityDigest> before;
  {
    const auto content = fs.read_unfiltered(path);
    buffer = content.get();
    before = simhash::memoized_digest(*content);
    ASSERT_TRUE(before.has_value());
    ASSERT_NE(content->memo(), nullptr);
  }  // the node is the buffer's only holder again
  ASSERT_TRUE(fs.write(pid, h.value(), ByteView(noise)).is_ok());
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  const auto content = fs.read_unfiltered(path);
  ASSERT_EQ(content.get(), buffer) << "the append must take the in-place path";
  const auto after = simhash::memoized_digest(*content);
  const auto fresh = simhash::SimilarityDigest::compute(ByteView(*content));
  ASSERT_TRUE(after.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(*after == *fresh);
  EXPECT_FALSE(*after == *before);
}

TEST_F(ChaosTest, InvalidPlanIsRejectedBeforeAnyTrialRuns) {
  TrialOptions options;
  options.faults.emplace().write.io_error = 7.0;
  EXPECT_THROW(run_campaign(*env, zoo_subset(2), core::ScoringConfig{}, options),
               std::invalid_argument);
  EXPECT_THROW(run_campaign(*env, sim::all_benign_workloads(), core::ScoringConfig{}, 9,
                            options),
               std::invalid_argument);
}

TEST_F(ChaosTest, RateZeroPlanJudgesBySuspensionAloneAndMergesFaultCounters) {
  // Without family scoring, eight workers are suspended one by one and
  // the root is never scored. A fault-free trial counts the run the
  // denials halted as detected; a chaos trial does not, even at rate 0
  // (bench_chaos's baseline row).
  sim::SampleSpec spec;
  spec.family = "TeslaCrypt";
  spec.behavior = sim::BehaviorClass::A;
  spec.profile = sim::family_profile(spec.family, spec.behavior);
  spec.profile.worker_processes = 8;
  spec.seed = 5;
  core::ScoringConfig no_family;
  no_family.enable_family_scoring = false;
  TrialOptions rate_zero;
  rate_zero.faults = vfs::FaultPlan::uniform(0.0, kFaultSeed);

  const RansomwareRunResult clean = run_trial(*env, spec, no_family);
  const RansomwareRunResult chaos = run_trial(*env, spec, no_family, rate_zero);
  ASSERT_FALSE(clean.sample.ran_to_completion);
  EXPECT_TRUE(clean.detected);
  EXPECT_FALSE(chaos.sample.ran_to_completion);
  EXPECT_FALSE(chaos.report.suspended);
  EXPECT_FALSE(chaos.detected);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(clean.metrics.counter("faults_injected_total.io_error"), nullptr);
    const obs::CounterSnapshot* io = chaos.metrics.counter("faults_injected_total.io_error");
    ASSERT_NE(io, nullptr);
    EXPECT_EQ(io->value, 0u);
  }
}

}  // namespace
}  // namespace cryptodrop::harness
