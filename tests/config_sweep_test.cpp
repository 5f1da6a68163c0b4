// Property sweep over scoring-configuration subsets: with any two of
// the three primary indicators active, a stock Class A encryptor must
// still be detected with bounded loss; and no indicator subset may turn
// the well-behaved benign editor into a false positive. This pins down
// the redundancy claim behind §III ("each indicator provides value in
// isolation, [but] we use union indication to take action faster").
//
// All trials for the whole sweep are precomputed once on the parallel
// runner's pool (every trial owns its session, so results are identical
// to running them one by one inside each TEST_P); the parameterized
// tests then just assert on the stored outcomes.
#include <gtest/gtest.h>

#include <map>

#include "harness/runner.hpp"

namespace cryptodrop {
namespace {

struct ConfigCase {
  bool entropy;
  bool type_change;
  bool similarity;
  bool deletion;
  bool funneling;
  bool family;

  [[nodiscard]] int primaries() const {
    return (entropy ? 1 : 0) + (type_change ? 1 : 0) + (similarity ? 1 : 0);
  }
  [[nodiscard]] core::ScoringConfig to_config() const {
    core::ScoringConfig config;
    config.entropy.enabled = entropy;
    config.enable_type_change = type_change;
    config.enable_similarity = similarity;
    config.enable_deletion = deletion;
    config.enable_funneling = funneling;
    config.enable_family_scoring = family;
    return config;
  }
  [[nodiscard]] std::string label() const {
    std::string out;
    out += entropy ? 'E' : 'e';
    out += type_change ? 'T' : 't';
    out += similarity ? 'S' : 's';
    out += deletion ? 'D' : 'd';
    out += funneling ? 'F' : 'f';
    out += family ? 'G' : 'g';
    return out;
  }
};

std::vector<ConfigCase> all_cases() {
  std::vector<ConfigCase> cases;
  for (int mask = 0; mask < 32; ++mask) {
    cases.push_back(ConfigCase{(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0,
                               (mask & 8) != 0, (mask & 16) != 0,
                               /*family=*/(mask % 2) == 0});
  }
  return cases;
}

sim::SampleSpec class_a_spec() {
  sim::SampleSpec spec;
  spec.family = "Filecoder";
  spec.behavior = sim::BehaviorClass::A;
  spec.profile = sim::family_profile("Filecoder", sim::BehaviorClass::A);
  spec.profile.traversal = sim::Traversal::alphabetical;
  spec.profile.target_extensions.clear();
  spec.seed = 12345;
  return spec;
}

sim::SampleSpec class_c_prefix_spec() {
  sim::SampleSpec spec;
  spec.family = "CryptoDefense";
  spec.behavior = sim::BehaviorClass::C;
  spec.profile = sim::family_profile("CryptoDefense", sim::BehaviorClass::C);
  spec.profile.max_files = 4;  // short fixed prefix, no suspension
  spec.seed = 999;
  return spec;
}

struct MonotonePair {
  harness::RansomwareRunResult with;
  harness::RansomwareRunResult without;
};

class ConfigSweepTest : public ::testing::TestWithParam<ConfigCase> {
 protected:
  static harness::Environment* env;
  // Trial outcomes keyed by ConfigCase::label(), filled by the pool.
  static std::map<std::string, harness::RansomwareRunResult>* class_a;
  static std::map<std::string, harness::BenignRunResult>* benign;
  static std::map<std::string, MonotonePair>* monotone;

  static void SetUpTestSuite() {
    corpus::CorpusSpec spec;
    spec.total_files = 400;
    spec.total_dirs = 40;
    spec.compute_hashes = false;
    env = new harness::Environment(harness::make_environment(spec, 777));

    class_a = new std::map<std::string, harness::RansomwareRunResult>();
    benign = new std::map<std::string, harness::BenignRunResult>();
    monotone = new std::map<std::string, MonotonePair>();

    // One closure per trial. Keys are inserted up front so the workers
    // only ever write through stable, distinct mapped values.
    std::vector<std::function<void()>> trials;
    for (const ConfigCase& param : all_cases()) {
      const std::string key = param.label();
      if (param.primaries() >= 2) {
        auto* slot = &(*class_a)[key];
        trials.push_back([slot, param] {
          *slot = harness::run_trial(*env, class_a_spec(), param.to_config());
        });
      }
      auto* benign_slot = &(*benign)[key];
      trials.push_back([benign_slot, param] {
        *benign_slot = harness::run_trial(
            *env, sim::benign_workload("Microsoft Word"), param.to_config(), 5);
      });
      auto* pair = &(*monotone)[key];
      trials.push_back([pair, param] {
        core::ScoringConfig base = param.to_config();
        base.score_threshold = 1 << 30;
        base.union_threshold = 1 << 30;
        pair->with = harness::run_trial(*env, class_c_prefix_spec(), base);
        core::ScoringConfig stripped = base;
        stripped.enable_deletion = false;
        pair->without = harness::run_trial(*env, class_c_prefix_spec(), stripped);
      });
    }

    harness::TrialOptions options;  // jobs = 0: one worker per core
    harness::parallel_for(trials.size(), options,
                          [&](std::size_t i) { trials[i](); });
  }

  static void TearDownTestSuite() {
    delete monotone;
    monotone = nullptr;
    delete benign;
    benign = nullptr;
    delete class_a;
    class_a = nullptr;
    delete env;
    env = nullptr;
  }
};

harness::Environment* ConfigSweepTest::env = nullptr;
std::map<std::string, harness::RansomwareRunResult>* ConfigSweepTest::class_a = nullptr;
std::map<std::string, harness::BenignRunResult>* ConfigSweepTest::benign = nullptr;
std::map<std::string, MonotonePair>* ConfigSweepTest::monotone = nullptr;

TEST_P(ConfigSweepTest, TwoPrimariesSufficeAgainstClassA) {
  const ConfigCase& param = GetParam();
  if (param.primaries() < 2) {
    GTEST_SKIP() << "single/zero-indicator configs are covered by bench_ablation";
  }
  const harness::RansomwareRunResult& r = class_a->at(param.label());
  EXPECT_TRUE(r.detected) << param.label();
  EXPECT_LT(r.files_lost, env->corpus.file_count() / 4) << param.label();
}

TEST_P(ConfigSweepTest, BenignEditorNeverFlaggedUnderAnySubset) {
  const ConfigCase& param = GetParam();
  const harness::BenignRunResult& r = benign->at(param.label());
  EXPECT_FALSE(r.detected) << param.label();
  EXPECT_EQ(r.final_score, 0) << param.label();
}

TEST_P(ConfigSweepTest, ScoreIsMonotoneInEnabledIndicators) {
  // Enabling an extra indicator can only raise (or keep) the final score
  // of a fixed malicious run — configs never interfere destructively.
  const ConfigCase& param = GetParam();
  const MonotonePair& pair = monotone->at(param.label());
  EXPECT_GE(pair.with.final_score, pair.without.final_score) << param.label();
}

INSTANTIATE_TEST_SUITE_P(AllSubsets, ConfigSweepTest,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<ConfigCase>& info) {
                           return info.param.label();
                         });

}  // namespace
}  // namespace cryptodrop
