// Parameterized property sweeps across the system's invariants:
// detection holds for every family x class combination, VFS invariants
// hold under randomized operation sequences, and scoring is monotone.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "volume_dump.hpp"

namespace cryptodrop {
namespace {

harness::Environment& shared_env() {
  static harness::Environment env = [] {
    corpus::CorpusSpec spec;
    spec.total_files = 500;
    spec.total_dirs = 50;
    spec.compute_hashes = false;
    return harness::make_environment(spec, 31337);
  }();
  return env;
}

// --- detection holds for every (family, class) pair in the Table-I set ----

struct FamilyClassCase {
  std::string family;
  sim::BehaviorClass behavior;
};

class FamilyClassDetectionTest : public ::testing::TestWithParam<FamilyClassCase> {};

TEST_P(FamilyClassDetectionTest, DetectedWithBoundedLoss) {
  const auto& param = GetParam();
  sim::SampleSpec spec;
  spec.family = param.family;
  spec.behavior = param.behavior;
  spec.profile = sim::family_profile(param.family, param.behavior);
  spec.profile.behavior = param.behavior;
  spec.seed = seed_from_string(param.family) ^ static_cast<std::uint64_t>(param.behavior);
  const auto r = harness::run_trial(shared_env(), spec, core::ScoringConfig{});
  EXPECT_TRUE(r.detected);
  // Bounded loss: well under 15% of the corpus for every combination.
  EXPECT_LT(r.files_lost, shared_env().corpus.file_count() * 15 / 100);
  EXPECT_FALSE(r.sample.ran_to_completion);
}

std::vector<FamilyClassCase> all_family_class_cases() {
  std::map<std::string, std::set<sim::BehaviorClass>> seen;
  for (const sim::SampleSpec& s : sim::table1_samples(1)) {
    seen[s.family].insert(s.behavior);
  }
  std::vector<FamilyClassCase> cases;
  for (const auto& [family, classes] : seen) {
    for (sim::BehaviorClass cls : classes) cases.push_back({family, cls});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Table1Pairs, FamilyClassDetectionTest,
    ::testing::ValuesIn(all_family_class_cases()),
    [](const ::testing::TestParamInfo<FamilyClassCase>& info) {
      std::string name = info.param.family + "_" +
                         std::string(sim::behavior_class_name(info.param.behavior));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- threshold monotonicity: lower threshold never loses more files ----------

class ThresholdSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdSweepTest, DetectionAtThreshold) {
  sim::SampleSpec spec;
  spec.family = "TeslaCrypt";
  spec.behavior = sim::BehaviorClass::A;
  spec.profile = sim::family_profile("TeslaCrypt", sim::BehaviorClass::A);
  spec.seed = 4242;
  core::ScoringConfig config;
  config.score_threshold = GetParam();
  config.union_threshold = std::min(config.union_threshold, GetParam());
  const auto r = harness::run_trial(shared_env(), spec, config);
  EXPECT_TRUE(r.detected);
  // Stash for the monotonicity check below via static map.
  static std::map<int, std::size_t>& losses = *new std::map<int, std::size_t>();
  losses[GetParam()] = r.files_lost;
  for (auto it = losses.begin(); it != losses.end(); ++it) {
    for (auto jt = std::next(it); jt != losses.end(); ++jt) {
      EXPECT_LE(it->second, jt->second)
          << "threshold " << it->first << " vs " << jt->first;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweepTest,
                         ::testing::Values(50, 100, 200, 400));

// --- randomized VFS workload invariants ------------------------------------

/// One fuzz step over a volume and its open handles (indexed, so the
/// step replays on any volume that ran the same history).
using FuzzStep = std::function<Status(vfs::FileSystem&, vfs::ProcessId,
                                      std::vector<vfs::Handle>&)>;

/// What a fresh, never-cloned volume holds after running `history`.
std::string replayed_dump(const std::vector<FuzzStep>& history) {
  vfs::FileSystem fresh;
  const vfs::ProcessId pid = fresh.register_process("fuzzer");
  std::vector<vfs::Handle> handles;
  for (const FuzzStep& step : history) (void)step(fresh, pid, handles);
  return vfs::volume_dump(fresh);
}

/// A path-level step for a snapshot volume, drawn from its own listing.
FuzzStep snapshot_step(const vfs::FileSystem& snapshot, Rng& rng) {
  const std::vector<std::string> files = snapshot.list_files_recursive("");
  const std::string fresh_path =
      "d" + std::to_string(rng.uniform(0, 7)) + "/s" + std::to_string(rng.uniform(0, 30));
  const std::uint64_t action = files.empty() ? 0 : rng.uniform(0, 5);
  const std::string path = files.empty() ? fresh_path : rng.pick(files);
  switch (action) {
    case 0: {
      const Bytes data = rng.bytes(rng.uniform(0, 600));
      return [=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>&) {
        return v.write_file(p, fresh_path, data);
      };
    }
    case 1:
      return [=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>&) {
        return v.remove(p, path);
      };
    case 2:
      return [=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>&) {
        return v.rename(p, path, fresh_path);
      };
    case 3: {
      const std::uint64_t size = rng.uniform(0, 300);
      return [=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>&) {
        auto h = v.open(p, path, vfs::kWrite);
        if (!h) return h.status();
        const Status truncated = v.truncate(p, h.value(), size);
        (void)v.close(p, h.value());
        return truncated;
      };
    }
    case 4: {
      const bool read_only = rng.chance(0.5);
      return [=](vfs::FileSystem& v, vfs::ProcessId, std::vector<vfs::Handle>&) {
        return v.set_read_only(path, read_only);
      };
    }
    default: {
      const Bytes data = rng.bytes(rng.uniform(0, 600));
      return [=](vfs::FileSystem& v, vfs::ProcessId, std::vector<vfs::Handle>&) {
        return v.put_file_raw(path, data);
      };
    }
  }
}

class VfsFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VfsFuzzTest, RandomOperationSequencePreservesInvariants) {
  vfs::FileSystem fs;
  Rng rng(GetParam());
  const vfs::ProcessId pid = fs.register_process("fuzzer");
  std::vector<std::string> known_paths;
  std::vector<vfs::Handle> open_handles;
  std::vector<FuzzStep> history;
  const auto run = [&](FuzzStep step) {
    const Status outcome = step(fs, pid, open_handles);
    history.push_back(std::move(step));
    return outcome;
  };
  const auto handle_index = [&] {
    return static_cast<std::size_t>(rng.uniform(0, open_handles.size() - 1));
  };

  // The latest mid-stream clone. It diverges through its own steps
  // (drawn from a separate Rng, so the original's sequence is the same
  // with or without it) and must always equal a fresh volume that ran
  // its history: the original's up to the clone, then its own.
  std::optional<vfs::FileSystem> snapshot;
  std::vector<FuzzStep> snapshot_history;
  std::vector<vfs::Handle> snapshot_handles;
  vfs::ProcessId snapshot_pid = 0;
  Rng snapshot_rng(GetParam() + 1000);

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t action = rng.uniform(0, 9);
    switch (action) {
      case 0: {  // create file
        const std::string path =
            "d" + std::to_string(rng.uniform(0, 5)) + "/f" + std::to_string(rng.uniform(0, 30));
        const Bytes data = rng.bytes(rng.uniform(0, 2000));
        if (run([=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>&) {
              return v.write_file(p, path, data);
            }).is_ok()) {
          known_paths.push_back(path);
        }
        break;
      }
      case 1: {  // open
        if (known_paths.empty()) break;
        const std::string path = rng.pick(known_paths);
        const unsigned mode = rng.chance(0.5) ? vfs::kRead : (vfs::kRead | vfs::kWrite);
        (void)run([=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>& hs) {
          auto h = v.open(p, path, mode);
          if (h) hs.push_back(h.value());
          return h.status();
        });
        break;
      }
      case 2: {  // read through a handle
        if (open_handles.empty()) break;
        const std::size_t i = handle_index();
        const std::uint64_t n = rng.uniform(0, 512);
        (void)run([=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>& hs) {
          return v.read(p, hs[i], n).status();
        });
        break;
      }
      case 3: {  // write through a handle
        if (open_handles.empty()) break;
        const std::size_t i = handle_index();
        const Bytes data = rng.bytes(rng.uniform(0, 512));
        (void)run([=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>& hs) {
          return v.write(p, hs[i], data);
        });
        break;
      }
      case 4: {  // close
        if (open_handles.empty()) break;
        const std::size_t i = handle_index();
        (void)run([=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>& hs) {
          const Status closed = v.close(p, hs[i]);
          hs.erase(hs.begin() + static_cast<std::ptrdiff_t>(i));
          return closed;
        });
        break;
      }
      case 5: {  // remove
        if (known_paths.empty()) break;
        const std::string path = rng.pick(known_paths);
        (void)run([=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>&) {
          return v.remove(p, path);
        });
        break;
      }
      case 6: {  // rename
        if (known_paths.empty()) break;
        const std::string to =
            "d" + std::to_string(rng.uniform(0, 5)) + "/r" + std::to_string(rng.uniform(0, 30));
        const std::string from = rng.pick(known_paths);
        if (run([=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>&) {
              return v.rename(p, from, to);
            }).is_ok()) {
          known_paths.push_back(to);
        }
        break;
      }
      case 7: {  // mkdir
        const std::string path = "d" + std::to_string(rng.uniform(0, 8));
        (void)run([=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>&) {
          return v.mkdir(p, path);
        });
        break;
      }
      case 8: {  // seek
        if (open_handles.empty()) break;
        const std::size_t i = handle_index();
        const std::uint64_t pos = rng.uniform(0, 4096);
        (void)run([=](vfs::FileSystem& v, vfs::ProcessId p, std::vector<vfs::Handle>& hs) {
          return v.seek(p, hs[i], pos);
        });
        break;
      }
      case 9: {  // clone mid-stream: must not disturb the original
        if (snapshot) {
          EXPECT_EQ(vfs::volume_dump(*snapshot), replayed_dump(snapshot_history))
              << "diverged snapshot, step " << step;
        }
        snapshot.emplace(fs.clone());
        EXPECT_EQ(snapshot->file_count(), fs.file_count());
        EXPECT_EQ(snapshot->open_handle_count(), 0u);
        EXPECT_EQ(vfs::volume_dump(*snapshot), vfs::volume_dump(fs)) << "step " << step;
        snapshot_history = history;
        snapshot_handles.clear();
        snapshot_pid = snapshot->register_process("fuzzer");
        break;
      }
    }
    if (snapshot && snapshot_rng.chance(0.5)) {
      FuzzStep own = snapshot_step(*snapshot, snapshot_rng);
      (void)own(*snapshot, snapshot_pid, snapshot_handles);
      snapshot_history.push_back(std::move(own));
    }

    // Invariants after every step:
    EXPECT_LE(fs.open_handle_count(), open_handles.size());
    for (const std::string& path : fs.list_files_recursive("")) {
      auto info = fs.stat(path);
      ASSERT_TRUE(info.is_ok()) << path;
      auto data = fs.read_unfiltered(path);
      ASSERT_NE(data, nullptr) << path;
      EXPECT_EQ(data->size(), info.value().size) << path;
    }
  }
  // Both volumes still match their own op histories.
  EXPECT_EQ(vfs::volume_dump(fs), replayed_dump(history));
  if (snapshot) {
    EXPECT_EQ(vfs::volume_dump(*snapshot), replayed_dump(snapshot_history));
  }
  // Drain remaining handles; every close of a live handle succeeds once.
  for (const vfs::Handle& h : open_handles) (void)fs.close(pid, h);
  EXPECT_EQ(fs.open_handle_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VfsFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- engine never flags a no-op or read-only process -------------------------

class ReadOnlyProcessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReadOnlyProcessTest, PureReadersScoreZero) {
  vfs::FileSystem fs = shared_env().base_fs.clone();
  core::AnalysisEngine engine((core::ScoringConfig()));
  fs.attach_filter(&engine);
  const vfs::ProcessId pid = fs.register_process("reader");
  Rng rng(GetParam());
  const auto files = fs.list_files_recursive(shared_env().corpus.root);
  for (int i = 0; i < 60; ++i) {
    (void)fs.read_file(pid, rng.pick(files));
  }
  EXPECT_EQ(engine.score(pid), 0);
  EXPECT_FALSE(engine.is_suspended(pid));
  fs.detach_filter(&engine);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadOnlyProcessTest,
                         ::testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace cryptodrop
