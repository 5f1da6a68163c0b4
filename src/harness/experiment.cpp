#include "harness/experiment.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>

#include "common/stats.hpp"
#include "core/session.hpp"
#include "harness/runner.hpp"
#include "vfs/path.hpp"

namespace cryptodrop::harness {

Environment make_environment(const corpus::CorpusSpec& spec, std::uint64_t seed) {
  Environment env;
  env.spec = spec;
  Rng rng(seed);
  env.corpus = corpus::build_corpus(env.base_fs, spec, rng);
  env.base_fs = env.base_fs.clone();  // folded: every trial clone is O(1)
  return env;
}

Environment make_default_environment(std::uint64_t seed) {
  return make_environment(corpus::CorpusSpec{}, seed);
}

corpus::CorpusSpec small_corpus_spec(std::size_t files, std::size_t dirs) {
  corpus::CorpusSpec spec;
  spec.total_files = files;
  spec.total_dirs = dirs;
  spec.max_depth = 4;
  return spec;
}

namespace {

/// Consecutive denials a sample shrugs off under a fault plan. A
/// first-denial quitter would stop on a spurious injected denial with
/// near-zero files lost on its own, masking the detector.
constexpr std::size_t kChaosGiveUpAfterDenials = 4;

/// Runs `body(fs, pid, result)` as process `name` in a fresh session and
/// fills the fields both result kinds share. Stack order: engine,
/// `recorder`, `below_engine`, then the fault filter — lowest. A fault
/// injected there fails the op before it reaches the volume, and every
/// filter above observes the failed outcome in its post callback.
template <typename Result, typename Body>
Result session_trial(const Environment& env, const core::ScoringConfig& config,
                     const TrialOptions& options, std::uint64_t fault_seed,
                     vfs::Filter* recorder, vfs::Filter* below_engine,
                     const std::string& name, const Body& body) {
  std::optional<vfs::FaultInjectionFilter> faults;
  if (options.faults) faults.emplace(options.faults->reseeded(fault_seed));
  core::MonitorSession session(env.base_fs, config, options.trace);
  vfs::FileSystem& fs = session.fs();
  const std::array<vfs::Filter*, 3> stack = {recorder, below_engine,
                                             faults ? &*faults : nullptr};
  for (vfs::Filter* filter : stack) {
    if (filter != nullptr) fs.attach_filter(filter);
  }

  const vfs::ProcessId pid = session.spawn(name);
  Result result;
  body(fs, pid, result);
  const core::EngineSnapshot snap = session.snapshot();
  result.report = snap.report_for(pid);
  result.scoreboard = snap;
  for (vfs::ProcessId p = 1; p <= fs.process_count(); ++p) {
    result.roster.push_back({p, std::string(fs.process_name(p)), fs.process_parent(p)});
  }
  result.metrics = snap.metrics;
  if (faults) result.metrics.merge(faults->metrics_snapshot());
  result.detected = result.report.suspended;
  result.final_score = result.report.score;
  result.union_triggered = result.report.union_triggered;

  for (vfs::Filter* filter : stack) {
    if (filter != nullptr) fs.detach_filter(filter);
  }
  result.trace = session.trace_snapshot();
  return result;
}

/// Distinct extensions of corpus files process `pid` read, wrote,
/// renamed or removed — Figure 5. Figure 5 reflects "the first files
/// attacked by each sample", so the sample's own artifacts — ransom
/// notes, .encrypted outputs — must not count; membership in the
/// pristine manifest is the filter.
std::set<std::string> extensions_accessed(const std::vector<vfs::TraceEntry>& entries,
                                          vfs::ProcessId pid,
                                          const corpus::Corpus& corpus) {
  std::set<std::string> corpus_paths;
  for (const corpus::ManifestEntry& entry : corpus.manifest) {
    corpus_paths.insert(entry.path);
  }
  std::set<std::string> out;
  for (const vfs::TraceEntry& op : entries) {
    if (op.pid != pid) continue;
    if (op.op != vfs::OpType::read && op.op != vfs::OpType::write &&
        op.op != vfs::OpType::rename && op.op != vfs::OpType::remove) {
      continue;
    }
    if (!corpus_paths.contains(op.path)) continue;
    const std::string ext = vfs::path_extension(op.path);
    if (!ext.empty()) out.insert(ext);
  }
  return out;
}

/// Validates `config` and the fault plan once, then runs `trial(i)` for
/// every index on the pool into index-addressed results.
template <typename Result, typename Trial>
std::vector<Result> parallel_trials(std::size_t count, const core::ScoringConfig& config,
                                    const TrialOptions& options, const Trial& trial) {
  Status valid = config.validate();
  if (valid.is_ok() && options.faults) valid = options.faults->validate();
  if (!valid.is_ok()) throw std::invalid_argument("run_campaign: " + valid.to_string());
  std::vector<Result> results(count);
  parallel_for(count, options, [&](std::size_t i) { results[i] = trial(i); });
  return results;
}

}  // namespace

RansomwareRunResult run_trial(const Environment& env, const sim::SampleSpec& spec,
                              const core::ScoringConfig& config,
                              const TrialOptions& options, vfs::Filter* below_engine) {
  sim::RansomwareProfile profile = spec.profile;
  if (options.faults) profile.give_up_after_denials = kChaosGiveUpAfterDenials;
  vfs::TraceRecorder recorder(/*capture_content=*/false);
  RansomwareRunResult result = session_trial<RansomwareRunResult>(
      env, config, options, spec.seed, &recorder, below_engine, spec.family,
      [&](vfs::FileSystem& fs, vfs::ProcessId pid, RansomwareRunResult& out) {
        out.family = spec.family;
        out.behavior = spec.behavior;
        out.sample = sim::RansomwareSample(profile, spec.seed).run(fs, pid, env.corpus.root);
        out.files_lost = corpus::count_files_lost(fs, env.corpus);
        out.directories_touched = directories_touched(recorder.entries(), pid, env.corpus.root);
        out.extensions_accessed = extensions_accessed(recorder.entries(), pid, env.corpus);
      });
  result.union_count = result.report.union_count;
  // With family scoring, the root's report covers spawned workers; when
  // an ablation disables it, a fault-free run halted by denials still
  // counts as detected (every worker was individually flagged). Under
  // faults an injected denial halts a sample just like a suspension, so
  // only the engine's own verdict counts.
  if (!options.faults && !result.sample.ran_to_completion && result.sample.ops_denied > 0) {
    result.detected = true;
  }
  return result;
}

BenignRunResult run_trial(const Environment& env, const sim::BenignWorkload& workload,
                          const core::ScoringConfig& config, std::uint64_t seed,
                          const TrialOptions& options, vfs::Filter* below_engine) {
  return session_trial<BenignRunResult>(
      env, config, options, seed_from_string(workload.name) + seed, nullptr, below_engine,
      workload.name, [&](vfs::FileSystem& fs, vfs::ProcessId pid, BenignRunResult& out) {
        out.app = workload.name;
        out.expected_false_positive = workload.expected_false_positive;
        sim::WorkloadContext ctx{fs, pid, env.corpus.root, Rng(seed)};
        workload.run(ctx);
      });
}

std::vector<RansomwareRunResult> run_campaign(const Environment& env,
                                              const std::vector<sim::SampleSpec>& specs,
                                              const core::ScoringConfig& config,
                                              const TrialOptions& options) {
  return parallel_trials<RansomwareRunResult>(specs.size(), config, options, [&](std::size_t i) {
    return run_trial(env, specs[i], config, options);
  });
}

std::vector<BenignRunResult> run_campaign(const Environment& env,
                                          const std::vector<sim::BenignWorkload>& workloads,
                                          const core::ScoringConfig& config,
                                          std::uint64_t seed, const TrialOptions& options) {
  return parallel_trials<BenignRunResult>(workloads.size(), config, options, [&](std::size_t i) {
    return run_trial(env, workloads[i], config, seed, options);
  });
}

std::set<std::string> directories_touched(const std::vector<vfs::TraceEntry>& entries,
                                          vfs::ProcessId pid, std::string_view root) {
  std::set<std::string> out;
  auto add = [&](const std::string& path) {
    std::string dir = vfs::path_parent(path);
    if (vfs::path_is_under(dir, root)) out.insert(std::move(dir));
  };
  for (const vfs::TraceEntry& op : entries) {
    if (op.pid != pid) continue;
    switch (op.op) {
      case vfs::OpType::read:
      case vfs::OpType::write:
      case vfs::OpType::remove:
        add(op.path);
        break;
      case vfs::OpType::rename:
        add(op.path);
        add(op.dest_path);
        break;
      default:
        break;
    }
  }
  return out;
}

obs::MetricsSnapshot merged_metrics(const std::vector<RansomwareRunResult>& results) {
  obs::MetricsSnapshot merged;
  for (const RansomwareRunResult& r : results) merged.merge(r.metrics);
  return merged;
}

obs::MetricsSnapshot merged_metrics(const std::vector<BenignRunResult>& results) {
  obs::MetricsSnapshot merged;
  for (const BenignRunResult& r : results) merged.merge(r.metrics);
  return merged;
}

std::vector<FamilyRow> aggregate_table1(const std::vector<RansomwareRunResult>& results) {
  std::map<std::string, std::vector<const RansomwareRunResult*>> by_family;
  for (const RansomwareRunResult& r : results) by_family[r.family].push_back(&r);

  std::vector<FamilyRow> rows;
  for (const auto& [family, runs] : by_family) {
    FamilyRow row;
    row.family = family;
    std::vector<double> losses;
    for (const RansomwareRunResult* r : runs) {
      switch (r->behavior) {
        case sim::BehaviorClass::A: ++row.class_a; break;
        case sim::BehaviorClass::B: ++row.class_b; break;
        case sim::BehaviorClass::C: ++row.class_c; break;
      }
      losses.push_back(static_cast<double>(r->files_lost));
    }
    row.total = runs.size();
    row.median_files_lost = median(std::move(losses));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<double> files_lost_values(const std::vector<RansomwareRunResult>& results) {
  std::vector<double> out;
  out.reserve(results.size());
  for (const RansomwareRunResult& r : results) {
    out.push_back(static_cast<double>(r.files_lost));
  }
  return out;
}

std::vector<std::pair<std::string, std::size_t>> extension_frequency(
    const std::vector<RansomwareRunResult>& results) {
  std::map<std::string, std::size_t> counts;
  for (const RansomwareRunResult& r : results) {
    for (const std::string& ext : r.extensions_accessed) ++counts[ext];
  }
  std::vector<std::pair<std::string, std::size_t>> out(counts.begin(), counts.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace cryptodrop::harness
