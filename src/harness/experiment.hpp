// Experiment harness: builds the environment once, then executes malware
// samples / benign workloads against cheap copy-on-write clones of it —
// the in-memory equivalent of the paper's "revert the VM snapshot between
// samples" methodology — and gathers the measurements every table and
// figure is derived from.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "corpus/builder.hpp"
#include "obs/span.hpp"
#include "sim/benign/benign.hpp"
#include "sim/ransomware/families.hpp"
#include "sim/ransomware/ransomware.hpp"
#include "vfs/fault_filter.hpp"
#include "vfs/filesystem.hpp"
#include "vfs/trace.hpp"

namespace cryptodrop::harness {

/// A populated victim machine: base volume + corpus manifest.
struct Environment {
  vfs::FileSystem base_fs;
  corpus::Corpus corpus;
  corpus::CorpusSpec spec;
};

/// Builds the standard 5,099-file / 511-directory environment (or a
/// custom `spec`). Deterministic in `seed`.
Environment make_environment(const corpus::CorpusSpec& spec, std::uint64_t seed);
/// make_environment() with the paper's default corpus spec.
Environment make_default_environment(std::uint64_t seed);

/// A scaled-down environment for unit/integration tests (fast to build).
corpus::CorpusSpec small_corpus_spec(std::size_t files, std::size_t dirs);

/// One registered process of a trial volume (pid order). The daemon
/// parity runner replays this roster through `spawn` requests so the
/// tenant's process table — and therefore family scoring — reproduces
/// the golden run's exactly.
struct ProcessRosterEntry {
  vfs::ProcessId pid = 0;
  std::string name;
  vfs::ProcessId parent = 0;  ///< 0 = no parent.
};

/// Outcome of one ransomware sample vs. CryptoDrop.
struct RansomwareRunResult {
  std::string family;
  sim::BehaviorClass behavior{};
  bool detected = false;
  std::size_t files_lost = 0;
  int final_score = 0;
  bool union_triggered = false;
  std::uint64_t union_count = 0;
  core::ProcessReport report;
  /// The full end-of-run engine snapshot (every process report + the
  /// default threshold) — the daemon parity gate compares this
  /// scoreboard against a live daemon's `verdicts` response
  /// (harness/daemon_runner.hpp).
  core::EngineSnapshot scoreboard;
  /// Every process registered on the trial volume when the run ended.
  std::vector<ProcessRosterEntry> roster;
  /// The trial engine's full metrics at the end of the run (counters,
  /// gauges, stage-latency histograms). Merge across trials with
  /// merged_metrics().
  obs::MetricsSnapshot metrics;
  /// Every span the trial's tracer retained (empty unless the run was
  /// given enabled TraceOptions). Export with harness::trace_report.
  obs::SpanSnapshot trace;
  sim::SampleRun sample;
  /// Directories (under the corpus root) where the sample read or wrote
  /// at least one file before being stopped — Figure 4's shading.
  std::set<std::string> directories_touched;
  /// Distinct extensions of corpus files the sample accessed — Figure 5.
  std::set<std::string> extensions_accessed;
};

/// Outcome of one benign workload vs. CryptoDrop.
struct BenignRunResult {
  std::string app;
  bool detected = false;           ///< Suspended at the configured threshold.
  bool expected_false_positive = false;
  int final_score = 0;
  bool union_triggered = false;
  core::ProcessReport report;
  /// The full end-of-run engine snapshot (daemon parity gate input, as
  /// in RansomwareRunResult).
  core::EngineSnapshot scoreboard;
  /// Every process registered on the trial volume when the run ended.
  std::vector<ProcessRosterEntry> roster;
  /// The trial engine's full metrics at the end of the run.
  obs::MetricsSnapshot metrics;
  /// Spans retained by the trial's tracer (empty unless traced).
  obs::SpanSnapshot trace;
};

/// How trials run: campaign workers, span tracing, and an optional fault
/// plan. Plain value type.
struct TrialOptions {
  /// Campaign worker threads; 0 means one per hardware thread. A
  /// campaign is bit-identical at any job count (runner.hpp).
  std::size_t jobs = 0;
  /// Invoked after each finished campaign trial with (finished, total).
  /// Calls are serialized, but trials finish out of submission order.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Span tracing for every trial. Disabled by default; when enabled each
  /// result carries its own SpanSnapshot, and the deterministic span-id
  /// scheme makes the merged trace identical at any job count.
  obs::TraceOptions trace;
  /// Set = a chaos trial. Each trial stacks its own FaultInjectionFilter
  /// lowest, running plan.reseeded(<trial seed>), so the faults a trial
  /// sees depend only on the plan and that trial. The filter's
  /// faults_injected_total counters are merged into the result's
  /// metrics, samples shrug off 4 consecutive denials instead of 1, and
  /// `detected` means the engine suspended the process — nothing else
  /// (an injected denial halts a sample just like a suspension would).
  std::optional<vfs::FaultPlan> faults;
};

/// Runs one ransomware sample in a fresh MonitorSession over a pristine
/// clone of `env.base_fs`. Deterministic in the spec's seed (and the
/// fault plan). The filter stack is: engine, the trial's op recorder,
/// `below_engine` (may be null), then the fault filter. `below_engine`
/// is attached before the sample starts and detached before returning,
/// so one caller-owned filter serves exactly one trial.
RansomwareRunResult run_trial(const Environment& env, const sim::SampleSpec& spec,
                              const core::ScoringConfig& config,
                              const TrialOptions& options = {},
                              vfs::Filter* below_engine = nullptr);

/// Runs one benign workload in a fresh MonitorSession; deterministic in
/// `seed`. Stack as above, without the op recorder; the fault stream is
/// salted with the workload's name and `seed`, not with trial order.
BenignRunResult run_trial(const Environment& env, const sim::BenignWorkload& workload,
                          const core::ScoringConfig& config, std::uint64_t seed,
                          const TrialOptions& options = {},
                          vfs::Filter* below_engine = nullptr);

/// One sample trial per spec on `options.jobs` workers, results in spec
/// order. Throws std::invalid_argument when `config` or the fault plan
/// does not validate, before any trial runs.
std::vector<RansomwareRunResult> run_campaign(const Environment& env,
                                              const std::vector<sim::SampleSpec>& specs,
                                              const core::ScoringConfig& config,
                                              const TrialOptions& options = {});

/// The benign suite: one trial per workload, all with the same `seed`,
/// results in workload order. Validates like the sample campaign.
std::vector<BenignRunResult> run_campaign(const Environment& env,
                                          const std::vector<sim::BenignWorkload>& workloads,
                                          const core::ScoringConfig& config,
                                          std::uint64_t seed,
                                          const TrialOptions& options = {});

/// Directories under `root` holding a file that process `pid` read,
/// wrote or removed, or renamed from or to, in an op recorder's
/// `entries` — Figure 4's shading for one sample.
std::set<std::string> directories_touched(const std::vector<vfs::TraceEntry>& entries,
                                          vfs::ProcessId pid, std::string_view root);

// --- aggregation helpers (the numbers the paper reports) ---------------

/// Sums the per-trial metrics of a campaign into one snapshot: counters
/// and histogram counts add across trials, gauges keep their maximum.
obs::MetricsSnapshot merged_metrics(const std::vector<RansomwareRunResult>& results);
/// merged_metrics() over the benign suite's per-trial metrics.
obs::MetricsSnapshot merged_metrics(const std::vector<BenignRunResult>& results);

/// One row of Table I.
struct FamilyRow {
  std::string family;
  std::size_t class_a = 0;
  std::size_t class_b = 0;
  std::size_t class_c = 0;
  std::size_t total = 0;
  double median_files_lost = 0.0;
};

/// Groups campaign results per family (Table I rows, family-name order).
std::vector<FamilyRow> aggregate_table1(const std::vector<RansomwareRunResult>& results);

/// Files-lost values in campaign order (Figure 3's sample set).
std::vector<double> files_lost_values(const std::vector<RansomwareRunResult>& results);

/// Aggregate extension access frequency: for each extension, how many
/// samples accessed at least one such file before detection (Figure 5).
std::vector<std::pair<std::string, std::size_t>> extension_frequency(
    const std::vector<RansomwareRunResult>& results);

}  // namespace cryptodrop::harness
