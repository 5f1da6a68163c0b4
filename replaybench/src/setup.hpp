// Benchmark inputs: the victim corpus, the seeded, pre-recorded op
// traces every workload replays, and the daemon request lines.
//
// Traces are recorded on a clone of the base volume with NO engine
// attached, so the program's own verdicts never shape the input it is
// later fed; the replay then decides where each trial stops.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "vfs/trace.hpp"

namespace replaybench {

/// Seed of the victim volume. The paper ran every sample against one
/// test machine; a per-run corpus would let the seed decide which files
/// TeslaCrypt's 149 depth-first samples all hit first, which swung every
/// ransomware_replay timing by about 12% between seeds. `--seed` varies
/// the samples' key material and jitter and the benign apps' RNG.
inline constexpr std::uint64_t kCorpusSeed = 1;

/// Files each Table I sample may attack. The zoo's worst files-lost is
/// about 25 (CTB-Locker's size-ascending sweep); the cap leaves room
/// so every sample is suspended well before its trace ends.
inline constexpr std::size_t kSampleFileCap = 40;

/// Trace entries per daemon `submit` request.
inline constexpr std::size_t kOpsPerSubmit = 64;

/// Submit-request bytes serialized per daemon trial. Only 7-zip's
/// archive stream (hundreds of MB of hex) reaches it; 7-zip is suspended
/// within its first few submits, far below the cap.
inline constexpr std::size_t kTrialRequestCapBytes = 64u << 20;

/// One recorded trial: a Table I sample or a §V-F benign app.
struct Trial {
  std::string label;         ///< Family or app name.
  bool ransomware = false;   ///< Table I sample (else benign app).
  bool expected_fp = false;  ///< The benign app the paper expects flagged.
  /// Processes the recording registered (pid order) — replayed first so
  /// family scoring sees the same process tree.
  std::vector<cryptodrop::harness::ProcessRosterEntry> roster;
  std::vector<cryptodrop::vfs::TraceEntry> entries;
};

/// Daemon request lines of one trial, serialized during setup.
struct TrialRequests {
  std::string tenant;
  std::string attach;
  std::vector<std::string> spawns;
  std::vector<std::string> submits;  ///< kOpsPerSubmit ops each.
  std::string drain;
  std::string verdicts;
  std::string tenants;
  std::string metrics;  ///< Tenant engine metrics (traced run only).
  std::string detach;
  /// Write-payload bytes carried by each submit (parallel to `submits`).
  std::vector<std::uint64_t> submit_payload;
};

/// Which trial set a workload replays.
enum class TrialSet { table1, benign, daemon_mix };

/// Setup knobs (the self-test shrinks everything).
struct SetupOptions {
  std::uint64_t seed = 1;
  TrialSet set = TrialSet::table1;
  bool tiny = false;  ///< Small corpus and few trials (self-test).
};

/// Everything a workload needs, plus how long building it took.
struct Inputs {
  cryptodrop::harness::Environment env;
  std::vector<Trial> trials;
  std::vector<TrialRequests> requests;  ///< daemon_mix only.
  double corpus_s = 0.0;     ///< Raw seconds.
  double record_s = 0.0;
  double serialize_s = 0.0;
  double setup_norm_s = 0.0;  ///< Whole setup, host-normalised.
  double setup_raw_s = 0.0;
  double corpus_norm_s = 0.0;
  double record_norm_s = 0.0;
};

/// Builds the corpus, records every trial's trace and (for the daemon
/// mix) serializes its request lines. Calibrates the host between
/// phases and between recorded trials.
Inputs build_inputs(const SetupOptions& options);

/// True when `path` lies under the engine's protected root.
bool under_protected_root(const std::string& path);

/// Registers `trial`'s roster on `fs` in pid order (parents mapped to
/// their live pids) and maps each recorded pid in `replayer`, as the
/// daemon does for `spawn` requests. Returns recorded -> live pid.
std::map<cryptodrop::vfs::ProcessId, cryptodrop::vfs::ProcessId> spawn_roster(
    const Trial& trial, cryptodrop::vfs::FileSystem& fs,
    cryptodrop::vfs::ExactReplayer& replayer);

}  // namespace replaybench
