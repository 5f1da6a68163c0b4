// Tunable scoring parameters of the CryptoDrop analysis engine.
//
// The paper discloses the structure of the scoring system (per-indicator
// reputation points, a non-union detection threshold of 200, and union
// indication that "dramatically increases the current score ... and
// lowers that process's detection threshold") but not the exact point
// values; the defaults here were calibrated so that the experiment suite
// reproduces the paper's shape: overall median ~10 files lost, Class B
// (smallest-files-first) losing the most, Class C union-evaders caught by
// entropy+deletion points at single-digit medians, exactly one benign
// false positive (the archiver) at threshold 200.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "entropy/backend.hpp"

namespace cryptodrop::core {

/// One voting member of an entropy ensemble: a backend and its vote
/// weight (relative; weights need not sum to 1).
struct EnsembleMember {
  entropy::BackendKind backend = entropy::BackendKind::shannon;
  double weight = 1.0;
};

/// Multi-backend voting (DESIGN.md §14): every member keeps its own
/// read/write weighted means; on each scoreable write, members whose
/// own delta crosses the threshold vote with their weight, and the
/// indicator fires when the voting weight reaches `min_vote_weight` of
/// the total. An empty member list means single-backend mode
/// (EntropyConfig::backend alone).
struct EnsembleConfig {
  /// Voting members; empty disables ensemble mode. Duplicate backends
  /// are rejected by validate().
  std::vector<EnsembleMember> members;
  /// Fraction of total member weight that must vote for the indicator
  /// to fire, in (0, 1]. 0.5 is simple weighted-majority.
  double min_vote_weight = 0.5;
};

/// Every entropy-indicator tunable, nested under ScoringConfig::entropy
/// (paper §III-C, §IV-C.1; backends per DESIGN.md §14). Validated as
/// part of ScoringConfig::validate().
struct EntropyConfig {
  /// Master switch (ablation studies set it false).
  bool enabled = true;

  /// Which statistic scores each operation in single-backend mode (the
  /// default, shannon, reproduces the paper bit-for-bit). Ignored when
  /// `ensemble.members` is non-empty.
  entropy::BackendKind backend = entropy::BackendKind::shannon;

  /// Multi-backend voting; empty members = single-backend mode.
  EnsembleConfig ensemble;

  /// Suspicion trigger on the weighted-mean delta: Pwrite - Pread >= this
  /// (per backend; in ensemble mode each member checks its own delta).
  double delta_threshold = 0.1;
  /// Points assessed per atomic write operation whose delta vote fires.
  int points_write = 12;
  /// Entropy points scale linearly with operation size up to this many
  /// bytes (then cap at points_write). This extends the paper's
  /// weighting rationale — "low-entropy and small read/write operations
  /// do not over-influence the mean" — to the points themselves, so a
  /// stream of tiny suspicious writes cannot outscore a bulk encryptor.
  std::size_t full_points_bytes = 4096;
  /// Entropy points also scale with the delta's magnitude up to this
  /// value: a sample encrypting already-compressed documents shows a
  /// barely-over-threshold delta early on (the paper's observed
  /// "delay... for samples which attack high entropy files first") and
  /// earns proportionally fewer points until it reaches plainer files.
  double full_points_delta = 0.5;
  /// Writes smaller than this never earn entropy points (the delta check
  /// is skipped entirely; the write still feeds the entropy means). The
  /// size-scaled points floor at 1, so without a cutoff thousands of
  /// tiny benign high-entropy writes (compressed thumbnails, sqlite WAL
  /// pages) each score a point and creep toward the threshold. Must be
  /// <= full_points_bytes. The default of 1 skips only zero-byte
  /// writes, which carry no evidence of encryption at all.
  std::size_t min_score_bytes = 1;

  /// DAA head/tail window size in bytes (arXiv 2303.17351); only the
  /// daa backend reads it.
  std::size_t daa_window_bytes = 2048;

  /// The members actually scoring: the ensemble when configured, else
  /// the single `backend` at weight 1. Never empty.
  [[nodiscard]] std::vector<EnsembleMember> active_members() const;
};

/// Every tunable of the analysis engine, with paper-calibrated defaults.
/// Validate with validate(); AnalysisEngine's constructor rejects an
/// invalid config. Plain value type — copy freely.
struct ScoringConfig {
  /// Only operations on files under this root are observed ("CryptoDrop
  /// does not inspect files outside of the user's documents directory").
  std::string protected_root = "users/victim/documents";
  /// Extra protected directories (Desktop, Pictures, network shares...)
  /// monitored with the same indicators and scoreboard.
  std::vector<std::string> additional_roots;

  // --- primary indicator: entropy (paper §III-C, §IV-C.1) -------------
  /// Every entropy tunable, including backend selection and ensemble
  /// voting, lives in this nested block (DESIGN.md §14 has the
  /// old-field → new-field migration table).
  EntropyConfig entropy;

  // --- primary indicator: file type change (§III-A) --------------------
  /// Points when the magic-identified type of a tracked file differs
  /// before vs. after modification.
  int points_type_change = 6;

  // --- primary indicator: similarity loss (§III-B) ---------------------
  /// A post-modification sdhash score at or below this counts as "no
  /// match" — ciphertext vs. plaintext scores 0; benign edits retain
  /// shared features and score well above it.
  int similarity_drop_max = 2;
  int points_similarity_drop = 10;

  // --- secondary indicator: deletion (§III-D) ---------------------------
  int points_deletion = 14;

  // --- secondary indicator: file type funneling (§III-D) ----------------
  /// Triggered (once per process) when it has read at least
  /// `funnel_min_read_types` distinct types and read-minus-written type
  /// count reaches `funnel_type_gap`.
  std::size_t funnel_min_read_types = 5;
  std::size_t funnel_type_gap = 4;
  int points_funneling = 25;

  // --- thresholds and union indication (§IV-A/B) -------------------------
  /// Non-union detection threshold (the paper's experiments use 200).
  int score_threshold = 200;
  /// First time all three primary indicators have fired for one process:
  /// the score jumps and the process's threshold drops.
  int union_bonus = 40;
  int union_threshold = 170;
  /// Master switch for union indication (ablation studies set it false).
  bool enable_union = true;

  /// Score and suspend whole process families (paper §IV: CryptoDrop
  /// "suspends the suspicious process (or family of processes)").
  /// Counters the evasion of spreading the attack across spawned worker
  /// processes so no single pid accumulates enough points.
  bool enable_family_scoring = true;

  // --- dynamic scoring (paper §V-C future work) --------------------------
  /// "Once identified, CryptoDrop could adjust the number of reputation
  /// points assessed up or down for individual indicators, leading to
  /// faster detection even when union indication is not possible."
  /// When enabled, a modification whose similarity indicator is
  /// *unavailable* (file too small for sdhash) has its type-change
  /// points multiplied by `dynamic_unavailable_boost` — exactly the
  /// sub-512-byte CTB-Locker gap. Off by default, as in the paper.
  bool enable_dynamic_scoring = false;
  double dynamic_unavailable_boost = 2.5;

  // --- burst-rate indicator (paper §V-F future work) ----------------------
  /// "Research into time window parameterization may lead to another
  /// primary indicator in future versions of CryptoDrop." When enabled,
  /// a process that modifies at least `rate_min_files` distinct
  /// protected files within `rate_window_micros` of virtual time earns
  /// `points_rate` for each further file it touches while the burst
  /// lasts. Off by default (as in the paper, which also warns that a
  /// sample can slow its attack to slip under any window).
  bool enable_rate_indicator = false;
  std::uint64_t rate_window_micros = 10'000'000;  // 10 s
  std::size_t rate_min_files = 15;
  int points_rate = 4;

  // --- per-indicator ablation switches (§V-B.2 analysis) -----------------
  // (The entropy switch is EntropyConfig::enabled above.)
  bool enable_type_change = true;
  bool enable_similarity = true;
  bool enable_deletion = true;
  bool enable_funneling = true;

  /// Capacity of each process's forensic timeline ring, the score
  /// history behind AnalysisEngine::explain() and every ProcessReport
  /// (docs/OBSERVABILITY.md). Oldest events are evicted beyond it; 0
  /// turns recording off.
  std::size_t timeline_capacity = 128;

  /// Checks the configuration for values the scoring model cannot
  /// meaningfully run with (negative points, a union threshold above the
  /// base threshold, an empty protected root, zero-size windows).
  /// Everything constructing an engine — the engine constructor itself,
  /// CLI flag parsing, the experiment harness — calls this so a bad
  /// sweep fails fast with a message instead of producing junk curves.
  [[nodiscard]] Status validate() const;
};

}  // namespace cryptodrop::core
