// The three replay workloads, what a run of one returns, and the
// reporting they share.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "setup.hpp"
#include "spans.hpp"

namespace replaybench {

/// Command-line knobs of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;                     ///< Self-test scale.
  bool plant_wrong_expectation = false;  ///< Self-test: invert one check.
  std::string work_dir = ".";            ///< Span file and daemon socket.
  std::string span_file;                 ///< Traced run output.
};

/// Detection bounds on the Table I samples: the zoo's worst and median
/// files lost on the fixed corpus (25 and 7 on every seed measured). A
/// run beyond either fails its checks, so no change can trade detection
/// for speed.
inline constexpr std::size_t kMaxFilesLost = 25;
inline constexpr double kMaxMedianFilesLost = 7;

/// Everything a run prints.
struct RunResult {
  Report report;                   ///< The metrics of the result line.
  std::vector<std::string> info;   ///< Lines printed before it.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Records a failed check (printed, and the run is not correct).
  void fail(const std::string& what) {
    correct = false;
    info.push_back("CHECK FAILED: " + what);
  }
};

/// The samples the end-to-end metrics come from, pooled over the plain
/// (untraced) timed passes of one run.
struct EndToEndSamples {
  std::vector<double> ops_per_s, ops_per_s_raw;    ///< One per pass.
  std::vector<double> op_us, op_us_raw;            ///< One per op.
  std::vector<double> verdict_ms, verdict_ms_raw;  ///< One per batch or cycle.
  /// What the p50s read when they are normalised at another share than
  /// the tails (daemon_socket); empty: op_us and verdict_ms.
  std::vector<double> op_us_mid, verdict_ms_mid;
  std::vector<double> detect_ops;  ///< Ops before suspension, per suspended trial.
  std::vector<double> files_lost;  ///< Per Table I sample.
  std::vector<double> peak_rss_mib;  ///< Resident growth, one per pass (max reported).
};

/// Setup repeated (three times, twice for the 13-second Table I
/// recording, once in traced and tiny runs; the inputs of the last
/// repetition are kept); adds setup_s and the setup info lines.
Inputs repeated_setup(const RunOptions& options, TrialSet set, RunResult& out);

/// Whether each trial must end suspended: every Table I sample and the
/// benign app the paper expects flagged. The self-test's planted wrong
/// expectation inverts the first.
std::vector<bool> expected_suspensions(const Inputs& in, const RunOptions& options);

/// Checks the median files lost, prints the samples/detection/raw lines
/// and, outside traced runs, sets the end-to-end metrics. `unit` names
/// what a verdict latency sample is ("batches" or "cycles").
void report_end_to_end(const EndToEndSamples& s, const RunOptions& options,
                       const std::string& unit, RunResult& out);

/// Traced runs: trace_overhead_pct from plain vs traced ops_per_s, and
/// the span file.
void finish_traced(const std::vector<double>& plain_ops_per_s,
                   const std::vector<double>& traced_ops_per_s, const SpanLog& spans,
                   const RunOptions& options, RunResult& out);

/// Adds the host block (calibration median/spread) to `out`; traced
/// runs also report it as per-layer metrics.
void add_host_block(const HostCalibration& host, bool traced, RunResult& out);

/// The per-layer metrics no workload of this kind can measure, printed
/// as 0 with the reason on an info line.
void add_unmeasured(const std::vector<std::pair<std::string, std::string>>& names_units,
                    const std::string& reason, RunResult& out);

/// The check failure of a timed pass that missed the digest cache fewer
/// times than the first: some digests outlived the cache clear.
std::string digest_reuse_message(std::uint64_t misses, std::uint64_t first_misses);

/// Formats " name=value" for info lines.
std::string kv(const std::string& name, double value);

/// Indices 0, stride, 2*stride, ... below n.
std::vector<std::size_t> every(std::size_t n, std::size_t stride);

/// ransomware_replay / benign_replay: in-process, one thread.
RunResult run_inprocess(const RunOptions& options, TrialSet set);

/// daemon_socket: cryptodropd behind its AF_UNIX server, one client.
RunResult run_daemon_socket(const RunOptions& options);

}  // namespace replaybench
