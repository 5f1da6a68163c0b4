// Measurement helpers shared by every workload: clocks, percentiles,
// host normalisation, resident-memory probes and the metric report.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace replaybench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock readings.
inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One percentile read off a sample set (nearest rank), with the number
/// of samples strictly above its rank — a p99 over 400 samples has only
/// 4 beyond it, too few to trust.
struct Percentile {
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile `q` in (0, 1] of `values` (any order).
/// Empty input yields a zero Percentile.
Percentile percentile(std::vector<double> values, double q);

/// The median of `values` (mean of the middle two for an even count);
/// 0 for empty input.
double median(std::vector<double> values);

/// Share of in-process replay time that speeds up and slows down with
/// the calibration kernel. On a shared 4-vCPU Xeon VM, in-process replay
/// throughput moved with the kernel's speed at an elasticity of 0.5-0.9:
/// the L3/DRAM-bound rest of its time does not follow an L2-resident
/// kernel, and scaling whole timings by the kernel over-corrected by
/// 10-15% between the host's fast and slow phases.
inline constexpr double kInProcessTrackingShare = 0.7;

/// The same share for daemon_socket's throughput and tails; its work
/// runs on the daemon's threads rather than on the client thread the
/// kernel runs on. Its small cycles tracked the kernel at an elasticity
/// of about 0.8, its multi-MB submits (socket framing, decoding), which
/// dominate ops_per_s and the tails, at 0.2-0.3. Re-applied to nine sets
/// of runs with each run's median kernel time, 0.3-0.4 gave those
/// timings their narrowest spreads and range of set medians.
inline constexpr double kDaemonTrackingShare = 0.4;

/// The share for daemon_socket's latency medians, which its cheap cycles
/// set (small submits: dispatch, the queue, the worker handoff). Those
/// track the kernel far more than the multi-MB submits of the tails do.
/// Over nine sets of six to ten runs, re-normalised with each run's
/// median kernel time, 0.7 kept the set medians of both p50s within
/// 1.18x of each other (1.32x at 0.4) and every spread at or below 0.17
/// (0.24).
inline constexpr double kDaemonMedianTrackingShare = 0.7;

/// A timing scaled to the reference host speed: `raw` was taken while
/// the calibration kernel ran in `local_cal`; on the reference host it
/// runs in `ref_cal`. The kernel-tracking share of the work scales by
/// ref_cal / local_cal, the rest is left as measured.
double normalised(double raw, double ref_cal, double local_cal, double tracking_share);

/// Calibration kernel time on the reference host, ns (the fast-phase
/// median measured on a 4-vCPU x86-64 cloud VM, Intel Xeon).
inline constexpr double kReferenceCalibrationNs = 130000.0;

/// The interleaved host calibration. calibrate() runs the kernel on the
/// calling thread; factor() is the scale for timings taken since — the
/// reference kernel time over the median of the last few local kernel
/// times (a median, so one interrupted kernel run does not skew a trial).
class HostCalibration {
 public:
  /// Timings scale by `tracking_share` of the kernel's speed (0 leaves
  /// them raw; the kernel still runs, for the host block).
  explicit HostCalibration(double tracking_share) : tracking_share_(tracking_share) {}
  /// Runs the kernel and folds its time into the local estimate.
  void calibrate();
  /// reference / local kernel time (1 until the first calibrate()).
  [[nodiscard]] double factor() const { return factor_at(tracking_share_); }
  /// The same factor for another tracking share.
  [[nodiscard]] double factor_at(double tracking_share) const {
    return normalised(1.0, kReferenceCalibrationNs, local_ns_, tracking_share);
  }
  /// Every kernel time measured so far, ns, in order.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr std::size_t kWindow = 5;
  double tracking_share_;
  std::vector<double> samples_;
  double local_ns_ = 0.0;  ///< Median of the last kWindow kernel times.
};

/// A stopwatch for one timed window that only runs between start() and
/// stop(), keeping the raw and the host-normalised elapsed time. Each
/// running segment is scaled by the calibration factor current when the
/// segment started.
class NormalisedTimer {
 public:
  /// Starts a segment scaled by `factor`.
  void start(double factor);
  /// Ends the running segment (no-op when stopped).
  void stop();
  /// Raw seconds accumulated over all segments.
  [[nodiscard]] double raw_s() const { return raw_s_; }
  /// Normalised seconds accumulated over all segments.
  [[nodiscard]] double norm_s() const { return norm_s_; }

 private:
  Clock::time_point since_{};
  double factor_ = 1.0;
  bool running_ = false;
  double raw_s_ = 0.0;
  double norm_s_ = 0.0;
};

/// Gives `v` room for `n` elements whose pages are already resident, so
/// filling it later does not add to the process's resident size.
template <class T>
void reserve_resident(std::vector<T>& v, std::size_t n) {
  v.assign(n, T{});
  v.clear();
}

/// Resident memory of this process (Linux /proc/self/status), MiB.
struct Resident {
  double rss_mib = 0.0;   ///< VmRSS now.
  double peak_mib = 0.0;  ///< VmHWM (high-water mark since the last reset).
};
/// Reads VmRSS/VmHWM; zeros when /proc is unavailable.
Resident read_resident();
/// Returns freed heap to the OS, then resets the high-water mark to the
/// current resident size (writes 5 to /proc/self/clear_refs). False when
/// the kernel refuses the reset.
bool reset_peak_resident();

/// One printed metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The metrics of one run, printed as the result JSON line.
class Report {
 public:
  /// Appends (or replaces) a metric.
  void set(const std::string& name, const std::string& unit, double value);
  /// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  [[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Shortest round-trip decimal form of `v` (JSON-safe: NaN/inf print 0).
std::string number_text(double v);

}  // namespace replaybench
