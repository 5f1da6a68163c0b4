// Observability metrics: a lock-cheap registry of counters, gauges and
// fixed-bucket histograms, built for the engine's hot path.
//
// Design (DESIGN.md §10):
//  * One cell per instrument: a counter is one cache-line-aligned
//    atomic, a histogram one bucket array plus one count and one sum,
//    and every write is a relaxed atomic add — no mutex, TSan-clean.
//    Each engine's registry is written by the one thread driving that
//    engine; the daemon's registry, written by every worker, stays
//    exact because relaxed adds on one cell never lose an increment.
//  * A snapshot reads each instrument once. It is not a cross-metric
//    atomic cut; per-metric totals are exact once writers quiesce.
//  * Registration (registry.counter("name", ...)) is mutex-guarded and
//    idempotent; hot paths hold direct references obtained once, so the
//    registry lookup never appears on the operation path.
//  * Compile-time kill switch: building with -DCRYPTODROP_NO_METRICS
//    turns every mutation (add/set/record, and ScopedTimer's clock
//    reads) into an empty inline body. Registration and snapshots keep
//    working — metrics simply all read zero — so instrumented code and
//    the docs-check tooling compile unchanged.
//
// Naming convention (docs/OBSERVABILITY.md): flat lowercase names with a
// unit suffix (`_total` for counters, `_us` for microsecond histograms)
// and a dotted label suffix for per-indicator / per-stage families, e.g.
// `indicator_events_total.entropy_delta`, `stage_latency_us.sdhash_digest`.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/ranked_mutex.hpp"

namespace cryptodrop::obs {

#ifdef CRYPTODROP_NO_METRICS
inline constexpr bool kMetricsEnabled = false;
#else
/// True unless built with -DCRYPTODROP_NO_METRICS.
inline constexpr bool kMetricsEnabled = true;
#endif

// --- snapshots ---------------------------------------------------------

/// Point-in-time value of one counter.
struct CounterSnapshot {
  std::string name;
  std::string unit;
  std::string help;
  std::uint64_t value = 0;
};

/// Point-in-time value of one gauge (last value set).
struct GaugeSnapshot {
  std::string name;
  std::string unit;
  std::string help;
  double value = 0.0;
};

/// Point-in-time state of one histogram. `counts` has one entry per
/// upper bound plus a final overflow bucket; a recorded value v lands
/// in the first bucket with v <= bound.
struct HistogramSnapshot {
  std::string name;
  std::string unit;
  std::string help;
  std::vector<double> bounds;         ///< Ascending finite upper bounds.
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (last = overflow).
  std::uint64_t count = 0;            ///< Total recorded samples.
  double sum = 0.0;                   ///< Sum of recorded values.

  /// Mean of recorded values (0 when empty).
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Everything one registry has measured, self-describing.
/// Snapshots from different registries (e.g. one engine per parallel
/// trial) combine with merge(); to_json() serializes for export.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;      ///< Registration order.
  std::vector<GaugeSnapshot> gauges;          ///< Registration order.
  std::vector<HistogramSnapshot> histograms;  ///< Registration order.

  /// Finds a counter by exact name, or nullptr.
  [[nodiscard]] const CounterSnapshot* counter(std::string_view name) const;
  /// Finds a gauge by exact name, or nullptr.
  [[nodiscard]] const GaugeSnapshot* gauge(std::string_view name) const;
  /// Finds a histogram by exact name, or nullptr.
  [[nodiscard]] const HistogramSnapshot* histogram(std::string_view name) const;

  /// Folds `other` in by metric name: counter values and histogram
  /// bucket counts add; gauges keep the maximum (they describe sizes /
  /// cache states, where the high-water mark is the useful aggregate).
  /// Metrics present only in `other` are appended.
  void merge(const MetricsSnapshot& other);
};

/// Serializes a snapshot: {"counters": {...}, "gauges": {...},
/// "histograms": {...}} per the schema in docs/OBSERVABILITY.md.
Json to_json(const MetricsSnapshot& snapshot);

// --- instruments -------------------------------------------------------

/// Monotonically increasing event count: one relaxed atomic on its own
/// cache line. Thread-safe; never negative.
class Counter {
 public:
  /// Adds `n` (relaxed; no ordering is implied toward other metrics).
  void add(std::uint64_t n = 1) {
#ifndef CRYPTODROP_NO_METRICS
    value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  /// The current count. Concurrent adds may or may not be reflected
  /// (relaxed read); the value is exact once writers quiesce.
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (table sizes, cache occupancy).
/// set()/value() are single relaxed atomic accesses; thread-safe.
class Gauge {
 public:
  /// Replaces the current value.
  void set(double v) {
#ifndef CRYPTODROP_NO_METRICS
    bits_.store(encode(v), std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  /// The most recently set value (0 until first set).
  [[nodiscard]] double value() const {
    return decode(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t encode(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double decode(std::uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::atomic<std::uint64_t> bits_{0};
};

/// Fixed-bucket distribution. Bucket edges are upper bounds: a recorded
/// value v lands in the first bucket with v <= bound, or the overflow
/// bucket past the last bound. record() is two relaxed adds plus one
/// CAS-add for the sum; thread-safe.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  /// Folds one sample into the distribution.
  void record(double v);

  /// Bucket upper bounds.
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

  /// The distribution (name/help/unit fields left empty; the registry
  /// fills them in its snapshot).
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 counts (last = overflow).
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// RAII wall-clock timer: records the enclosing scope's duration, in
/// microseconds, into a histogram at scope exit. A null histogram (or a
/// -DCRYPTODROP_NO_METRICS build) makes it a true no-op — the clock is
/// never read.
class ScopedTimer {
 public:
  /// Starts timing immediately; `histogram` may be null (no-op timer).
  explicit ScopedTimer(Histogram* histogram)
#ifndef CRYPTODROP_NO_METRICS
      : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = now_ns();
  }
#else
  {
    (void)histogram;
  }
#endif

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
#ifndef CRYPTODROP_NO_METRICS
    if (histogram_ != nullptr) {
      histogram_->record(static_cast<double>(now_ns() - start_) / 1000.0);
    }
#endif
  }

 private:
#ifndef CRYPTODROP_NO_METRICS
  static std::uint64_t now_ns();
  Histogram* histogram_ = nullptr;
  std::uint64_t start_ = 0;
#endif
};

// --- registry ----------------------------------------------------------

/// Owner and directory of a related set of metrics (one per engine).
/// Registration is mutex-guarded, idempotent by name, and returns
/// references that stay valid for the registry's lifetime — callers
/// register once (e.g. at engine construction) and mutate lock-free
/// thereafter. snapshot() reads every instrument. Thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a counter. `unit` defaults to "count".
  Counter& counter(std::string_view name, std::string_view help,
                   std::string_view unit = "count");

  /// Registers (or finds) a gauge.
  Gauge& gauge(std::string_view name, std::string_view help,
               std::string_view unit = "count");

  /// Registers (or finds) a histogram with the given bucket upper
  /// bounds. Bounds are fixed at registration; re-registering an
  /// existing name returns the original instrument (bounds argument
  /// ignored).
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::string_view unit, std::vector<double> bounds);

  /// Point-in-time view of every registered metric, in registration
  /// order.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Default bucket edges for stage-latency histograms: 1 µs … 65.536 ms
  /// in powers of two (17 finite buckets + overflow).
  static std::vector<double> latency_buckets_us();

 private:
  template <typename T>
  struct Entry {
    std::string name;
    std::string help;
    std::string unit;
    T instrument;
    Entry(std::string n, std::string h, std::string u)
        : name(std::move(n)), help(std::move(h)), unit(std::move(u)) {}
    Entry(std::string n, std::string h, std::string u, std::vector<double> b)
        : name(std::move(n)), help(std::move(h)), unit(std::move(u)),
          instrument(std::move(b)) {}
  };

  /// Rank 50: registration/snapshot only, never on the op path.
  mutable common::RankedMutex<common::lockrank::kMetricsRegistry> mu_;
  // Deques: references handed out must survive later registrations.
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<Histogram>> histograms_;
};

}  // namespace cryptodrop::obs
