// Causal span tracing: per-operation spans with deterministic identity.
//
// NOT the same thing as src/vfs/trace.hpp — that header records and
// replays the *operations themselves* (an input log). This subsystem
// records *where wall-clock time goes inside* each operation's causal
// chain (an instrumentation log): VFS dispatch opens a root span, every
// filter in the stack gets a child span, and the engine's indicator
// stages nest beneath those. Docs call this layer "span tracing"
// (docs/OBSERVABILITY.md) and the vfs layer "op record/replay".
//
// Design (DESIGN.md §12):
//  * Writes are sharded kSpanShards (16) ways into bounded per-shard
//    rings, because one tracer may be written by many threads (the
//    daemon's, by every worker); a thread picks its shard once (dense
//    thread index, cached thread-local) and a span close is one short
//    mutex hold on that shard — never across threads on different
//    shards.
//  * Reads merge on snapshot: snapshot() collects every shard's ring and
//    sorts by (thread, start order). Harness code snapshots after a
//    trial quiesces, so every span is closed by then.
//  * Bounded spill policy: each shard ring holds
//    ring_capacity / kSpanShards records; when full, the oldest record
//    is evicted (and counted in `dropped`). Children always close
//    before their parents, so within a ring a child's record is
//    strictly older than its parent's — eviction drops leaves first
//    and never orphans a kept child.
//  * Deterministic identity: span ids derive from (pid, op index,
//    within-op serial), where the op index is the virtual-clock
//    timestamp divided by vfs::FileSystem::kOpCostMicros — never from
//    wall clock. Span *counts, parentage, names and args* are therefore
//    bit-identical at any --jobs value; wall-clock `ts`/`dur` fields
//    are explicitly outside the determinism contract (like histogram
//    bucket spreads).
//  * Sampling happens at record time, so a sampled-out operation costs
//    two integer ops and zero clock reads: roots keep 1-in-N ops
//    (sample_every), except pids passed to force_pid() — the engine
//    forces a pid on suspension, so a suspended process's denial tail
//    is always kept. Children inherit their root's decision.
//  * Compile-time kill switch: -DCRYPTODROP_NO_METRICS makes every
//    ScopedSpan a true no-op (no clock read, nothing recorded);
//    snapshots and exports keep working and are empty-but-valid.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/ranked_mutex.hpp"
#include "obs/metrics.hpp"

namespace cryptodrop::obs {

/// Dense per-thread index (assigned on first use, stable for the
/// thread's lifetime). Distinguishes threads in span records; two
/// threads never share an index.
std::size_t trace_thread_index();

/// Write-side shard count of a SpanTracer: a thread records into ring
/// trace_thread_index() % kSpanShards.
inline constexpr std::size_t kSpanShards = 16;

/// Span-name schema of record (docs/OBSERVABILITY.md "Span tracing";
/// docs_check cross-checks the table there against known_span_names()
/// in both directions). Names are static: SpanRecord stores the view.
namespace span_name {
/// Root: one whole filtered operation. Args: `op`, `path`, `bytes`.
inline constexpr std::string_view kDispatch = "vfs.dispatch";
/// One filter's pre callback. Args: `filter`.
inline constexpr std::string_view kFilterPre = "vfs.filter.pre";
/// One filter's post callback. Args: `filter`.
inline constexpr std::string_view kFilterPost = "vfs.filter.post";
/// Engine file-type identification of one buffer. Args: `type`.
inline constexpr std::string_view kMagicSniff = "engine.magic_sniff";
/// Engine entropy fold of one buffer. Args: `bytes`.
inline constexpr std::string_view kEntropy = "engine.entropy";
/// Engine similarity-digest computation (or cache fetch). Args: `cached`.
inline constexpr std::string_view kSdhashDigest = "engine.sdhash_digest";
/// Engine digest-vs-baseline comparison. Args: `score`.
inline constexpr std::string_view kSdhashCompare = "engine.sdhash_compare";
/// One score event. Args: `indicator`, `points`, `score_after`.
inline constexpr std::string_view kScoreUpdate = "engine.score_update";
/// Detection verdict (suspension). Args: `score`, `threshold`.
inline constexpr std::string_view kVerdict = "engine.verdict";
/// One measured close: content re-read, re-digest, indicator
/// comparison. Args: `bytes`.
inline constexpr std::string_view kCloseMeasure = "engine.close_measure";
/// Daemon front end: one submit batch accepted into the ingestion
/// queues. Args: `tenant`, `ops`.
inline constexpr std::string_view kDaemonIngest = "daemon.ingest";
/// Daemon worker: one queued op executed through a tenant's session.
/// Args: `tenant`, `op`.
inline constexpr std::string_view kDaemonExecute = "daemon.execute";
}  // namespace span_name

/// Every span name the instrumentation can emit, in schema order.
std::vector<std::string_view> known_span_names();

/// One span argument: numeric or string payload.
struct SpanArg {
  std::string key;
  bool numeric = false;
  double num = 0.0;
  std::string str;
};

/// One closed span. `span_id`/`parent_id`/`pid`/`name`/`args` are
/// deterministic; `tid`/`seq`/`start_ns`/`dur_ns` are execution facts
/// (thread identity and wall clock) outside the determinism contract.
struct SpanRecord {
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root span.
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;       ///< trace_thread_index() of the recorder.
  std::string_view name;       ///< One of span_name::* (static storage).
  std::uint64_t start_ns = 0;  ///< Wall clock, relative to tracer epoch.
  std::uint64_t dur_ns = 0;
  std::uint64_t seq = 0;  ///< Per-thread span start order.
  std::vector<SpanArg> args;
};

/// Point-in-time dump of a tracer, sorted by (tid, seq) so each
/// thread's spans appear in start order (parents before children).
struct SpanSnapshot {
  std::vector<SpanRecord> spans;
  std::uint64_t recorded = 0;  ///< Spans pushed over the tracer's life.
  std::uint64_t dropped = 0;   ///< Spans evicted by the ring bound.
};

/// Tracing knobs. Plain value type.
struct TraceOptions {
  /// Master switch: harness/session layers construct a tracer only when
  /// set, so the disabled path costs one null check per operation.
  bool enabled = false;
  /// Keep 1 root span in N (1 = keep all). Pids passed to force_pid()
  /// (suspended processes) always keep everything.
  std::uint64_t sample_every = 1;
  /// Total spans retained across all shards before the oldest spill.
  std::size_t ring_capacity = 1 << 16;
};

/// Sharded, bounded span sink (see the file comment). One per traced
/// FileSystem — MonitorSession owns it. Thread-safe.
class SpanTracer {
 public:
  /// Sizes the shard rings from `options.ring_capacity` and starts the
  /// wall-clock epoch.
  explicit SpanTracer(TraceOptions options = {});
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// The knobs this tracer was constructed with.
  [[nodiscard]] const TraceOptions& options() const { return options_; }

  /// Root-span sampling decision for one operation. Deterministic in
  /// (pid, op_index) and the forced-pid set.
  [[nodiscard]] bool should_sample(std::uint32_t pid,
                                   std::uint64_t op_index) const;

  /// Marks a pid keep-all from now on (the engine calls this when it
  /// suspends a process, so the denial tail is fully traced).
  void force_pid(std::uint32_t pid);

  /// Pushes one closed span into the caller's shard ring, evicting the
  /// oldest record when the ring is full.
  void record(SpanRecord&& record);

  /// Merged, (tid, seq)-sorted view of every retained span. Empty but
  /// valid under -DCRYPTODROP_NO_METRICS.
  [[nodiscard]] SpanSnapshot snapshot() const;

  /// Nanoseconds since the tracer's construction (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Deterministic span id: 14 bits of pid, 38 bits of op index, 12
  /// bits of within-op serial (0 = the root span itself).
  [[nodiscard]] static std::uint64_t make_span_id(std::uint32_t pid,
                                                  std::uint64_t op_index,
                                                  std::uint32_t serial) {
    return ((static_cast<std::uint64_t>(pid) & 0x3FFF) << 50) |
           ((op_index & 0x3FFFFFFFFFULL) << 12) |
           (static_cast<std::uint64_t>(serial) & 0xFFF);
  }

 private:
  struct alignas(64) Shard {
    /// Rank 60: a span close under the engine lock lands here.
    mutable common::RankedMutex<common::lockrank::kSpanShard> mu;
    std::vector<SpanRecord> ring;  ///< Circular once full.
    std::size_t head = 0;          ///< Next write position once full.
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
  };

  TraceOptions options_;
  std::size_t per_shard_capacity_ = 0;
  std::uint64_t epoch_ns_ = 0;
  /// Rank 62: the verdict path takes it under the engine lock.
  mutable common::RankedMutex<common::lockrank::kSpanForce> force_mu_;
  std::set<std::uint32_t> forced_;
  std::atomic<bool> any_forced_{false};
  std::array<Shard, kSpanShards> shards_{};
};

/// RAII span. Two forms:
///  * root — `ScopedSpan(tracer, name, pid, op_index)` — opened by the
///    VFS dispatch loop; makes the sampling decision;
///  * child — `ScopedSpan(name)` — nests under the calling thread's
///    current span (thread-local), inert when there is none (so engine
///    stage code is unconditional and costs one thread-local read when
///    tracing is off or the op was sampled out).
/// Spans must be stack-scoped on one thread (like std::lock_guard).
class ScopedSpan {
 public:
  /// Root span for one operation. Inert when `tracer` is null or the
  /// sampler drops the op.
  ScopedSpan(SpanTracer* tracer, std::string_view name, std::uint32_t pid,
             std::uint64_t op_index) {
    if constexpr (kMetricsEnabled) {
      if (tracer != nullptr && tracer->should_sample(pid, op_index)) {
        open(tracer, name, pid, SpanTracer::make_span_id(pid, op_index, 0),
             /*parent=*/nullptr);
      }
    } else {
      (void)tracer, (void)name, (void)pid, (void)op_index;
    }
  }

  /// Child of the calling thread's current span (inert when none).
  explicit ScopedSpan(std::string_view name) {
    if constexpr (kMetricsEnabled) {
      ScopedSpan* parent = current();
      if (parent != nullptr) {
        open(parent->tracer_, name, parent->pid_,
             parent->root_->next_child_id(), parent);
      }
    } else {
      (void)name;
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if constexpr (kMetricsEnabled) {
      if (tracer_ != nullptr) close();
    }
  }

  /// True when this span is live (sampled in); args are dropped
  /// otherwise, so callers may skip computing expensive arg values.
  [[nodiscard]] bool active() const { return tracer_ != nullptr; }

  /// Attaches a numeric argument (deterministic values only — never a
  /// wall-clock duration).
  void arg(std::string_view key, double value) {
    if constexpr (kMetricsEnabled) {
      if (tracer_ != nullptr) {
        args_.push_back(SpanArg{std::string(key), true, value, {}});
      }
    } else {
      (void)key, (void)value;
    }
  }

  /// Attaches a string argument.
  void arg(std::string_view key, std::string_view value) {
    if constexpr (kMetricsEnabled) {
      if (tracer_ != nullptr) {
        args_.push_back(SpanArg{std::string(key), false, 0.0,
                                std::string(value)});
      }
    } else {
      (void)key, (void)value;
    }
  }

 private:
  /// The calling thread's innermost live span (nullptr when none).
  static ScopedSpan*& current();

  void open(SpanTracer* tracer, std::string_view name, std::uint32_t pid,
            std::uint64_t span_id, ScopedSpan* parent);
  void close();

  /// Next child serial under this *root* (span ids are dense per op).
  [[nodiscard]] std::uint64_t next_child_id() {
    return SpanTracer::make_span_id(
        pid_, (span_id_ >> 12) & 0x3FFFFFFFFFULL, ++next_child_serial_);
  }

  SpanTracer* tracer_ = nullptr;  ///< Null = inert span.
  ScopedSpan* parent_ = nullptr;  ///< Restored as current() on close.
  ScopedSpan* root_ = nullptr;    ///< Holds the op's child-serial counter.
  std::string_view name_;
  std::uint64_t span_id_ = 0;
  std::uint32_t pid_ = 0;
  std::uint32_t next_child_serial_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<SpanArg> args_;
};

}  // namespace cryptodrop::obs
