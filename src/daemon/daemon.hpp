// cryptodropd — the persistent multi-tenant monitoring service.
//
// The paper's CryptoDrop is a resident monitor: it outlives any one
// workload. Everything below src/daemon is campaign-shaped (construct a
// session, replay, tear down); this class decouples engine lifetime
// from workload lifetime. A Daemon owns:
//
//  * one base volume (cloned per tenant, copy-on-write content);
//  * N worker threads, each consuming one bounded ingestion queue
//    (daemon/queue.hpp) with shed-benign-reads-first admission control;
//  * a registry of tenant sessions. Each tenant is an isolated
//    core::MonitorSession (own volume clone, own AnalysisEngine, own
//    ScoringConfig, own metrics/trace namespace) pinned to one worker,
//    so a tenant's op stream executes in FIFO order on one thread while
//    different tenants run in parallel.
//
// Ops arrive as recorded vfs::TraceEntry values (the wire unit of the
// control API, daemon/control.hpp) and execute through a
// vfs::ExactReplayer, which reproduces handle lifetimes, offsets and
// virtual-clock timestamps exactly — the verdict bit-parity contract
// with the in-process batch runner (harness/daemon_runner.hpp proves
// it; docs/DAEMON.md documents it).
//
// Thread model and lock ranks (DESIGN.md §15): the tenant registry is
// rank kDaemonRegistry(3), each queue's mutex rank kDaemonQueue(4);
// both sit below every engine rank, and workers release the queue lock
// before executing an op, so no daemon lock is ever held across engine
// work. Queries (verdicts/explain/metrics) take the tenant engine's
// lock, never read the tenant's volume, and may run concurrently with
// execution.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/ranked_mutex.hpp"
#include "common/result.hpp"
#include "core/config.hpp"
#include "core/session.hpp"
#include "daemon/metrics.hpp"
#include "daemon/queue.hpp"
#include "daemon/telemetry.hpp"
#include "obs/span.hpp"
#include "vfs/filesystem.hpp"
#include "vfs/trace.hpp"

namespace cryptodrop::daemon {

/// Per-tenant drop/throughput accounting (mirrors the daemon-level
/// counters, scoped to one tenant; exposed by the `tenants` request).
struct TenantStats {
  std::atomic<std::uint64_t> ingested{0};
  std::atomic<std::uint64_t> executed{0};
  /// Shed counts indexed by ShedReason.
  std::array<std::atomic<std::uint64_t>, 4> shed{};

  /// Total shed across all reasons.
  [[nodiscard]] std::uint64_t shed_total() const {
    std::uint64_t total = 0;
    for (const auto& s : shed) total += s.load(std::memory_order_relaxed);
    return total;
  }
};

/// One attached tenant: an isolated monitoring session plus the replay
/// state its pinned worker drives. The session/replayer/pid_map members
/// are worker-thread-only once attached; `stats` and `detached` are
/// shared (atomic).
struct TenantState {
  /// Builds the tenant's session over a clone of `base`.
  TenantState(std::string tenant_id, const vfs::FileSystem& base,
              core::ScoringConfig config)
      : id(std::move(tenant_id)),
        session(base, std::move(config)),
        replayer(session.fs()) {}

  std::string id;
  core::MonitorSession session;
  vfs::ExactReplayer replayer;
  /// Recorded pid -> live pid (spawn replay; worker-thread-only).
  std::map<vfs::ProcessId, vfs::ProcessId> pid_map;
  std::size_t worker = 0;  ///< Index of the queue/worker this tenant rides.
  std::atomic<bool> detached{false};
  /// True while the tenant is inside a shed burst (drives the
  /// shed_start / shed_stop journal transitions, not per-op events).
  std::atomic<bool> shedding{false};
  TenantStats stats;
};

/// Thread-safe tenant-id -> state map. insert() checks for the id and
/// inserts under one lock hold, so of two racing attaches of one id
/// exactly one wins.
class TenantRegistry {
 public:
  /// Inserts `state` unless its id is already present. Returns whether
  /// it inserted; on false the registry keeps the existing tenant.
  bool insert(std::shared_ptr<TenantState> state);
  /// The tenant with `id`, or nullptr.
  [[nodiscard]] std::shared_ptr<TenantState> find(std::string_view id) const;
  /// True when `id` is attached.
  [[nodiscard]] bool contains(std::string_view id) const;
  /// Removes and returns the tenant with `id`, or nullptr.
  std::shared_ptr<TenantState> erase(std::string_view id);
  /// Every attached tenant, id order.
  [[nodiscard]] std::vector<std::shared_ptr<TenantState>> list() const;
  /// Attached-tenant count.
  [[nodiscard]] std::size_t size() const;

 private:
  /// Rank 3: held only for map mutation/lookup, never across engine work
  /// (attach constructs the session *before* taking it).
  mutable common::RankedMutex<common::lockrank::kDaemonRegistry> mu_;
  std::map<std::string, std::shared_ptr<TenantState>, std::less<>> tenants_;
};

/// Daemon construction knobs.
struct DaemonOptions {
  std::size_t workers = 4;          ///< Worker threads (>= 1; one queue each).
  std::size_t queue_capacity = 4096;  ///< Per-queue bound (admission control).
  /// Max items a worker drains per queue-lock acquisition (>= 1). Larger
  /// batches amortise lock/wakeup cost under contention; per-tenant FIFO
  /// order is unchanged because a batch preserves queue order.
  std::size_t drain_batch = 32;
  /// Scoring config for tenants that attach without overrides.
  core::ScoringConfig default_config;
  /// Daemon span tracing (daemon.ingest / daemon.execute spans).
  obs::TraceOptions trace;
  /// Operator-journal ring capacity (events retained for `events` /
  /// `watch`; older events are overwritten with a counted drop).
  std::size_t journal_capacity = 1024;
};

/// What submit() did with a batch.
struct SubmitResult {
  std::size_t accepted = 0;  ///< Ops queued for execution.
  std::size_t shed = 0;      ///< Ops dropped by admission control.
};

/// One row of the `tenants` listing.
struct TenantInfo {
  std::string id;
  std::size_t worker = 0;
  std::uint64_t ingested = 0;
  std::uint64_t executed = 0;
  std::uint64_t shed = 0;
};

/// The persistent monitoring service (see the file comment). All public
/// methods are thread-safe; lifecycle methods (shutdown) are idempotent.
class Daemon {
 public:
  /// Starts `options.workers` worker threads over a daemon that clones
  /// `base` for every attaching tenant.
  Daemon(const vfs::FileSystem& base, DaemonOptions options);

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Non-drained shutdown (queued work is discarded and counted) unless
  /// shutdown() already ran.
  ~Daemon();

  // --- tenant lifecycle ------------------------------------------------

  /// Attaches a tenant session under `tenant_id` with the daemon's
  /// default config. Fails (no abort) when the id is already attached
  /// or the daemon is shutting down.
  Status attach(const std::string& tenant_id);
  /// attach() with an explicit scoring config.
  Status attach(const std::string& tenant_id, core::ScoringConfig config);
  /// Detaches a tenant: the session is dropped, queued ops shed with
  /// reason `tenant_gone` when their turn comes.
  Status detach(const std::string& tenant_id);

  // --- ingestion -------------------------------------------------------

  /// Enqueues a process registration for the tenant. Spawns are never
  /// shed and must precede the pid's ops (FIFO per tenant guarantees
  /// order). `recorded_pid`/`recorded_parent` are the pids of the
  /// recorded run; the daemon maps them to live pids on execution.
  Status spawn(const std::string& tenant_id, vfs::ProcessId recorded_pid,
               const std::string& name, vfs::ProcessId recorded_parent);

  /// Enqueues recorded ops for the tenant, applying admission control
  /// per op. Never blocks; every dropped op is counted (see
  /// docs/DAEMON.md overload semantics).
  Result<SubmitResult> submit(const std::string& tenant_id,
                              std::vector<vfs::TraceEntry> entries);

  // --- quiescing -------------------------------------------------------

  /// Blocks until every ingestion queue is empty and idle.
  void drain();
  /// Blocks until the tenant's worker queue is empty and idle (drains
  /// whatever else rides that worker too — a superset wait).
  Status drain(const std::string& tenant_id);
  /// Stops the daemon. `drain_first` waits for queued work; otherwise
  /// queued items are discarded and counted shed with reason
  /// `shutdown`. Idempotent; workers are joined before returning.
  void shutdown(bool drain_first);
  /// True once shutdown() has completed (the socket server's exit
  /// condition).
  [[nodiscard]] bool shutdown_complete() const {
    return shutdown_done_.load(std::memory_order_acquire);
  }

  // --- queries (thread-safe, concurrent with execution) ----------------

  /// The tenant's scoreboard: every process report plus the default
  /// threshold, captured atomically by the engine.
  [[nodiscard]] Result<core::EngineSnapshot> verdicts(
      const std::string& tenant_id) const;
  /// The tenant's forensic timeline for a *live* pid.
  [[nodiscard]] Result<obs::ForensicTimeline> explain(
      const std::string& tenant_id, vfs::ProcessId pid) const;
  /// The tenant's engine metrics (its isolated registry).
  [[nodiscard]] Result<obs::MetricsSnapshot> tenant_metrics(
      const std::string& tenant_id) const;
  /// The daemon's own metrics, queue gauges refreshed.
  [[nodiscard]] obs::MetricsSnapshot metrics() const;
  /// Everything the daemon's span tracer retained (empty when tracing
  /// is off).
  [[nodiscard]] obs::SpanSnapshot trace_snapshot() const;
  /// Per-tenant accounting rows, id order.
  [[nodiscard]] std::vector<TenantInfo> tenants() const;
  /// Current queue depth of every worker, index order (watch frames).
  [[nodiscard]] std::vector<std::size_t> queue_depths() const;
  /// The health verdict derived from queue occupancy, shed rates and
  /// worker heartbeats (thresholds in docs/DAEMON.md); refreshes the
  /// overload state and the daemon_health_level gauge.
  [[nodiscard]] HealthReport health();
  /// The operator telemetry plane (journal + per-worker heartbeats).
  [[nodiscard]] DaemonTelemetry& telemetry() { return *telemetry_; }
  /// Const view of the telemetry plane (query paths).
  [[nodiscard]] const DaemonTelemetry& telemetry() const { return *telemetry_; }
  /// The daemon's instrument set (tests assert on raw counters).
  [[nodiscard]] DaemonMetrics& daemon_metrics() { return metrics_; }
  /// The scoring config tenants attach with when they send no overrides.
  [[nodiscard]] const core::ScoringConfig& default_config() const {
    return options_.default_config;
  }

  // --- test hooks ------------------------------------------------------

  /// Suspends every worker (queued items accumulate) — lets tests force
  /// queue overload deterministically.
  void pause_workers();
  /// Releases pause_workers().
  void resume_workers();

 private:
  /// Worker main: pop, execute, repeat until stopped and empty.
  void worker_loop(std::size_t index);
  /// Executes one queued item through its tenant's session.
  void execute_item(QueueItem& item);
  /// Charges one shed op to the daemon and the item's tenant (journals
  /// the tenant's not-shedding -> shedding transition).
  void count_shed(TenantState& tenant, ShedReason reason);
  /// Refreshes the queue-depth / high-water gauges.
  void refresh_queue_gauges() const;
  /// Op index for the next daemon span. Without a tracer it is 0 and the
  /// shared serial counter is left untouched.
  std::uint64_t next_span_serial();
  /// Appends one journal event and charges the journal counters. Must
  /// be called with no daemon lock held (every call site is lock-free).
  void journal_event(EventKind kind, std::string tenant,
                     std::uint64_t worker, double value, std::string detail);
  /// Crossing-detection for overload_enter/overload_exit: enter at
  /// >= 90% total queue occupancy, exit at <= 50% (hysteresis).
  void update_overload_state();

  vfs::FileSystem base_;
  DaemonOptions options_;
  mutable DaemonMetrics metrics_;
  /// Built in the constructor before workers start; never null after.
  std::unique_ptr<DaemonTelemetry> telemetry_;
  std::atomic<bool> overloaded_{false};
  std::unique_ptr<obs::SpanTracer> tracer_;  ///< Null when tracing is off.
  TenantRegistry registry_;
  std::vector<std::unique_ptr<BoundedOpQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> next_worker_{0};
  std::atomic<std::uint64_t> span_serial_{0};  ///< Bumped only when tracing.
  /// Lifetime op totals behind health()'s shed ratio. Plain atomics, not
  /// metrics, so the verdict also holds with -DCRYPTODROP_NO_METRICS.
  std::atomic<std::uint64_t> ops_ingested_{0};
  std::atomic<std::uint64_t> ops_shed_{0};
  mutable std::atomic<std::size_t> queue_high_water_{0};
  std::atomic<bool> accepting_{true};
  std::atomic<bool> shutdown_done_{false};
  /// Rank 3 (shared with the registry level): serializes shutdown().
  common::RankedMutex<common::lockrank::kDaemonRegistry> shutdown_mu_;
};

}  // namespace cryptodrop::daemon
