// cryptodropd operator telemetry: the event journal, per-worker
// heartbeats, and the health verdict (docs/DAEMON.md "Operator
// telemetry").
//
// The journal is a bounded ring of structured events (tenant
// attach/detach, suspension verdicts, shed transitions, overload
// enter/exit, worker lifecycle) with monotonic cursors:
//
//  * append() runs under its own rank-5 mutex (kDaemonJournal) held
//    only for the push itself — never across queue, registry or engine
//    work — so journal writes stay off the per-op hot path. The daemon
//    only appends on *transitions* (first shed of a burst, overload
//    crossing, lifecycle edges), never per op.
//  * Cursors are assigned once, never reused: when the ring is full
//    the oldest event is overwritten and the gap is observable —
//    since() reports how many events between the caller's cursor and
//    the oldest retained one were dropped, so a slow consumer sheds
//    (with an exact count) instead of blocking a worker. Conservation:
//    emitted == delivered + dropped for every cursor-following reader.
//
// Each worker's heartbeat (DaemonTelemetry) is one atomic cell —
// lock-free writes from exactly one worker thread, reads from anywhere
// — summed into the `health` verdict. Queue depth and execute latency
// are recorded once, into DaemonMetrics' registry-level histograms
// (daemon_worker_queue_depth, daemon_worker_ingest_latency_us), merged
// across workers so the scrape schema stays enumerable.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/ranked_mutex.hpp"

namespace cryptodrop::daemon {

/// Structured event kinds the daemon journals. The docs_check gate
/// cross-checks this enum against the event-schema table in
/// docs/OBSERVABILITY.md (event_kind_name / all_event_kinds mirror the
/// shed-reason arrangement in daemon/metrics.hpp).
enum class EventKind : std::uint8_t {
  tenant_attach,   ///< A tenant session attached.
  tenant_detach,   ///< A tenant session detached.
  suspension,      ///< A tenant's engine suspended a process (verdict).
  shed_start,      ///< A tenant began shedding ops (first drop of a burst).
  shed_stop,       ///< A previously shedding tenant had a clean submit.
  overload_enter,  ///< Total queue depth crossed the overload threshold.
  overload_exit,   ///< Total queue depth fell back below the exit threshold.
  worker_start,    ///< A worker thread entered its drain loop.
  worker_stop,     ///< A worker thread left its drain loop.
};

/// Wire name of an event kind ("tenant_attach", ...).
std::string_view event_kind_name(EventKind kind);

/// Every event kind, schema order (docs_check iterates this).
std::vector<EventKind> all_event_kinds();

/// One journal entry. `tenant` is empty for daemon-scoped events
/// (overload, worker lifecycle); `worker` is the worker index (or the
/// tenant's pinned worker); `value`/`detail` are kind-specific (e.g. a
/// suspension's score and process name).
struct JournalEvent {
  std::uint64_t cursor = 0;
  EventKind kind = EventKind::tenant_attach;
  std::string tenant;
  std::uint64_t worker = 0;
  double value = 0.0;
  std::string detail;
};

/// Serializes one event for the `events` response / `watch` stream
/// (schema in docs/DAEMON.md "Operator telemetry").
Json to_json(const JournalEvent& event);

/// Bounded ring of journal events with monotonic cursors (see the file
/// comment). Thread-safe; every method is one short rank-5 critical
/// section.
class EventJournal {
 public:
  /// A ring retaining at most `capacity` events (>= 1 enforced).
  explicit EventJournal(std::size_t capacity);

  /// Outcome of one append: the assigned cursor, and whether the ring
  /// overwrote its oldest event to make room.
  struct AppendResult {
    std::uint64_t cursor = 0;
    bool overwrote = false;
  };

  /// Appends one event (cursor assigned inside; the passed event's
  /// cursor field is ignored). Never blocks beyond the ring mutex.
  AppendResult append(EventKind kind, std::string tenant,
                      std::uint64_t worker, double value, std::string detail);

  /// Result of one since() drain: the events (cursor order), the
  /// cursor to pass next time, and how many requested events were
  /// already overwritten (the slow-consumer shed count).
  struct Drain {
    std::vector<JournalEvent> events;
    std::uint64_t next_cursor = 0;
    std::uint64_t dropped = 0;
  };

  /// Copies out up to `max` events with cursor >= `cursor`, optionally
  /// filtered to one tenant (empty filter = all; daemon-scoped events
  /// match only the empty filter's stream). Filtered-out events still
  /// advance next_cursor — a follower never re-reads them.
  [[nodiscard]] Drain since(std::uint64_t cursor, std::string_view tenant,
                            std::size_t max) const;

  /// Total events ever appended (== the next cursor to be assigned).
  [[nodiscard]] std::uint64_t emitted() const;

  /// Total events overwritten before any reader at cursor 0 could see
  /// them (ring-bound drops).
  [[nodiscard]] std::uint64_t overwritten() const;

  /// The ring's capacity (fixed at construction).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  /// Rank 5: held for one push/copy only (see common/ranked_mutex.hpp).
  mutable common::RankedMutex<common::lockrank::kDaemonJournal> mu_;
  std::deque<JournalEvent> ring_;
  std::size_t capacity_;
  std::uint64_t next_cursor_ = 0;
  std::uint64_t overwritten_ = 0;
};

/// A worker's liveness signal: a heartbeat counter, one beat per
/// drained batch. Written lock-free by that worker only; read from any
/// thread. (Queue depth and execute latency go to DaemonMetrics.)
class WorkerTelemetry {
 public:
  /// Marks one drained batch (liveness signal for `health`).
  void beat() { heartbeat_.fetch_add(1, std::memory_order_relaxed); }
  /// Batches drained so far (monotonic; 0 until the worker's first pop).
  [[nodiscard]] std::uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> heartbeat_{0};
};

/// Journal + per-worker heartbeats, one per Daemon (constructed after
/// the worker count is fixed, before workers start).
class DaemonTelemetry {
 public:
  /// Telemetry for `workers` workers and a `journal_capacity`-event ring.
  DaemonTelemetry(std::size_t workers, std::size_t journal_capacity);

  /// The daemon's event journal.
  [[nodiscard]] EventJournal& journal() { return journal_; }
  /// Const view of the journal (query paths).
  [[nodiscard]] const EventJournal& journal() const { return journal_; }
  /// Worker `index`'s heartbeat (index < workers()).
  [[nodiscard]] WorkerTelemetry& worker(std::size_t index) {
    return *workers_[index];
  }
  /// Const view of worker `index`'s heartbeat.
  [[nodiscard]] const WorkerTelemetry& worker(std::size_t index) const {
    return *workers_[index];
  }
  /// Number of worker slots.
  [[nodiscard]] std::size_t workers() const { return workers_.size(); }

 private:
  std::vector<std::unique_ptr<WorkerTelemetry>> workers_;
  EventJournal journal_;
};

/// The `health` verdict levels, worst last (the gauge value is the
/// enum ordinal: 0 ok, 1 degraded, 2 overloaded).
enum class HealthLevel : std::uint8_t { ok, degraded, overloaded };

/// Wire name of a health level ("ok" / "degraded" / "overloaded").
std::string_view health_level_name(HealthLevel level);

/// The `health` response payload: the verdict plus the inputs it was
/// derived from (thresholds in docs/DAEMON.md "Health verdict").
struct HealthReport {
  HealthLevel level = HealthLevel::ok;
  double queue_occupancy = 0.0;  ///< Total depth / total capacity.
  double shed_ratio = 0.0;       ///< Lifetime sheds / (ingested + sheds).
  std::size_t queue_depth = 0;   ///< Items queued across all workers.
  std::size_t workers = 0;       ///< Worker-thread count.
  std::uint64_t heartbeats = 0;  ///< Total batches drained (liveness).
  bool overloaded = false;       ///< Currently inside an overload episode.
  std::string reason;            ///< One-line explanation of the verdict.
};

/// Serializes a health report for the `health` response.
Json to_json(const HealthReport& report);

}  // namespace cryptodrop::daemon
