// Daemon-level metrics: the ingestion front end's own registry,
// separate from every tenant's per-engine registry so tenant metrics
// stay namespaced to their session (docs/DAEMON.md "Observability").
//
// All families are registered at construction — including all four
// `daemon_ops_shed_total.<shed_reason>` counters — so a fresh
// DaemonMetrics exposes the complete schema (docs_check instantiates
// one to cross-check obs::known_metric_names()).
#pragma once

#include <array>

#include "daemon/queue.hpp"
#include "obs/metrics.hpp"

namespace cryptodrop::daemon {

/// The daemon's own instruments (see the file comment). Constructible
/// without any daemon running; thread-safe like the registry it owns.
class DaemonMetrics {
 public:
  /// Registers every daemon metric family on a fresh registry.
  DaemonMetrics();

  /// Ops accepted into an ingestion queue (spawns included).
  obs::Counter& ingested() { return *ingested_; }
  /// Ops executed through a tenant session.
  obs::Counter& executed() { return *executed_; }
  /// Worker batch drains (one per pop_batch; ops-per-batch = executed /
  /// batches under saturation).
  obs::Counter& batches_drained() { return *batches_drained_; }
  /// Ops dropped for `reason` (admission control, detach, shutdown).
  obs::Counter& shed(ShedReason reason) {
    return *shed_[static_cast<std::size_t>(reason)];
  }
  /// Tenants ever attached.
  obs::Counter& tenants_attached() { return *tenants_attached_; }
  /// Tenants ever detached.
  obs::Counter& tenants_detached() { return *tenants_detached_; }
  /// Control-API requests handled (errors included).
  obs::Counter& control_requests() { return *control_requests_; }
  /// Control-API requests answered with an error.
  obs::Counter& control_errors() { return *control_errors_; }
  /// Control connections evicted by the idle read deadline.
  obs::Counter& conns_idle_closed() { return *conns_idle_closed_; }
  /// Events ever appended to the operator journal.
  obs::Counter& journal_events() { return *journal_events_; }
  /// Journal events overwritten by the bounded ring before any reader
  /// at cursor 0 saw them.
  obs::Counter& journal_events_dropped() { return *journal_events_dropped_; }
  /// Frames pushed to `watch` subscribers (stats + event frames).
  obs::Counter& watch_frames() { return *watch_frames_; }
  /// Journal events / frames shed for slow `watch` consumers.
  obs::Counter& watch_events_shed() { return *watch_events_shed_; }
  /// Items currently queued across all workers (set after each submit
  /// and each executed item).
  obs::Gauge& queue_depth() { return *queue_depth_; }
  /// Largest total queue depth ever observed.
  obs::Gauge& queue_high_water() { return *queue_high_water_; }
  /// Tenants currently attached.
  obs::Gauge& tenants_active() { return *tenants_active_; }
  /// Latest `health` verdict ordinal (0 ok, 1 degraded, 2 overloaded).
  obs::Gauge& health_level() { return *health_level_; }
  /// `watch` subscriptions currently streaming.
  obs::Gauge& watch_clients() { return *watch_clients_; }
  /// Per-op execute latency observed by workers (all workers merged;
  /// no per-worker split is kept).
  obs::Histogram& worker_ingest_latency_us() { return *ingest_latency_us_; }
  /// Per-batch queue-depth samples taken by draining workers.
  obs::Histogram& worker_queue_depth() { return *worker_queue_depth_; }

  /// Point-in-time values of every daemon metric.
  [[nodiscard]] obs::MetricsSnapshot snapshot() const {
    return registry_.snapshot();
  }

 private:
  obs::MetricsRegistry registry_;
  obs::Counter* ingested_ = nullptr;
  obs::Counter* executed_ = nullptr;
  obs::Counter* batches_drained_ = nullptr;
  std::array<obs::Counter*, 4> shed_{};
  obs::Counter* tenants_attached_ = nullptr;
  obs::Counter* tenants_detached_ = nullptr;
  obs::Counter* control_requests_ = nullptr;
  obs::Counter* control_errors_ = nullptr;
  obs::Counter* conns_idle_closed_ = nullptr;
  obs::Counter* journal_events_ = nullptr;
  obs::Counter* journal_events_dropped_ = nullptr;
  obs::Counter* watch_frames_ = nullptr;
  obs::Counter* watch_events_shed_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* queue_high_water_ = nullptr;
  obs::Gauge* tenants_active_ = nullptr;
  obs::Gauge* health_level_ = nullptr;
  obs::Gauge* watch_clients_ = nullptr;
  obs::Histogram* ingest_latency_us_ = nullptr;
  obs::Histogram* worker_queue_depth_ = nullptr;
};

}  // namespace cryptodrop::daemon
