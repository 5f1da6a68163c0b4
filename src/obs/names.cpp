#include "obs/names.hpp"

namespace cryptodrop::obs {

std::vector<std::string_view> known_metric_names() {
  return {
      // engine counters (core/engine.cpp register_metrics)
      "ops_observed_total",
      "ops_denied_total",
      "suspensions_total",
      "resumes_total",
      "baselines_captured_total",
      "similarity_digests_total",
      "degraded_measurements_total",
      "indicator_events_total.<indicator>",
      "points_assessed_total.<indicator>",
      "entropy_backend_events_total.<entropy_backend>",
      // engine stage-latency and per-op dispatch histograms
      "stage_latency_us.sdhash_digest",
      "stage_latency_us.entropy",
      "stage_latency_us.magic_sniff",
      "filter_dispatch_us.<op_type>",
      "stage_latency_us.close_measure",
      // engine gauges
      "processes_tracked",
      "files_tracked",
      // scratch-buffer pool gauges (common/buffer_pool.cpp)
      "buffer_pool_acquires",
      "buffer_pool_hits",
      "buffer_pool_bytes_retained",
      // fault-injection filter counters (vfs/fault_filter.cpp)
      "faults_injected_total.<fault>",
      // daemon ingestion front end (daemon/metrics.cpp)
      "daemon_ops_ingested_total",
      "daemon_ops_executed_total",
      "daemon_batches_drained_total",
      "daemon_ops_shed_total.<shed_reason>",
      "daemon_tenants_attached_total",
      "daemon_tenants_detached_total",
      "daemon_control_requests_total",
      "daemon_control_errors_total",
      "daemon_conns_idle_closed_total",
      "daemon_journal_events_total",
      "daemon_journal_events_dropped_total",
      "daemon_watch_frames_total",
      "daemon_watch_events_shed_total",
      "daemon_queue_depth",
      "daemon_queue_high_water",
      "daemon_tenants_active",
      "daemon_health_level",
      "daemon_watch_clients",
      "daemon_worker_ingest_latency_us",
      "daemon_worker_queue_depth",
  };
}

std::vector<std::string_view> known_placeholder_labels(
    std::string_view placeholder) {
  // Mirrors core::indicator_name() / vfs::fault_kind_name() /
  // vfs::op_name() and the entropy and daemon enums; docs_check
  // cross-checks these lists against the real enums every run, so a new
  // indicator or fault kind cannot land without updating this file.
  if (placeholder == "<indicator>") {
    return {"entropy_delta", "type_change", "similarity_drop", "deletion",
            "funneling",     "union",       "burst_rate"};
  }
  if (placeholder == "<fault>") {
    return {"io_error", "access_denied", "short_write", "delay_post"};
  }
  if (placeholder == "<entropy_backend>") {
    return {"shannon", "chi_square", "serial_correlation", "daa"};
  }
  if (placeholder == "<shed_reason>") {
    return {"benign_read", "queue_full", "tenant_gone", "shutdown"};
  }
  if (placeholder == "<op_type>") {
    return {"open",  "read",   "write",  "truncate",
            "close", "remove", "rename", "mkdir"};
  }
  return {};
}

}  // namespace cryptodrop::obs
