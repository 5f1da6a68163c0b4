#include "daemon/telemetry.hpp"

#include <algorithm>
#include <mutex>

namespace cryptodrop::daemon {

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::tenant_attach: return "tenant_attach";
    case EventKind::tenant_detach: return "tenant_detach";
    case EventKind::suspension: return "suspension";
    case EventKind::shed_start: return "shed_start";
    case EventKind::shed_stop: return "shed_stop";
    case EventKind::overload_enter: return "overload_enter";
    case EventKind::overload_exit: return "overload_exit";
    case EventKind::worker_start: return "worker_start";
    case EventKind::worker_stop: return "worker_stop";
  }
  return "?";
}

std::vector<EventKind> all_event_kinds() {
  return {EventKind::tenant_attach, EventKind::tenant_detach,
          EventKind::suspension,    EventKind::shed_start,
          EventKind::shed_stop,     EventKind::overload_enter,
          EventKind::overload_exit, EventKind::worker_start,
          EventKind::worker_stop};
}

Json to_json(const JournalEvent& event) {
  return Json::object()
      .set("cursor", event.cursor)
      .set("kind", std::string(event_kind_name(event.kind)))
      .set("tenant", event.tenant)
      .set("worker", event.worker)
      .set("value", event.value)
      .set("detail", event.detail);
}

EventJournal::EventJournal(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

EventJournal::AppendResult EventJournal::append(EventKind kind,
                                                std::string tenant,
                                                std::uint64_t worker,
                                                double value,
                                                std::string detail) {
  std::lock_guard<decltype(mu_)> guard(mu_);
  AppendResult result;
  result.cursor = next_cursor_++;
  if (ring_.size() == capacity_) {
    ring_.pop_front();
    ++overwritten_;
    result.overwrote = true;
  }
  JournalEvent event;
  event.cursor = result.cursor;
  event.kind = kind;
  event.tenant = std::move(tenant);
  event.worker = worker;
  event.value = value;
  event.detail = std::move(detail);
  ring_.push_back(std::move(event));
  return result;
}

EventJournal::Drain EventJournal::since(std::uint64_t cursor,
                                        std::string_view tenant,
                                        std::size_t max) const {
  std::lock_guard<decltype(mu_)> guard(mu_);
  Drain drain;
  const std::uint64_t oldest =
      ring_.empty() ? next_cursor_ : ring_.front().cursor;
  drain.next_cursor = std::max(cursor, oldest);
  if (cursor < oldest) drain.dropped = oldest - cursor;
  for (const JournalEvent& event : ring_) {
    if (event.cursor < drain.next_cursor) continue;
    if (drain.events.size() >= max) break;
    drain.next_cursor = event.cursor + 1;
    if (!tenant.empty() && event.tenant != tenant) continue;
    drain.events.push_back(event);
  }
  return drain;
}

std::uint64_t EventJournal::emitted() const {
  std::lock_guard<decltype(mu_)> guard(mu_);
  return next_cursor_;
}

std::uint64_t EventJournal::overwritten() const {
  std::lock_guard<decltype(mu_)> guard(mu_);
  return overwritten_;
}

DaemonTelemetry::DaemonTelemetry(std::size_t workers,
                                 std::size_t journal_capacity)
    : journal_(journal_capacity) {
  workers_.reserve(std::max<std::size_t>(workers, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(workers, 1); ++i) {
    workers_.push_back(std::make_unique<WorkerTelemetry>());
  }
}

std::string_view health_level_name(HealthLevel level) {
  switch (level) {
    case HealthLevel::ok: return "ok";
    case HealthLevel::degraded: return "degraded";
    case HealthLevel::overloaded: return "overloaded";
  }
  return "?";
}

Json to_json(const HealthReport& report) {
  return Json::object()
      .set("level", std::string(health_level_name(report.level)))
      .set("queue_occupancy", report.queue_occupancy)
      .set("shed_ratio", report.shed_ratio)
      .set("queue_depth", report.queue_depth)
      .set("workers", report.workers)
      .set("heartbeats", report.heartbeats)
      .set("overloaded", report.overloaded)
      .set("reason", report.reason);
}

}  // namespace cryptodrop::daemon
