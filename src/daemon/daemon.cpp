#include "daemon/daemon.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

namespace cryptodrop::daemon {

// --- TenantRegistry ----------------------------------------------------

bool TenantRegistry::insert(std::shared_ptr<TenantState> state) {
  std::lock_guard<decltype(mu_)> guard(mu_);
  const std::string& id = state->id;
  return tenants_.try_emplace(id, std::move(state)).second;
}

std::shared_ptr<TenantState> TenantRegistry::find(std::string_view id) const {
  std::lock_guard<decltype(mu_)> guard(mu_);
  const auto it = tenants_.find(id);
  return it != tenants_.end() ? it->second : nullptr;
}

bool TenantRegistry::contains(std::string_view id) const {
  std::lock_guard<decltype(mu_)> guard(mu_);
  return tenants_.find(id) != tenants_.end();
}

std::shared_ptr<TenantState> TenantRegistry::erase(std::string_view id) {
  std::lock_guard<decltype(mu_)> guard(mu_);
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) return nullptr;
  std::shared_ptr<TenantState> state = std::move(it->second);
  tenants_.erase(it);
  return state;
}

std::vector<std::shared_ptr<TenantState>> TenantRegistry::list() const {
  std::lock_guard<decltype(mu_)> guard(mu_);
  std::vector<std::shared_ptr<TenantState>> out;
  out.reserve(tenants_.size());
  for (const auto& [id, state] : tenants_) out.push_back(state);
  return out;
}

std::size_t TenantRegistry::size() const {
  std::lock_guard<decltype(mu_)> guard(mu_);
  return tenants_.size();
}

// --- Daemon ------------------------------------------------------------

Daemon::Daemon(const vfs::FileSystem& base, DaemonOptions options)
    : base_(base.clone()), options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  // Telemetry must exist before the first worker thread runs (workers
  // beat and journal their own lifecycle).
  telemetry_ = std::make_unique<DaemonTelemetry>(options_.workers,
                                                 options_.journal_capacity);
  if (options_.trace.enabled) {
    tracer_ = std::make_unique<obs::SpanTracer>(options_.trace);
  }
  queues_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    queues_.push_back(
        std::make_unique<BoundedOpQueue>(options_.queue_capacity));
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Daemon::~Daemon() { shutdown(/*drain_first=*/false); }

Status Daemon::attach(const std::string& tenant_id) {
  return attach(tenant_id, options_.default_config);
}

Status Daemon::attach(const std::string& tenant_id,
                      core::ScoringConfig config) {
  if (!accepting_.load(std::memory_order_acquire)) {
    return Status(Errc::invalid_argument, "daemon is shutting down");
  }
  if (tenant_id.empty()) {
    return Status(Errc::invalid_argument, "tenant id must be non-empty");
  }
  const Status duplicate(Errc::invalid_argument,
                         "tenant `" + tenant_id + "` is already attached");
  // Cheap pre-check so a plain duplicate does not pay for a volume
  // clone. It decides nothing: two attaches of one id can both pass it,
  // and insert() below, a single critical section, picks the winner.
  if (registry_.contains(tenant_id)) return duplicate;
  std::shared_ptr<TenantState> state;
  try {
    state = std::make_shared<TenantState>(tenant_id, base_, std::move(config));
  } catch (const std::invalid_argument& e) {
    return Status(Errc::invalid_argument, e.what());
  }
  state->worker =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  const std::size_t worker_index = state->worker;
  // Suspension verdicts become journal events. The engine fires the
  // callback after releasing every engine lock (AlertScope), so the
  // rank-5 journal append composes with any caller.
  state->session.engine().set_alert_callback(
      [this, id = tenant_id, worker = state->worker](const core::Alert& a) {
        journal_event(EventKind::suspension, id, worker,
                      static_cast<double>(a.score), a.process_name);
      });
  if (!registry_.insert(std::move(state))) return duplicate;
  metrics_.tenants_attached().add();
  metrics_.tenants_active().set(static_cast<double>(registry_.size()));
  journal_event(EventKind::tenant_attach, tenant_id, worker_index,
                static_cast<double>(registry_.size()), "");
  return Status::ok();
}

Status Daemon::detach(const std::string& tenant_id) {
  std::shared_ptr<TenantState> state = registry_.erase(tenant_id);
  if (state == nullptr) {
    return Status(Errc::not_found, "tenant `" + tenant_id + "` is not attached");
  }
  state->detached.store(true, std::memory_order_release);
  metrics_.tenants_detached().add();
  metrics_.tenants_active().set(static_cast<double>(registry_.size()));
  journal_event(EventKind::tenant_detach, tenant_id, state->worker,
                static_cast<double>(registry_.size()), "");
  return Status::ok();
}

Status Daemon::spawn(const std::string& tenant_id, vfs::ProcessId recorded_pid,
                     const std::string& name, vfs::ProcessId recorded_parent) {
  std::shared_ptr<TenantState> state = registry_.find(tenant_id);
  if (state == nullptr) {
    return Status(Errc::not_found, "tenant `" + tenant_id + "` is not attached");
  }
  QueueItem item;
  item.tenant = state;
  item.is_spawn = true;
  item.spawn_pid = recorded_pid;
  item.spawn_name = name;
  item.spawn_parent = recorded_parent;
  const BoundedOpQueue::PushResult pushed =
      queues_[state->worker]->push(std::move(item));
  if (!pushed.accepted) {
    // Only a stopped queue refuses a spawn.
    count_shed(*state, pushed.reason);
    return Status(Errc::invalid_argument, "daemon is shutting down");
  }
  metrics_.ingested().add();
  state->stats.ingested.fetch_add(1, std::memory_order_relaxed);
  ops_ingested_.fetch_add(1, std::memory_order_relaxed);
  refresh_queue_gauges();
  update_overload_state();
  return Status::ok();
}

Result<SubmitResult> Daemon::submit(const std::string& tenant_id,
                                    std::vector<vfs::TraceEntry> entries) {
  std::shared_ptr<TenantState> state = registry_.find(tenant_id);
  if (state == nullptr) {
    return Status(Errc::not_found, "tenant `" + tenant_id + "` is not attached");
  }
  obs::ScopedSpan span(tracer_.get(), obs::span_name::kDaemonIngest, 0,
                       next_span_serial());
  if (span.active()) {
    span.arg("tenant", state->id);
    span.arg("ops", static_cast<double>(entries.size()));
  }
  SubmitResult result;
  BoundedOpQueue& queue = *queues_[state->worker];
  for (vfs::TraceEntry& entry : entries) {
    QueueItem item;
    item.tenant = state;
    item.entry = std::move(entry);
    BoundedOpQueue::PushResult pushed = queue.push(std::move(item));
    if (pushed.accepted) {
      metrics_.ingested().add();
      state->stats.ingested.fetch_add(1, std::memory_order_relaxed);
      ++result.accepted;
    } else {
      count_shed(*state, pushed.reason);
      ++result.shed;
    }
    if (pushed.evicted != nullptr) {
      // The op that made room was charged to whoever queued it.
      count_shed(*pushed.evicted->tenant, pushed.reason);
      ++result.shed;
    }
  }
  if (result.accepted > 0) {
    ops_ingested_.fetch_add(result.accepted, std::memory_order_relaxed);
  }
  // A clean batch (everything accepted, nothing evicted) ends the
  // tenant's shed burst: journal the transition once, not per op.
  if (result.shed == 0 && result.accepted > 0 &&
      state->shedding.exchange(false, std::memory_order_relaxed)) {
    journal_event(EventKind::shed_stop, state->id, state->worker,
                  static_cast<double>(state->stats.shed_total()), "");
  }
  refresh_queue_gauges();
  update_overload_state();
  return result;
}

void Daemon::drain() {
  for (const auto& queue : queues_) queue->drain_wait();
}

Status Daemon::drain(const std::string& tenant_id) {
  std::shared_ptr<TenantState> state = registry_.find(tenant_id);
  if (state == nullptr) {
    return Status(Errc::not_found, "tenant `" + tenant_id + "` is not attached");
  }
  queues_[state->worker]->drain_wait();
  return Status::ok();
}

void Daemon::shutdown(bool drain_first) {
  std::lock_guard<decltype(shutdown_mu_)> guard(shutdown_mu_);
  if (shutdown_done_.load(std::memory_order_acquire)) return;
  accepting_.store(false, std::memory_order_release);
  if (drain_first) {
    for (const auto& queue : queues_) queue->drain_wait();
  } else {
    for (const auto& queue : queues_) {
      for (QueueItem& item : queue->discard_all()) {
        count_shed(*item.tenant, ShedReason::shutdown);
      }
    }
  }
  for (const auto& queue : queues_) queue->stop();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  refresh_queue_gauges();
  shutdown_done_.store(true, std::memory_order_release);
}

Result<core::EngineSnapshot> Daemon::verdicts(
    const std::string& tenant_id) const {
  std::shared_ptr<TenantState> state = registry_.find(tenant_id);
  if (state == nullptr) {
    return Status(Errc::not_found, "tenant `" + tenant_id + "` is not attached");
  }
  return state->session.snapshot();
}

Result<obs::ForensicTimeline> Daemon::explain(const std::string& tenant_id,
                                              vfs::ProcessId pid) const {
  std::shared_ptr<TenantState> state = registry_.find(tenant_id);
  if (state == nullptr) {
    return Status(Errc::not_found, "tenant `" + tenant_id + "` is not attached");
  }
  return state->session.explain(pid);
}

Result<obs::MetricsSnapshot> Daemon::tenant_metrics(
    const std::string& tenant_id) const {
  std::shared_ptr<TenantState> state = registry_.find(tenant_id);
  if (state == nullptr) {
    return Status(Errc::not_found, "tenant `" + tenant_id + "` is not attached");
  }
  return state->session.metrics();
}

obs::MetricsSnapshot Daemon::metrics() const {
  refresh_queue_gauges();
  return metrics_.snapshot();
}

obs::SpanSnapshot Daemon::trace_snapshot() const {
  return tracer_ != nullptr ? tracer_->snapshot() : obs::SpanSnapshot{};
}

std::vector<TenantInfo> Daemon::tenants() const {
  std::vector<TenantInfo> out;
  for (const std::shared_ptr<TenantState>& state : registry_.list()) {
    TenantInfo info;
    info.id = state->id;
    info.worker = state->worker;
    info.ingested = state->stats.ingested.load(std::memory_order_relaxed);
    info.executed = state->stats.executed.load(std::memory_order_relaxed);
    info.shed = state->stats.shed_total();
    out.push_back(std::move(info));
  }
  return out;
}

void Daemon::pause_workers() {
  for (const auto& queue : queues_) queue->pause();
}

void Daemon::resume_workers() {
  for (const auto& queue : queues_) queue->resume();
}

void Daemon::worker_loop(std::size_t index) {
  BoundedOpQueue& queue = *queues_[index];
  WorkerTelemetry& telemetry = telemetry_->worker(index);
  const std::size_t batch_max = std::max<std::size_t>(1, options_.drain_batch);
  journal_event(EventKind::worker_start, "", index, 0.0, "");
  std::vector<QueueItem> batch;
  while (queue.pop_batch(batch, batch_max)) {
    metrics_.batches_drained().add();
    telemetry.beat();
    // One depth sample per batch (not per op): what was still queued
    // behind the batch we just took.
    metrics_.worker_queue_depth().record(static_cast<double>(queue.depth()));
    for (QueueItem& item : batch) {
      obs::ScopedTimer timer(&metrics_.worker_ingest_latency_us());
      execute_item(item);
    }
    // Count before done(): drain() can return the instant the queue
    // goes idle, and a drained batch must already be visible in the
    // counter by then.
    queue.done();
    batch.clear();  // Drop the tenant references promptly.
    update_overload_state();
  }
  journal_event(EventKind::worker_stop, "", index,
                static_cast<double>(telemetry.heartbeat()), "");
}

std::uint64_t Daemon::next_span_serial() {
  if (tracer_ == nullptr) return 0;
  return span_serial_.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::execute_item(QueueItem& item) {
  TenantState& tenant = *item.tenant;
  if (tenant.detached.load(std::memory_order_acquire)) {
    count_shed(tenant, ShedReason::tenant_gone);
    return;
  }
  obs::ScopedSpan span(tracer_.get(), obs::span_name::kDaemonExecute, 0,
                       next_span_serial());
  if (span.active()) {
    span.arg("tenant", tenant.id);
    span.arg("op", item.is_spawn ? std::string_view("spawn")
                                 : vfs::op_name(item.entry.op));
  }
  if (item.is_spawn) {
    vfs::ProcessId live_parent = 0;
    if (item.spawn_parent != 0) {
      const auto it = tenant.pid_map.find(item.spawn_parent);
      if (it != tenant.pid_map.end()) live_parent = it->second;
    }
    const vfs::ProcessId live =
        tenant.session.spawn(item.spawn_name, live_parent);
    tenant.pid_map[item.spawn_pid] = live;
    tenant.replayer.map_pid(item.spawn_pid, live);
    metrics_.executed().add();
    tenant.stats.executed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const vfs::ExactReplayer::Outcome outcome =
      tenant.replayer.apply(item.entry);
  if (outcome == vfs::ExactReplayer::Outcome::skipped_dead_handle) {
    // The op depended on a handle whose open was shed upstream — it is
    // part of the same benign-read chain.
    count_shed(tenant, ShedReason::benign_read);
    return;
  }
  metrics_.executed().add();
  tenant.stats.executed.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::count_shed(TenantState& tenant, ShedReason reason) {
  metrics_.shed(reason).add();
  ops_shed_.fetch_add(1, std::memory_order_relaxed);
  tenant.stats.shed[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  // Journal the transition into a shed burst once; the per-op counters
  // above carry the volume.
  if (!tenant.shedding.exchange(true, std::memory_order_relaxed)) {
    journal_event(EventKind::shed_start, tenant.id, tenant.worker,
                  static_cast<double>(tenant.stats.shed_total()),
                  std::string(shed_reason_name(reason)));
  }
}

void Daemon::refresh_queue_gauges() const {
  std::size_t depth = 0;
  for (const auto& queue : queues_) depth += queue->depth();
  std::size_t high = queue_high_water_.load(std::memory_order_relaxed);
  while (depth > high && !queue_high_water_.compare_exchange_weak(
                             high, depth, std::memory_order_relaxed)) {
  }
  metrics_.queue_depth().set(static_cast<double>(depth));
  metrics_.queue_high_water().set(static_cast<double>(
      queue_high_water_.load(std::memory_order_relaxed)));
}

std::vector<std::size_t> Daemon::queue_depths() const {
  std::vector<std::size_t> depths;
  depths.reserve(queues_.size());
  for (const auto& queue : queues_) depths.push_back(queue->depth());
  return depths;
}

void Daemon::journal_event(EventKind kind, std::string tenant,
                           std::uint64_t worker, double value,
                           std::string detail) {
  const EventJournal::AppendResult appended = telemetry_->journal().append(
      kind, std::move(tenant), worker, value, std::move(detail));
  metrics_.journal_events().add();
  if (appended.overwrote) metrics_.journal_events_dropped().add();
}

void Daemon::update_overload_state() {
  std::size_t depth = 0;
  for (const auto& queue : queues_) depth += queue->depth();
  const std::size_t capacity = options_.queue_capacity * queues_.size();
  if (capacity == 0) return;
  const bool over = overloaded_.load(std::memory_order_relaxed);
  if (!over && depth * 10 >= capacity * 9) {
    if (!overloaded_.exchange(true, std::memory_order_relaxed)) {
      journal_event(EventKind::overload_enter, "", 0,
                    static_cast<double>(depth), "");
    }
  } else if (over && depth * 2 <= capacity) {
    if (overloaded_.exchange(false, std::memory_order_relaxed)) {
      journal_event(EventKind::overload_exit, "", 0,
                    static_cast<double>(depth), "");
    }
  }
}

HealthReport Daemon::health() {
  update_overload_state();
  HealthReport report;
  std::size_t depth = 0;
  for (const auto& queue : queues_) depth += queue->depth();
  report.queue_depth = depth;
  report.workers = queues_.size();
  const std::size_t capacity = options_.queue_capacity * queues_.size();
  report.queue_occupancy =
      capacity == 0 ? 0.0
                    : static_cast<double>(depth) / static_cast<double>(capacity);
  const std::uint64_t ingested = ops_ingested_.load(std::memory_order_relaxed);
  const std::uint64_t shed = ops_shed_.load(std::memory_order_relaxed);
  report.shed_ratio =
      ingested + shed == 0
          ? 0.0
          : static_cast<double>(shed) / static_cast<double>(ingested + shed);
  for (std::size_t i = 0; i < telemetry_->workers(); ++i) {
    report.heartbeats += telemetry_->worker(i).heartbeat();
  }
  report.overloaded = overloaded_.load(std::memory_order_relaxed);
  // Thresholds documented in docs/DAEMON.md "Health verdict".
  if (report.overloaded || report.queue_occupancy >= 0.9) {
    report.level = HealthLevel::overloaded;
    report.reason = "queue occupancy at or above the overload threshold";
  } else if (report.queue_occupancy >= 0.5) {
    report.level = HealthLevel::degraded;
    report.reason = "queue occupancy above 50%";
  } else if (report.shed_ratio >= 0.01) {
    report.level = HealthLevel::degraded;
    report.reason = "lifetime shed ratio above 1%";
  } else {
    report.reason = "queues and shed rates nominal";
  }
  metrics_.health_level().set(static_cast<double>(report.level));
  return report;
}

}  // namespace cryptodrop::daemon
