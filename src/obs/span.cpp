#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace cryptodrop::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-thread span start counter; only its monotonicity within one
/// thread matters, so one process-wide counter per thread is enough.
thread_local std::uint64_t t_span_seq = 0;

}  // namespace

std::size_t trace_thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::vector<std::string_view> known_span_names() {
  return {span_name::kDispatch,      span_name::kFilterPre,
          span_name::kFilterPost,    span_name::kMagicSniff,
          span_name::kEntropy,       span_name::kSdhashDigest,
          span_name::kSdhashCompare, span_name::kScoreUpdate,
          span_name::kVerdict,       span_name::kCloseMeasure,
          span_name::kDaemonIngest,  span_name::kDaemonExecute};
}

SpanTracer::SpanTracer(TraceOptions options) : options_(options) {
  per_shard_capacity_ =
      std::max<std::size_t>(1, options_.ring_capacity / kSpanShards);
  epoch_ns_ = steady_now_ns();
}

bool SpanTracer::should_sample(std::uint32_t pid,
                               std::uint64_t op_index) const {
  if constexpr (!kMetricsEnabled) return false;
  if (!options_.enabled) return false;
  if (options_.sample_every <= 1) return true;
  if (op_index % options_.sample_every == 0) return true;
  if (any_forced_.load(std::memory_order_relaxed)) {
    std::lock_guard lock(force_mu_);
    return forced_.contains(pid);
  }
  return false;
}

void SpanTracer::force_pid(std::uint32_t pid) {
  std::lock_guard lock(force_mu_);
  forced_.insert(pid);
  any_forced_.store(true, std::memory_order_relaxed);
}

void SpanTracer::record(SpanRecord&& record) {
  Shard& shard = shards_[trace_thread_index() % kSpanShards];
  std::lock_guard lock(shard.mu);
  ++shard.recorded;
  if (shard.ring.size() < per_shard_capacity_) {
    shard.ring.push_back(std::move(record));
    return;
  }
  // Full: overwrite the oldest record in place (head chases the ring).
  shard.ring[shard.head] = std::move(record);
  shard.head = (shard.head + 1) % shard.ring.size();
  ++shard.dropped;
}

SpanSnapshot SpanTracer::snapshot() const {
  SpanSnapshot out;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    out.recorded += shard.recorded;
    out.dropped += shard.dropped;
    // Unroll the ring oldest-first so relative push order survives.
    const std::size_t n = shard.ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      out.spans.push_back(shard.ring[(shard.head + i) % n]);
    }
  }
  std::stable_sort(out.spans.begin(), out.spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.seq < b.seq;
                   });
  return out;
}

std::uint64_t SpanTracer::now_ns() const {
  return steady_now_ns() - epoch_ns_;
}

ScopedSpan*& ScopedSpan::current() {
  thread_local ScopedSpan* t_current = nullptr;
  return t_current;
}

void ScopedSpan::open(SpanTracer* tracer, std::string_view name,
                      std::uint32_t pid, std::uint64_t span_id,
                      ScopedSpan* parent) {
  tracer_ = tracer;
  parent_ = parent;
  root_ = parent == nullptr ? this : parent->root_;
  name_ = name;
  span_id_ = span_id;
  pid_ = pid;
  seq_ = ++t_span_seq;
  start_ns_ = tracer->now_ns();
  current() = this;
}

void ScopedSpan::close() {
  const std::uint64_t end_ns = tracer_->now_ns();
  SpanRecord record;
  record.span_id = span_id_;
  record.parent_id = parent_ == nullptr ? 0 : parent_->span_id_;
  record.pid = pid_;
  record.tid = static_cast<std::uint32_t>(trace_thread_index());
  record.name = name_;
  record.start_ns = start_ns_;
  record.dur_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  record.seq = seq_;
  record.args = std::move(args_);
  tracer_->record(std::move(record));
  current() = parent_;
}

}  // namespace cryptodrop::obs
