#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace cryptodrop::obs {

// --- snapshots ---------------------------------------------------------

namespace {

template <typename T>
const T* find_by_name(const std::vector<T>& entries, std::string_view name) {
  for (const T& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

const CounterSnapshot* MetricsSnapshot::counter(std::string_view name) const {
  return find_by_name(counters, name);
}

const GaugeSnapshot* MetricsSnapshot::gauge(std::string_view name) const {
  return find_by_name(gauges, name);
}

const HistogramSnapshot* MetricsSnapshot::histogram(std::string_view name) const {
  return find_by_name(histograms, name);
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const CounterSnapshot& c : other.counters) {
    if (const CounterSnapshot* mine = counter(c.name)) {
      const_cast<CounterSnapshot*>(mine)->value += c.value;
    } else {
      counters.push_back(c);
    }
  }
  for (const GaugeSnapshot& g : other.gauges) {
    if (const GaugeSnapshot* mine = gauge(g.name)) {
      auto* mutable_mine = const_cast<GaugeSnapshot*>(mine);
      mutable_mine->value = std::max(mutable_mine->value, g.value);
    } else {
      gauges.push_back(g);
    }
  }
  for (const HistogramSnapshot& h : other.histograms) {
    const HistogramSnapshot* mine = histogram(h.name);
    if (mine == nullptr) {
      histograms.push_back(h);
      continue;
    }
    auto* mutable_mine = const_cast<HistogramSnapshot*>(mine);
    if (mutable_mine->bounds == h.bounds &&
        mutable_mine->counts.size() == h.counts.size()) {
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        mutable_mine->counts[i] += h.counts[i];
      }
    }
    mutable_mine->count += h.count;
    mutable_mine->sum += h.sum;
  }
}

Json to_json(const MetricsSnapshot& snapshot) {
  Json counters = Json::object();
  for (const CounterSnapshot& c : snapshot.counters) {
    Json entry = Json::object();
    entry.set("value", c.value).set("unit", c.unit).set("help", c.help);
    counters.set(c.name, std::move(entry));
  }

  Json gauges = Json::object();
  for (const GaugeSnapshot& g : snapshot.gauges) {
    Json entry = Json::object();
    entry.set("value", g.value).set("unit", g.unit).set("help", g.help);
    gauges.set(g.name, std::move(entry));
  }

  Json histograms = Json::object();
  for (const HistogramSnapshot& h : snapshot.histograms) {
    Json bounds = Json::array();
    for (double b : h.bounds) bounds.push(b);
    Json counts = Json::array();
    for (std::uint64_t c : h.counts) counts.push(c);
    Json entry = Json::object();
    entry.set("count", h.count)
        .set("sum", h.sum)
        .set("mean", h.mean())
        .set("bounds", std::move(bounds))
        .set("counts", std::move(counts))
        .set("unit", h.unit)
        .set("help", h.help);
    histograms.set(h.name, std::move(entry));
  }

  Json j = Json::object();
  j.set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("histograms", std::move(histograms));
  return j;
}

// --- histogram ---------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  assert(!bounds_.empty());
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

#ifndef CRYPTODROP_NO_METRICS
namespace {

/// CAS-loop add for atomic<double> (fetch_add on floating-point atomics
/// is C++20 but not universally lowered well; this is equivalent).
void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace
#endif

void Histogram::record(double v) {
#ifndef CRYPTODROP_NO_METRICS
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
#else
  (void)v;
#endif
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(buckets_.size());
  for (const std::atomic<std::uint64_t>& bucket : buckets_) {
    snap.counts.push_back(bucket.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

#ifndef CRYPTODROP_NO_METRICS
std::uint64_t ScopedTimer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#endif

// --- registry ----------------------------------------------------------

namespace {

template <typename Deque>
auto* find_entry(Deque& entries, std::string_view name) {
  for (auto& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return static_cast<typename Deque::value_type*>(nullptr);
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  std::string_view unit) {
  std::lock_guard lock(mu_);
  if (auto* entry = find_entry(counters_, name)) return entry->instrument;
  counters_.emplace_back(std::string(name), std::string(help), std::string(unit));
  return counters_.back().instrument;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              std::string_view unit) {
  std::lock_guard lock(mu_);
  if (auto* entry = find_entry(gauges_, name)) return entry->instrument;
  gauges_.emplace_back(std::string(name), std::string(help), std::string(unit));
  return gauges_.back().instrument;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::string_view help,
                                      std::string_view unit,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mu_);
  if (auto* entry = find_entry(histograms_, name)) return entry->instrument;
  histograms_.emplace_back(std::string(name), std::string(help),
                           std::string(unit), std::move(bounds));
  return histograms_.back().instrument;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const Entry<Counter>& entry : counters_) {
    snap.counters.push_back(
        CounterSnapshot{entry.name, entry.unit, entry.help, entry.instrument.value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const Entry<Gauge>& entry : gauges_) {
    snap.gauges.push_back(
        GaugeSnapshot{entry.name, entry.unit, entry.help, entry.instrument.value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const Entry<Histogram>& entry : histograms_) {
    HistogramSnapshot h = entry.instrument.snapshot();
    h.name = entry.name;
    h.unit = entry.unit;
    h.help = entry.help;
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

std::vector<double> MetricsRegistry::latency_buckets_us() {
  // 1, 2, 4, ... 65536 µs: covers sub-µs magic sniffs through multi-ms
  // digest computations with one scheme.
  std::vector<double> bounds;
  bounds.reserve(17);
  for (int i = 0; i <= 16; ++i) bounds.push_back(static_cast<double>(1 << i));
  return bounds;
}

}  // namespace cryptodrop::obs
