#include "core/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/buffer_pool.hpp"
#include "obs/span.hpp"
#include "simhash/digest_cache.hpp"
#include "vfs/path.hpp"

namespace cryptodrop::core {

std::string_view indicator_name(Indicator ind) {
  switch (ind) {
    case Indicator::entropy_delta: return "entropy_delta";
    case Indicator::type_change: return "type_change";
    case Indicator::similarity_drop: return "similarity_drop";
    case Indicator::deletion: return "deletion";
    case Indicator::funneling: return "funneling";
    case Indicator::union_indication: return "union";
    case Indicator::burst_rate: return "burst_rate";
  }
  return "?";
}

const ProcessReport* EngineSnapshot::find(vfs::ProcessId pid) const {
  const auto it = std::lower_bound(
      processes.begin(), processes.end(), pid,
      [](const ProcessReport& r, vfs::ProcessId p) { return r.pid < p; });
  return it != processes.end() && it->pid == pid ? &*it : nullptr;
}

ProcessReport EngineSnapshot::report_for(vfs::ProcessId pid) const {
  if (const ProcessReport* report = find(pid)) return *report;
  ProcessReport report;
  report.pid = pid;
  report.threshold = default_threshold;
  return report;
}

namespace {

/// Alerts raised while the engine lock is held are parked here and
/// delivered after it is released (so a callback may query the engine
/// freely). The sink is scoped to one pre/post callback; engine
/// callbacks never nest on a thread, so one slot suffices.
thread_local std::vector<Alert>* t_alert_sink = nullptr;

/// Maps a scoring indicator onto its forensic timeline event kind (the
/// first seven TimelineEventKind values mirror the Indicator enum).
obs::TimelineEventKind timeline_kind(Indicator ind) {
  switch (ind) {
    case Indicator::entropy_delta: return obs::TimelineEventKind::entropy_delta;
    case Indicator::type_change: return obs::TimelineEventKind::type_change;
    case Indicator::similarity_drop: return obs::TimelineEventKind::similarity_drop;
    case Indicator::deletion: return obs::TimelineEventKind::deletion;
    case Indicator::funneling: return obs::TimelineEventKind::funneling;
    case Indicator::union_indication: return obs::TimelineEventKind::union_indication;
    case Indicator::burst_rate: return obs::TimelineEventKind::burst_rate;
  }
  return obs::TimelineEventKind::entropy_delta;
}

class AlertScope {
 public:
  explicit AlertScope(const std::function<void(const Alert&)>& callback)
      : callback_(callback) {
    previous_ = t_alert_sink;
    t_alert_sink = &fired_;
  }
  ~AlertScope() {
    t_alert_sink = previous_;
    if (callback_) {
      for (const Alert& alert : fired_) callback_(alert);
    }
  }

 private:
  const std::function<void(const Alert&)>& callback_;
  std::vector<Alert> fired_;
  std::vector<Alert>* previous_ = nullptr;
};

}  // namespace

AnalysisEngine::AnalysisEngine(ScoringConfig config) : config_(std::move(config)) {
  const Status valid = config_.validate();
  if (!valid.is_ok()) {
    throw std::invalid_argument("invalid ScoringConfig: " + valid.to_string());
  }
  entropy_members_ = config_.entropy.active_members();
  entropy::BackendOptions options;
  options.daa_window_bytes = config_.entropy.daa_window_bytes;
  for (const EnsembleMember& member : entropy_members_) {
    entropy_backends_.push_back(entropy::make_backend(member.backend, options));
    entropy_weight_total_ += member.weight;
  }
  register_metrics();
}

void AnalysisEngine::register_metrics() {
  // Names, units and help strings here are the schema of record; the
  // docs-check tool cross-checks docs/OBSERVABILITY.md against this list.
  m_ops_observed_ = &metrics_.counter(
      "ops_observed_total",
      "Filtered operations observed under a protected root", "operations");
  m_ops_denied_ = &metrics_.counter(
      "ops_denied_total",
      "Operations denied because the issuing process was suspended",
      "operations");
  m_suspensions_ = &metrics_.counter(
      "suspensions_total", "Detection verdicts (processes newly suspended)",
      "processes");
  m_resumes_ = &metrics_.counter(
      "resumes_total", "User resume decisions applied to suspended processes",
      "processes");
  m_baselines_ = &metrics_.counter(
      "baselines_captured_total", "Pre-modification file baselines captured",
      "files");
  m_digests_ = &metrics_.counter(
      "similarity_digests_total",
      "Similarity digests obtained (computed, or served by a content's memo)",
      "digests");
  m_degraded_ = &metrics_.counter(
      "degraded_measurements_total",
      "Measurements skipped because an input was unavailable (unreadable "
      "content or an undigestible version); the indicator stays silent",
      "measurements");
  static constexpr Indicator kAll[] = {
      Indicator::entropy_delta,  Indicator::type_change,
      Indicator::similarity_drop, Indicator::deletion,
      Indicator::funneling,       Indicator::union_indication,
      Indicator::burst_rate,
  };
  for (Indicator ind : kAll) {
    const std::string label(indicator_name(ind));
    const auto idx = static_cast<std::size_t>(ind);
    m_indicator_events_[idx] = &metrics_.counter(
        "indicator_events_total." + label,
        "Score events attributed to the " + label + " indicator", "events");
    m_indicator_points_[idx] = &metrics_.counter(
        "points_assessed_total." + label,
        "Reputation points assessed by the " + label + " indicator", "points");
  }
  // Per-backend entropy vote counters are registered for every backend
  // the project knows (not just the configured members): docs_check
  // requires a default engine to register the complete schema, and a
  // constant shape keeps snapshots comparable across configs.
  for (entropy::BackendKind kind : entropy::all_backend_kinds()) {
    const std::string label(entropy::backend_name(kind));
    m_backend_events_[static_cast<std::size_t>(kind)] = &metrics_.counter(
        "entropy_backend_events_total." + label,
        "Entropy score events where the " + label + " backend's delta vote "
        "fired", "events");
  }
  const std::vector<double> buckets = obs::MetricsRegistry::latency_buckets_us();
  h_sdhash_ = &metrics_.histogram(
      "stage_latency_us.sdhash_digest",
      "Wall time obtaining one similarity digest", "microseconds", buckets);
  h_entropy_ = &metrics_.histogram(
      "stage_latency_us.entropy",
      "Wall time folding one buffer into an entropy mean", "microseconds",
      buckets);
  h_magic_ = &metrics_.histogram(
      "stage_latency_us.magic_sniff",
      "Wall time identifying one buffer's file type", "microseconds", buckets);
  // One dispatch histogram per op type: the engine's own per-op cost,
  // the analogue of the paper's §V-H overhead table.
  for (vfs::OpType op : vfs::kOpTypes) {
    const std::string label(vfs::op_name(op));
    h_dispatch_[static_cast<std::size_t>(op)] = &metrics_.histogram(
        "filter_dispatch_us." + label,
        "Wall time of one whole engine pre/post filter callback on a " +
            label + " op",
        "microseconds", buckets);
  }
  h_close_measure_ = &metrics_.histogram(
      "stage_latency_us.close_measure",
      "Wall time of one measured close (content re-read, re-digest, "
      "indicator comparison)", "microseconds", buckets);
  g_processes_ = &metrics_.gauge(
      "processes_tracked", "Scoreboard entries at the last snapshot",
      "processes");
  g_files_ = &metrics_.gauge(
      "files_tracked", "Files with a captured baseline at the last snapshot",
      "files");
  g_pool_acquires_ = &metrics_.gauge(
      "buffer_pool_acquires", "Scratch-buffer acquisitions (process-wide pool)",
      "buffers");
  g_pool_hits_ = &metrics_.gauge(
      "buffer_pool_hits",
      "Scratch-buffer acquisitions served from a per-thread freelist",
      "buffers");
  g_pool_bytes_retained_ = &metrics_.gauge(
      "buffer_pool_bytes_retained",
      "Scratch capacity currently parked on per-thread freelists", "bytes");
}

void AnalysisEngine::set_alert_callback(std::function<void(const Alert&)> callback) {
  alert_callback_ = std::move(callback);
}

void AnalysisEngine::on_attach(vfs::FileSystem& fs) {
  fs_ = &fs;
  tracer_ = fs.span_tracer();
}

bool AnalysisEngine::under_root(std::string_view path) const {
  if (vfs::path_is_under(path, config_.protected_root)) return true;
  for (const std::string& root : config_.additional_roots) {
    if (vfs::path_is_under(path, root)) return true;
  }
  return false;
}

vfs::ProcessId AnalysisEngine::record_key(vfs::ProcessId pid) {
  // Family scoring: all descendants share one reputation entry, so a
  // sample cannot dilute its score across spawned workers and a
  // suspension pauses the whole tree.
  if (!config_.enable_family_scoring || fs_ == nullptr) return pid;
  if (const auto it = keys_.find(pid); it != keys_.end()) return it->second;
  // The process tree never changes once a pid is registered, so one
  // walk per pid suffices. Recording the ancestors too lets a query
  // about a parent that issued no op itself find its family's entry.
  const vfs::ProcessId root = fs_->process_family_root(pid);
  for (vfs::ProcessId p = pid; p != root; p = fs_->process_parent(p)) {
    keys_.try_emplace(p, root);
  }
  keys_.try_emplace(root, root);
  return root;
}

vfs::ProcessId AnalysisEngine::recorded_key(vfs::ProcessId pid) const {
  const auto it = keys_.find(pid);
  return it == keys_.end() ? pid : it->second;
}

const AnalysisEngine::ProcessState* AnalysisEngine::find_state(
    vfs::ProcessId pid) const {
  const auto it = states_.find(recorded_key(pid));
  return it == states_.end() ? nullptr : &it->second;
}

AnalysisEngine::ProcessState& AnalysisEngine::state_for(
    const vfs::OperationEvent& event) {
  auto [it, inserted] = states_.try_emplace(record_key(event.pid));
  if (inserted) {
    it->second.name = event.process_name;
    it->second.threshold = config_.score_threshold;
    it->second.forensic = obs::TimelineRing(config_.timeline_capacity);
    it->second.read_means.resize(entropy_members_.size());
    it->second.write_means.resize(entropy_members_.size());
  }
  return it->second;
}

bool AnalysisEngine::is_suspended(vfs::ProcessId pid) const {
  std::lock_guard lock(mu_);
  const ProcessState* proc = find_state(pid);
  return proc != nullptr && proc->suspended;
}

int AnalysisEngine::score(vfs::ProcessId pid) const {
  std::lock_guard lock(mu_);
  const ProcessState* proc = find_state(pid);
  return proc == nullptr ? 0 : proc->score;
}

ProcessReport AnalysisEngine::process_report(vfs::ProcessId pid) const {
  std::lock_guard lock(mu_);
  const vfs::ProcessId key = recorded_key(pid);
  const auto it = states_.find(key);
  if (it == states_.end()) {
    ProcessReport report;
    report.pid = pid;
    report.threshold = config_.score_threshold;
    return report;
  }
  return make_report(pid, key, it->second);
}

obs::ForensicTimeline AnalysisEngine::make_forensic(vfs::ProcessId key,
                                                    const ProcessState& proc) const {
  obs::ForensicTimeline timeline;
  timeline.pid = key;
  timeline.process_name = proc.name;
  timeline.suspended = proc.suspended;
  timeline.final_score = proc.score;
  timeline.threshold = proc.threshold;
  timeline.events_recorded = proc.forensic.total_recorded();
  timeline.events_dropped = proc.forensic.dropped();
  timeline.events.assign(proc.forensic.events().begin(),
                         proc.forensic.events().end());
  return timeline;
}

ProcessReport AnalysisEngine::make_report(vfs::ProcessId pid, vfs::ProcessId key,
                                          const ProcessState& proc) const {
  ProcessReport report;
  report.pid = pid;
  report.name = proc.name;
  report.score = proc.score;
  report.threshold = proc.threshold;
  report.suspended = proc.suspended;
  report.union_triggered = proc.union_triggered;
  report.union_count = proc.union_count;
  report.entropy_events = proc.entropy_events;
  report.type_change_events = proc.type_change_events;
  report.similarity_drop_events = proc.similarity_drop_events;
  report.deletion_events = proc.deletion_events;
  report.funneling_events = proc.funneling_events;
  report.rate_events = proc.rate_events;
  if (!proc.read_means.empty()) report.read_entropy_mean = proc.read_means[0].mean();
  if (!proc.write_means.empty()) report.write_entropy_mean = proc.write_means[0].mean();
  report.read_extensions = proc.read_extensions;
  report.write_extensions = proc.write_extensions;
  report.forensic = make_forensic(key, proc);
  return report;
}

obs::ForensicTimeline AnalysisEngine::explain(vfs::ProcessId pid) const {
  std::lock_guard lock(mu_);
  const vfs::ProcessId key = recorded_key(pid);
  const auto it = states_.find(key);
  if (it == states_.end()) {
    obs::ForensicTimeline timeline;
    timeline.pid = key;
    timeline.threshold = config_.score_threshold;
    return timeline;
  }
  return make_forensic(key, it->second);
}

void AnalysisEngine::refresh_gauges(std::size_t tracked_processes,
                                    std::size_t tracked_files) const {
  g_processes_->set(static_cast<double>(tracked_processes));
  g_files_->set(static_cast<double>(tracked_files));
  const BufferPoolStats pool = buffer_pool_stats();
  g_pool_acquires_->set(static_cast<double>(pool.acquires));
  g_pool_hits_->set(static_cast<double>(pool.hits));
  g_pool_bytes_retained_->set(static_cast<double>(pool.bytes_retained));
}

obs::MetricsSnapshot AnalysisEngine::metrics_snapshot() const {
  std::size_t processes = 0;
  std::size_t files = 0;
  {
    std::lock_guard lock(mu_);
    processes = states_.size();
    files = files_.size();
  }
  refresh_gauges(processes, files);
  return metrics_.snapshot();
}

EngineSnapshot AnalysisEngine::snapshot() const {
  EngineSnapshot snap;
  snap.default_threshold = config_.score_threshold;
  std::size_t files = 0;
  {
    std::lock_guard lock(mu_);
    snap.observed_ops = op_seq_.load(std::memory_order_relaxed);
    // states_ iterates in ascending key order, the order reports keep.
    for (const auto& [key, s] : states_) {
      snap.processes.push_back(make_report(key, key, s));
    }
    files = files_.size();
  }
  refresh_gauges(snap.processes.size(), files);
  snap.metrics = metrics_.snapshot();
  return snap;
}

void AnalysisEngine::resume_process(vfs::ProcessId pid) {
  std::lock_guard lock(mu_);
  auto it = states_.find(recorded_key(pid));
  if (it == states_.end()) return;
  ProcessState& s = it->second;
  const int score_before = s.score;
  s.suspended = false;
  s.score = 0;
  s.threshold = config_.score_threshold;
  s.saw_entropy = s.saw_type_change = s.saw_similarity_drop = false;
  s.union_triggered = false;
  m_resumes_->add();
  obs::TimelineEvent event;
  event.op_seq = op_seq_.load(std::memory_order_relaxed);
  event.kind = obs::TimelineEventKind::resume;
  event.score_before = score_before;
  event.score_after = 0;
  event.detail = s.threshold;
  event.note = "user resumed the process; reputation reset";
  s.forensic.push(std::move(event));
}

// ----------------------------------------------------------------------
// Scoring plumbing (callers hold the engine lock)
// ----------------------------------------------------------------------

void AnalysisEngine::add_points(ProcessState& proc, vfs::ProcessId pid,
                                Indicator indicator, int points,
                                const std::string& path, double detail,
                                std::string note, std::string backend) {
  const int score_before = proc.score;
  proc.score += points;
  // The score-update span's payload is its args (the event itself), not
  // its duration; every value is deterministic.
  obs::ScopedSpan span(obs::span_name::kScoreUpdate);
  if (span.active()) {
    span.arg("indicator", indicator_name(indicator));
    span.arg("points", static_cast<double>(points));
    span.arg("score_after", static_cast<double>(proc.score));
  }
  const auto idx = static_cast<std::size_t>(indicator);
  m_indicator_events_[idx]->add();
  m_indicator_points_[idx]->add(static_cast<std::uint64_t>(std::max(points, 0)));
  (void)pid;
  if (proc.forensic.capacity() == 0) return;  // recording off: build nothing
  obs::TimelineEvent event;
  event.op_seq = op_seq_.load(std::memory_order_relaxed);
  event.kind = timeline_kind(indicator);
  event.points = points;
  event.score_before = score_before;
  event.score_after = proc.score;
  event.path = path;
  event.detail = detail;
  event.note = std::move(note);
  event.backend = std::move(backend);
  proc.forensic.push(std::move(event));
}

void AnalysisEngine::check_union(ProcessState& proc, vfs::ProcessId pid,
                                 const std::string& path) {
  if (!config_.enable_union) return;
  if (proc.union_triggered) return;
  if (proc.saw_entropy && proc.saw_type_change && proc.saw_similarity_drop) {
    proc.union_triggered = true;
    add_points(proc, pid, Indicator::union_indication, config_.union_bonus, path,
               /*detail=*/config_.union_threshold,
               "all three primary indicators have fired; threshold lowered");
    proc.threshold = std::min(proc.threshold, config_.union_threshold);
    maybe_detect(proc, pid, /*via_union=*/true);
  }
}

void AnalysisEngine::maybe_detect(ProcessState& proc, vfs::ProcessId pid,
                                  bool via_union) {
  if (proc.suspended || proc.score < proc.threshold) return;
  proc.suspended = true;
  m_suspensions_->add();
  obs::ScopedSpan span(obs::span_name::kVerdict);
  if (span.active()) {
    span.arg("score", static_cast<double>(proc.score));
    span.arg("threshold", static_cast<double>(proc.threshold));
    span.arg("via_union", via_union ? "true" : "false");
  }
  if (tracer_ != nullptr) {
    // Keep-all from here on: the suspended process's denial tail is the
    // part of the story a sampled trace must never drop.
    tracer_->force_pid(pid);
  }
  {
    // Terminal verdict event: every explainable timeline ends with one.
    obs::TimelineEvent event;
    event.op_seq = op_seq_.load(std::memory_order_relaxed);
    event.kind = obs::TimelineEventKind::suspension;
    event.score_before = proc.score;
    event.score_after = proc.score;
    event.detail = proc.threshold;
    event.note = via_union ? "score crossed the union-lowered threshold"
                           : "score crossed the detection threshold";
    proc.forensic.push(std::move(event));
  }
  Alert alert;
  alert.pid = pid;
  alert.process_name = proc.name;
  alert.score = proc.score;
  alert.threshold = proc.threshold;
  alert.via_union = via_union;
  alert.op_seq = op_seq_.load(std::memory_order_relaxed);
  // Delivered once the enclosing callback has released the engine lock.
  assert(t_alert_sink != nullptr);
  t_alert_sink->push_back(std::move(alert));
}

void AnalysisEngine::capture_baseline(vfs::FileId id,
                                      const std::shared_ptr<const vfs::Content>& content) {
  if (id == vfs::kNoFile) return;
  if (content == nullptr) {
    // The file exists but its content could not be read back (e.g. the
    // volume is misbehaving): degraded — no pre-image this round, but
    // the engine stays alive and may capture one on a later operation.
    m_degraded_->add();
    return;
  }
  auto [it, inserted] = files_.try_emplace(id);
  if (!inserted && it->second.baseline != nullptr) return;  // already tracked
  it->second.baseline = content;
  it->second.baseline_type = sniff_type(ByteView(*content));
  it->second.baseline_digest.reset();
  it->second.digest_attempted = false;
  m_baselines_->add();
}

magic::TypeId AnalysisEngine::sniff_type(ByteView data) const {
  obs::ScopedSpan span(obs::span_name::kMagicSniff);
  obs::ScopedTimer timer(h_magic_);
  const magic::TypeId type = magic::identify(data);
  if (span.active()) span.arg("type", magic::type_name(type));
  return type;
}

void AnalysisEngine::forget_file(vfs::FileId id) {
  if (id == vfs::kNoFile) return;
  files_.erase(id);
}

bool AnalysisEngine::mark_pending_check(vfs::FileId id) {
  if (id == vfs::kNoFile) return false;
  auto it = files_.find(id);
  if (it == files_.end() || it->second.baseline == nullptr) return false;
  it->second.pending_check = true;
  return true;
}

std::optional<simhash::SimilarityDigest> AnalysisEngine::digest_of(
    const vfs::Content& content) const {
  // Both baseline and post-modification digests flow through here.
  // Corpus baselines are one buffer shared by every trial and tenant
  // cloned from the corpus, so the buffer's memo computes each one's
  // digest once, process-wide.
  obs::ScopedSpan span(obs::span_name::kSdhashDigest);
  if (span.active()) span.arg("bytes", static_cast<double>(content.size()));
  obs::ScopedTimer timer(h_sdhash_);
  m_digests_->add();
  return simhash::memoized_digest(content);
}

void AnalysisEngine::evaluate_modification(
    ProcessState& proc, vfs::ProcessId pid, vfs::FileId id,
    const std::string& path, const std::shared_ptr<const vfs::Content>& content) {
  if (id == vfs::kNoFile) return;
  if (content == nullptr) {
    // Post-modification content unreadable: the type/similarity checks
    // cannot run. Skip them (degraded), keep the baseline for the next
    // attempt rather than crashing or comparing against garbage.
    m_degraded_->add();
    return;
  }
  auto it = files_.find(id);
  if (it == files_.end() || it->second.baseline == nullptr) return;
  FileState& file = it->second;
  if (file.baseline == content) {
    // Content untouched (e.g. moved out of and back into the protected
    // tree without modification): no transformation to judge.
    file.pending_check = false;
    return;
  }

  const magic::TypeId type_now = sniff_type(ByteView(*content));
  bool fired_type = false;
  bool fired_similarity = false;
  bool similarity_available = false;
  std::optional<simhash::SimilarityDigest> new_digest;
  bool new_digest_computed = false;

  if (config_.enable_similarity) {
    if (!file.digest_attempted) {
      file.baseline_digest = digest_of(*file.baseline);
      file.digest_attempted = true;
      // Undigestible baseline (sub-512-byte files yield no sdhash):
      // similarity is silent for this file until the baseline changes.
      if (!file.baseline_digest.has_value()) m_degraded_->add();
    }
    if (file.baseline_digest.has_value()) {
      // Through the buffer's memo like the baseline digest. A buffer
      // never changes while the engine holds it, and every rewrite makes
      // a new buffer with an empty memo, so a memoized digest can never
      // be stale (tests/chaos_test.cpp pins truncate-then-rewrite).
      new_digest = digest_of(*content);
      new_digest_computed = true;
      // Both versions must be digestible; sdhash yields no score for
      // sub-512-byte files, leaving this indicator silent (§V-C).
      if (!new_digest.has_value()) m_degraded_->add();
      if (new_digest.has_value()) {
        similarity_available = true;
        int similarity = 0;
        {
          obs::ScopedSpan compare_span(obs::span_name::kSdhashCompare);
          similarity = file.baseline_digest->compare(*new_digest);
          if (compare_span.active()) {
            compare_span.arg("score", static_cast<double>(similarity));
          }
        }
        if (similarity <= config_.similarity_drop_max) {
          fired_similarity = true;
          proc.saw_similarity_drop = true;
          ++proc.similarity_drop_events;
          add_points(proc, pid, Indicator::similarity_drop,
                     config_.points_similarity_drop, path,
                     /*detail=*/similarity,
                     "post-modification sdhash score vs. baseline");
        }
      }
    }
  }

  if (config_.enable_type_change && type_now != file.baseline_type) {
    fired_type = true;
    proc.saw_type_change = true;
    ++proc.type_change_events;
    int points = config_.points_type_change;
    std::string note = std::string(magic::type_name(file.baseline_type)) +
                       " -> " + std::string(magic::type_name(type_now));
    if (config_.enable_dynamic_scoring && config_.enable_similarity &&
        !similarity_available) {
      // §V-C dynamic scoring: the similarity indicator cannot weigh in
      // on this file (too small to digest), so the one that can counts
      // for more.
      points = static_cast<int>(points * config_.dynamic_unavailable_boost);
      note += " (boosted: similarity unavailable)";
    }
    add_points(proc, pid, Indicator::type_change, points, path, /*detail=*/0.0,
               std::move(note));
  }

  // Funneling bookkeeping: the process has produced a file of this type.
  proc.write_types.insert(type_now);
  const std::string ext = vfs::path_extension(path);
  if (!ext.empty()) proc.write_extensions.insert(ext);

  // The new content becomes the baseline for the file's next change
  // ("measuring the user's documents before and after each change").
  file.baseline = content;
  file.baseline_type = type_now;
  if (new_digest_computed && new_digest.has_value()) {
    // The digest of the content that just became the baseline was
    // obtained above for the similarity comparison. Keep it, so the
    // *next* measured close of this file does not look the same bytes
    // up again — same value the reset path would fetch.
    file.baseline_digest = std::move(new_digest);
    file.digest_attempted = true;
  } else {
    file.baseline_digest.reset();
    file.digest_attempted = false;
  }
  file.pending_check = false;

  if (fired_type && fired_similarity && proc.saw_entropy) {
    ++proc.union_count;
  }
  check_union(proc, pid, path);
  maybe_detect(proc, pid, /*via_union=*/false);
}

// ----------------------------------------------------------------------
// Filter callbacks
// ----------------------------------------------------------------------

// cryptodrop:hot
vfs::Verdict AnalysisEngine::pre_operation(const vfs::OperationEvent& event) {
  AlertScope alerts(alert_callback_);
  std::lock_guard lock(mu_);
  const auto state = states_.find(record_key(event.pid));
  // A suspended process's disk accesses stay paused until the user
  // resumes it. Closing handles is still permitted (not a disk access).
  // Pre handlers assess no points, so this is the one check needed.
  if (event.op != vfs::OpType::close && state != states_.end() &&
      state->second.suspended) {
    m_ops_denied_->add();
    return vfs::Verdict::deny;
  }

  const bool src_protected = under_root(event.path);
  const bool dst_protected =
      event.op == vfs::OpType::rename && under_root(event.dest_path);
  if (!src_protected && !dst_protected) return vfs::Verdict::allow;

  obs::ScopedTimer timer(h_dispatch_[static_cast<std::size_t>(event.op)]);
  op_seq_.fetch_add(1, std::memory_order_relaxed);
  m_ops_observed_->add();
  switch (event.op) {
    case vfs::OpType::open:
      handle_open_pre(event);
      break;
    case vfs::OpType::truncate:
      handle_truncate_pre(event);
      break;
    case vfs::OpType::rename:
      handle_rename_pre(event);
      break;
    default:
      // Writes capture no pre-image (open already did) and are scored
      // exclusively in the post callback, once the bytes actually land.
      break;
  }
  return vfs::Verdict::allow;
}

// cryptodrop:hot
void AnalysisEngine::post_operation(const vfs::OperationEvent& event,
                                    const Status& outcome) {
  if (!outcome.is_ok()) return;

  const bool src_protected = under_root(event.path);
  const bool dst_protected =
      event.op == vfs::OpType::rename && under_root(event.dest_path);
  if (!src_protected && !dst_protected) return;

  AlertScope alerts(alert_callback_);
  std::lock_guard lock(mu_);
  obs::ScopedTimer timer(h_dispatch_[static_cast<std::size_t>(event.op)]);
  switch (event.op) {
    case vfs::OpType::read:
      handle_read_post(event);
      break;
    case vfs::OpType::write:
      handle_write_post(event);
      break;
    case vfs::OpType::truncate:
      handle_truncate_post(event);
      break;
    case vfs::OpType::close:
      handle_close_post(event);
      break;
    case vfs::OpType::remove:
      handle_remove_post(event);
      break;
    case vfs::OpType::rename:
      handle_rename_post(event);
      break;
    default:
      break;
  }
}

void AnalysisEngine::handle_open_pre(const vfs::OperationEvent& event) {
  if ((event.open_mode & vfs::kWrite) == 0) return;
  if (event.file_id == vfs::kNoFile) return;  // creation: no pre-image
  // Snapshot the pre-image before truncation or the first write can
  // destroy it. Copy-on-write makes this a pointer grab.
  assert(fs_ != nullptr);
  capture_baseline(event.file_id, fs_->read_unfiltered(event.path));
}

int AnalysisEngine::scaled_entropy_points(std::size_t op_bytes, double delta) const {
  const std::size_t full = std::max<std::size_t>(config_.entropy.full_points_bytes, 1);
  double scale = 1.0;
  if (op_bytes < full) {
    scale = static_cast<double>(op_bytes) / static_cast<double>(full);
  }
  if (config_.entropy.full_points_delta > 0.0 &&
      delta < config_.entropy.full_points_delta) {
    scale *= delta / config_.entropy.full_points_delta;
  }
  return std::max(1, static_cast<int>(config_.entropy.points_write * scale));
}

void AnalysisEngine::fold_read_entropy(ProcessState& proc, ByteView data) {
  obs::ScopedSpan span(obs::span_name::kEntropy);
  if (span.active()) span.arg("bytes", static_cast<double>(data.size()));
  obs::ScopedTimer timer(h_entropy_);
  for (std::size_t i = 0; i < entropy_backends_.size(); ++i) {
    proc.read_means[i].add(entropy_backends_[i]->score(data), data.size());
  }
}

/// Folds write-side content into the process's entropy state and scores
/// the delta check — shared by write ops and by content arriving via an
/// inbound rename (the only write-equivalent a Class B sample exhibits
/// inside the protected tree).
void AnalysisEngine::score_write_entropy(ProcessState& proc, vfs::ProcessId pid,
                                         ByteView data, const std::string& path) {
  if (!config_.entropy.enabled) return;
  {
    obs::ScopedSpan span(obs::span_name::kEntropy);
    if (span.active()) span.arg("bytes", static_cast<double>(data.size()));
    obs::ScopedTimer timer(h_entropy_);
    // Each member's statistic is computed exactly once per operation and
    // serves both the mean fold and the delta vote below.
    for (std::size_t i = 0; i < entropy_backends_.size(); ++i) {
      proc.write_means[i].add(entropy_backends_[i]->score(data), data.size());
    }
  }
  // Below the size cutoff the write still weighs into the means (above)
  // but earns no points: the size-scaled points floor at 1, so without
  // a cutoff a stream of tiny high-entropy writes — compressed
  // thumbnails, WAL pages — would creep toward the threshold a point
  // at a time.
  if (data.size() < config_.entropy.min_score_bytes) return;

  // Delta vote: each member whose own write-mean − read-mean delta
  // crosses the threshold votes with its weight. With a single member
  // (the default) this reduces to the paper's plain delta check.
  double voted_weight = 0.0;
  double delta_weighted = 0.0;
  // Fixed-size voter list: config validation rejects duplicate members,
  // so there are at most kBackendCount voters — no per-op heap vector.
  std::array<std::size_t, entropy::kBackendCount> voters_idx{};
  std::size_t voter_count = 0;
  for (std::size_t i = 0; i < entropy_members_.size(); ++i) {
    if (proc.read_means[i].empty() || proc.write_means[i].empty()) continue;
    const double delta = proc.write_means[i].mean() - proc.read_means[i].mean();
    if (delta < config_.entropy.delta_threshold) continue;
    voted_weight += entropy_members_[i].weight;
    delta_weighted += entropy_members_[i].weight * delta;
    voters_idx[voter_count++] = i;
  }
  if (voter_count == 0) return;
  const double quorum = entropy_members_.size() == 1
                            ? 0.0
                            : config_.entropy.ensemble.min_vote_weight *
                                  entropy_weight_total_ - 1e-12;
  if (voted_weight < quorum) return;
  const double delta = delta_weighted / voted_weight;
  std::string voters;
  for (std::size_t v = 0; v < voter_count; ++v) {
    const std::size_t i = voters_idx[v];
    m_backend_events_[static_cast<std::size_t>(entropy_members_[i].backend)]->add();
    if (!voters.empty()) voters += ',';
    voters += entropy_backends_[i]->name();
  }
  proc.saw_entropy = true;
  ++proc.entropy_events;
  add_points(proc, pid, Indicator::entropy_delta,
             scaled_entropy_points(data.size(), delta), path, /*detail=*/delta,
             "write-mean minus read-mean entropy", std::move(voters));
  check_union(proc, pid, path);
  maybe_detect(proc, pid, /*via_union=*/false);
}

void AnalysisEngine::note_modification(ProcessState& proc, vfs::ProcessId pid,
                                       std::uint64_t timestamp, vfs::FileId id,
                                       const std::string& path) {
  if (!config_.enable_rate_indicator || id == vfs::kNoFile) return;
  // Expire window entries.
  const std::uint64_t horizon =
      timestamp > config_.rate_window_micros ? timestamp - config_.rate_window_micros : 0;
  while (!proc.recent_mods.empty() && proc.recent_mods.front().first < horizon) {
    auto it = proc.window_file_counts.find(proc.recent_mods.front().second);
    if (it != proc.window_file_counts.end() && --it->second == 0) {
      proc.window_file_counts.erase(it);
    }
    proc.recent_mods.pop_front();
  }
  const bool new_file_in_window = !proc.window_file_counts.contains(id);
  proc.recent_mods.emplace_back(timestamp, id);
  ++proc.window_file_counts[id];
  // Score only when a *new* distinct file joins an already-bursting
  // window, so chunked writes to one file never inflate the count.
  if (new_file_in_window &&
      proc.window_file_counts.size() >= config_.rate_min_files) {
    ++proc.rate_events;
    add_points(proc, pid, Indicator::burst_rate, config_.points_rate, path,
               /*detail=*/static_cast<double>(proc.window_file_counts.size()),
               "distinct files modified inside the rate window");
    maybe_detect(proc, pid, /*via_union=*/false);
  }
}

void AnalysisEngine::handle_write_post(const vfs::OperationEvent& event) {
  // Scoring runs in the post callback so a write that failed below the
  // engine (denied, faulted) assesses nothing: post_operation drops
  // non-ok outcomes before dispatching here. For short writes,
  // event.data is the surviving prefix — the bytes that actually landed
  // — not the caller's full request (event.length).
  ProcessState& proc = state_for(event);
  if (proc.suspended) return;
  score_write_entropy(proc, event.pid, event.data, event.path);
  if (proc.suspended) return;  // this write crossed the threshold
  note_modification(proc, event.pid, event.timestamp, event.file_id, event.path);

  // Defer type/similarity comparison to close, when the content is whole.
  (void)mark_pending_check(event.file_id);
}

void AnalysisEngine::handle_truncate_pre(const vfs::OperationEvent& event) {
  if (event.file_id == vfs::kNoFile) return;
  // A truncate destroys content just like an overwrite (truncate-to-zero
  // is a deletion in all but name): snapshot the pre-image before it is
  // cut down, exactly as a write-mode open does.
  assert(fs_ != nullptr);
  capture_baseline(event.file_id, fs_->read_unfiltered(event.path));
}

void AnalysisEngine::handle_truncate_post(const vfs::OperationEvent& event) {
  ProcessState& proc = state_for(event);
  if (proc.suspended) return;
  note_modification(proc, event.pid, event.timestamp, event.file_id, event.path);

  // No bytes to fold into the entropy mean, but the mutation must still
  // be judged: compare type/similarity against the pre-image at close.
  (void)mark_pending_check(event.file_id);
}

void AnalysisEngine::handle_read_post(const vfs::OperationEvent& event) {
  ProcessState& proc = state_for(event);
  if (config_.entropy.enabled) {
    fold_read_entropy(proc, event.data);
  }
  if (event.offset == 0 && !event.data.empty()) {
    proc.read_types.insert(sniff_type(event.data));
    const std::string ext = vfs::path_extension(event.path);
    if (!ext.empty()) proc.read_extensions.insert(ext);
  }

  if (config_.enable_funneling && !proc.funneling_fired &&
      proc.read_types.size() >= config_.funnel_min_read_types &&
      !proc.write_types.empty() &&
      proc.read_types.size() >=
          proc.write_types.size() + config_.funnel_type_gap) {
    proc.funneling_fired = true;
    ++proc.funneling_events;
    add_points(proc, event.pid, Indicator::funneling, config_.points_funneling,
               event.path,
               /*detail=*/static_cast<double>(proc.read_types.size()),
               "distinct types read vs. " +
                   std::to_string(proc.write_types.size()) + " written");
    maybe_detect(proc, event.pid, /*via_union=*/false);
  }
}

void AnalysisEngine::handle_close_post(const vfs::OperationEvent& event) {
  if (!event.wrote) return;
  assert(fs_ != nullptr);
  // The measured close is the engine's most expensive single step
  // (re-read + re-digest + compare); its own span and stage histogram
  // keep it visible in trace-report so a regression of the
  // digest-retention fix above cannot hide inside the close mean.
  obs::ScopedSpan span(obs::span_name::kCloseMeasure);
  if (span.active()) span.arg("bytes", static_cast<double>(event.wrote_bytes));
  obs::ScopedTimer timer(h_close_measure_);
  const auto content = fs_->read_unfiltered(event.path);

  const auto file = files_.find(event.file_id);
  const bool tracked_pending = file != files_.end() &&
                               file->second.baseline != nullptr &&
                               file->second.pending_check;

  ProcessState& proc = state_for(event);
  if (proc.suspended) return;  // verdict delivered; the permitted close of
                               // a suspended process is not measured further
  if (tracked_pending) {
    evaluate_modification(proc, event.pid, event.file_id, event.path, content);
    return;
  }

  // Newly created file: no pre-image to compare, but it still counts as
  // written output for funneling, and becomes tracked from here on.
  if (content != nullptr) {
    const magic::TypeId type_now = sniff_type(ByteView(*content));
    proc.write_types.insert(type_now);
    const std::string ext = vfs::path_extension(event.path);
    if (!ext.empty()) proc.write_extensions.insert(ext);
    capture_baseline(event.file_id, content);
  } else {
    // The handle wrote, yet the content cannot be read back: the close
    // measurement is lost, but never fatal.
    m_degraded_->add();
  }
}

void AnalysisEngine::handle_remove_post(const vfs::OperationEvent& event) {
  ProcessState& proc = state_for(event);
  note_modification(proc, event.pid, event.timestamp, event.file_id, event.path);
  if (config_.enable_deletion) {
    ++proc.deletion_events;
    add_points(proc, event.pid, Indicator::deletion, config_.points_deletion,
               event.path, /*detail=*/0.0,
               "protected file removed");
    maybe_detect(proc, event.pid, /*via_union=*/false);
  }
  forget_file(event.file_id);
}

void AnalysisEngine::handle_rename_pre(const vfs::OperationEvent& event) {
  assert(fs_ != nullptr);
  // Track the source's content as it moves (Class B: "the state of the
  // file must be carefully tracked each time a file is moved").
  if (under_root(event.path)) {
    capture_baseline(event.file_id, fs_->read_unfiltered(event.path));
  }
  // A replacement destroys the destination's content: snapshot it so the
  // incoming content can be judged against it (Class C move-over).
  if (event.dest_file_id != vfs::kNoFile && under_root(event.dest_path)) {
    capture_baseline(event.dest_file_id, fs_->read_unfiltered(event.dest_path));
  }
}

void AnalysisEngine::handle_rename_post(const vfs::OperationEvent& event) {
  assert(fs_ != nullptr);
  const bool src_protected = under_root(event.path);
  const bool dst_protected = under_root(event.dest_path);
  const auto content = fs_->read_unfiltered(event.dest_path);

  ProcessState& proc = state_for(event);

  if (dst_protected && event.dest_file_id != vfs::kNoFile) {
    // Replacement: the incoming file (event.file_id) now sits where the
    // old file (dest_file_id) was. Judge the new content against the
    // *replaced* file's pre-image — this is the linkage that catches the
    // 41/63 Class C samples that move ciphertext over the original.
    evaluate_modification(proc, event.pid, event.dest_file_id, event.dest_path,
                          content);
    // The replaced file's identity is gone; the survivor keeps tracking
    // under its own id with its current content as baseline.
    forget_file(event.dest_file_id);
    forget_file(event.file_id);
    capture_baseline(event.file_id, content);
    return;
  }

  if (dst_protected && !src_protected) {
    // A file re-entering the protected tree (Class B return trip). Its
    // content arriving counts as data written into the protected area:
    // fold it into the write-entropy mean, then compare against the
    // tracked pre-departure state.
    if (content != nullptr && !content->empty()) {
      score_write_entropy(proc, event.pid, ByteView(*content), event.dest_path);
    }
    note_modification(proc, event.pid, event.timestamp, event.file_id,
                      event.dest_path);
    evaluate_modification(proc, event.pid, event.file_id, event.dest_path, content);
    maybe_detect(proc, event.pid, /*via_union=*/false);
    return;
  }

  if (src_protected && !dst_protected) {
    // Departure from the protected tree: the content leaving is the
    // read-side counterpart of the inbound fold above (a Class B sample
    // "reads" the user's data by carrying it out). Baseline was captured
    // in the pre callback; evaluation happens on return.
    if (config_.entropy.enabled) {
      const auto departing = fs_->read_unfiltered(event.dest_path);
      if (departing != nullptr && !departing->empty()) {
        fold_read_entropy(proc, ByteView(*departing));
      }
    }
    (void)mark_pending_check(event.file_id);
    return;
  }

  // Move within the protected tree without replacement: content is
  // untouched; evaluate only if a write already flagged it.
  const auto file = files_.find(event.file_id);
  if (file != files_.end() && file->second.pending_check) {
    evaluate_modification(proc, event.pid, event.file_id, event.dest_path, content);
  }
}

}  // namespace cryptodrop::core
