// ransomware_replay and benign_replay: every trial replays its recorded
// trace through vfs::ExactReplayer into a fresh core::MonitorSession on
// one thread, stopping at the trial's first denied op.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/session.hpp"
#include "corpus/builder.hpp"
#include "simhash/digest_cache.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace replaybench {
namespace cd = cryptodrop;
namespace {

/// Calibrate again after this many ops inside one long trial.
constexpr std::size_t kCalibrateEveryOps = 256;
/// Spans kept in the traced run's file.
constexpr std::size_t kSpanBudget = 60000;

/// Stamps the first pre and the last post callback of each dispatched op
/// (attached above the engine) or the last pre and the first post
/// (attached below it): the engine's callback time is what lies between.
class EdgeFilter : public cd::vfs::Filter {
 public:
  explicit EdgeFilter(std::string_view name) : name_(name) {}
  cd::vfs::Verdict pre_operation(const cd::vfs::OperationEvent&) override {
    pre = Clock::now();
    saw_pre = true;
    return cd::vfs::Verdict::allow;
  }
  void post_operation(const cd::vfs::OperationEvent&, const cd::Status&) override {
    post = Clock::now();
    saw_post = true;
  }
  [[nodiscard]] std::string_view filter_name() const override { return name_; }
  void reset() { saw_pre = saw_post = false; }

  Clock::time_point pre{};
  Clock::time_point post{};
  bool saw_pre = false;
  bool saw_post = false;

 private:
  std::string_view name_;
};

/// One trial's monitored volume: a MonitorSession for the end-to-end
/// passes; for traced passes the same parts assembled by hand (clone,
/// then attach top filter, engine, bottom filter).
class TrialVolume {
 public:
  TrialVolume(const cd::vfs::FileSystem& base, EdgeFilter* top, EdgeFilter* bottom)
      : top_(top), bottom_(bottom) {
    if (top == nullptr) {
      session_.emplace(base, cd::core::ScoringConfig{});
      return;
    }
    fs_.emplace(base.clone());
    engine_ = std::make_unique<cd::core::AnalysisEngine>(cd::core::ScoringConfig{});
    fs_->attach_filter(top_);
    fs_->attach_filter(engine_.get());
    fs_->attach_filter(bottom_);
  }
  TrialVolume(const TrialVolume&) = delete;
  TrialVolume& operator=(const TrialVolume&) = delete;
  ~TrialVolume() {
    if (!fs_) return;
    fs_->detach_filter(bottom_);
    fs_->detach_filter(engine_.get());
    fs_->detach_filter(top_);
  }
  cd::vfs::FileSystem& fs() { return session_ ? session_->fs() : *fs_; }
  cd::core::AnalysisEngine& engine() { return session_ ? session_->engine() : *engine_; }

 private:
  EdgeFilter* top_;
  EdgeFilter* bottom_;
  std::optional<cd::core::MonitorSession> session_;
  std::optional<cd::vfs::FileSystem> fs_;
  std::unique_ptr<cd::core::AnalysisEngine> engine_;
};

/// How one replayed trial ended (identical on every pass: replay is
/// deterministic).
struct TrialEnd {
  std::size_t applied = 0;      ///< apply() calls, the denied one included.
  std::size_t failed = 0;       ///< Error outcomes before suspension.
  bool suspended = false;       ///< Stopped on a denied op, process suspended.
  std::size_t files_lost = 0;   ///< Counted on the first timed pass.
};

/// Per-op-type engine callback samples of the traced passes.
constexpr std::array<cd::vfs::OpType, 6> kCallbackOps = {
    cd::vfs::OpType::open,  cd::vfs::OpType::read,   cd::vfs::OpType::write,
    cd::vfs::OpType::close, cd::vfs::OpType::rename, cd::vfs::OpType::remove};

/// Stage histograms read from each traced trial's engine.
struct StageTotals {
  double digest_us = 0, digest_calls = 0;
  double close_us = 0;
  double entropy_us = 0, entropy_calls = 0;
  double magic_us = 0, magic_calls = 0;
};

const cd::obs::HistogramSnapshot& stage(const cd::obs::MetricsSnapshot& m,
                                        const std::string& name) {
  const cd::obs::HistogramSnapshot* h = m.histogram(name);
  if (h == nullptr) {
    throw std::runtime_error("engine metric " + name +
                             " is gone; the benchmark cannot measure its layer");
  }
  return *h;
}

/// Samples of one timed pass.
struct PassData {
  std::size_t ops = 0;
  std::size_t failed = 0;
  NormalisedTimer window;
  /// The pass's op stream cut into consecutive kOpsPerSubmit-op batches
  /// (a daemon client's submit size); `batch` times the open one. Like a
  /// daemon cycle, a batch holds replay work only: session set-up and
  /// teardown (the daemon's attach and detach) are outside it.
  NormalisedTimer batch;
  std::size_t batch_ops = 0;
  std::uint64_t digest_misses = 0;  ///< Digest-cache misses over the pass.
  bool rss_reset = false;           ///< The high-water mark was reset.
  double peak_rss_mib = 0;          ///< Resident growth over the pass.
  std::vector<TrialEnd> ends;
  std::vector<double> op_us, op_us_raw;            ///< Per apply().
  std::vector<double> verdict_ms, verdict_ms_raw;  ///< Per full batch.
  // Traced passes only.
  std::vector<double> session_ms, vfs_self_us;
  std::map<cd::vfs::OpType, std::vector<double>> callback_us;
  double callback_total_us = 0;
  std::size_t denied = 0;
  std::uint64_t protected_bytes = 0;
  StageTotals stages;
  double cache_hit_ratio = 0;

  /// Starts (resumes) the timed window and the open batch.
  void run(double factor) {
    window.start(factor);
    batch.start(factor);
  }
  /// Pauses both (calibration and untimed checks run in between).
  void pause() {
    window.stop();
    batch.stop();
  }
  /// Counts one replayed op; closes the batch at kOpsPerSubmit ops.
  void count_op(double factor) {
    if (++batch_ops < kOpsPerSubmit) return;
    batch.stop();
    verdict_ms.push_back(batch.norm_s() * 1e3);
    verdict_ms_raw.push_back(batch.raw_s() * 1e3);
    batch = NormalisedTimer{};
    batch_ops = 0;
    batch.start(factor);
  }
};

class InProcessRun {
 public:
  InProcessRun(const Inputs& in, HostCalibration& host)
      : in_(in), host_(host), spans_(kSpanBudget) {}

  /// Replays `trials` (indices into in.trials) once, from an empty
  /// digest cache. Traced passes time the engine callbacks and write
  /// spans.
  PassData pass(const std::vector<std::size_t>& trials, bool traced, bool count_lost) {
    PassData data;
    std::size_t ops = 0;
    for (std::size_t index : trials) ops += in_.trials[index].entries.size();
    data.ends.reserve(trials.size());
    reserve_resident(data.op_us, ops);
    reserve_resident(data.op_us_raw, ops);
    reserve_resident(data.verdict_ms, ops / kOpsPerSubmit + 1);
    reserve_resident(data.verdict_ms_raw, ops / kOpsPerSubmit + 1);
    cd::simhash::DigestCache& cache = cd::simhash::DigestCache::global();
    cache.clear();
    const cd::simhash::DigestCacheStats before = cache.stats();
    data.rss_reset = reset_peak_resident();
    const double rss_at_start = read_resident().rss_mib;
    for (std::size_t index : trials) {
      data.ends.push_back(trial(index, traced, count_lost, data));
    }
    data.peak_rss_mib = std::max(0.0, read_resident().peak_mib - rss_at_start);
    const cd::simhash::DigestCacheStats after = cache.stats();
    data.digest_misses = after.misses - before.misses;
    const double lookups =
        static_cast<double>((after.hits - before.hits) + data.digest_misses);
    data.cache_hit_ratio =
        lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups : 0.0;
    return data;
  }

  SpanLog& spans() { return spans_; }

 private:
  TrialEnd trial(std::size_t index, bool traced, bool count_lost, PassData& data) {
    const Trial& t = in_.trials[index];
    TrialEnd end;
    EdgeFilter top("replaybench_top");
    EdgeFilter bottom("replaybench_bottom");
    const bool span_trial = traced && spans_.has_room();
    const std::uint64_t trial_span = span_trial ? spans_.open() : 0;

    host_.calibrate();
    double factor = host_.factor();
    data.window.start(factor);
    const Clock::time_point trial_start = Clock::now();
    std::optional<TrialVolume> volume;
    volume.emplace(in_.env.base_fs, traced ? &top : nullptr, traced ? &bottom : nullptr);
    cd::vfs::ExactReplayer replayer(volume->fs());
    const std::map<cd::vfs::ProcessId, cd::vfs::ProcessId> live =
        spawn_roster(t, volume->fs(), replayer);
    const Clock::time_point session_end = Clock::now();
    data.batch.start(factor);
    if (traced) {
      data.session_ms.push_back(seconds_between(trial_start, session_end) * 1e3 * factor);
      if (span_trial) {
        spans_.add("session", 1, trial_start, session_end, spans_.open(), trial_span, index);
      }
    }

    for (const cd::vfs::TraceEntry& entry : t.entries) {
      if (end.applied > 0 && end.applied % kCalibrateEveryOps == 0) {
        data.pause();
        host_.calibrate();
        factor = host_.factor();
        data.run(factor);
      }
      top.reset();
      bottom.reset();
      const Clock::time_point a = Clock::now();
      const cd::vfs::ExactReplayer::Outcome outcome = replayer.apply(entry);
      const Clock::time_point b = Clock::now();
      ++end.applied;
      data.count_op(factor);
      const double op_raw_us = seconds_between(a, b) * 1e6;
      data.op_us.push_back(op_raw_us * factor);
      data.op_us_raw.push_back(op_raw_us);
      if (traced) record_callbacks(entry, top, bottom, a, b, op_raw_us, factor, index,
                                   trial_span, data);
      if (outcome == cd::vfs::ExactReplayer::Outcome::applied) continue;
      const auto pid = live.find(entry.pid);
      if (pid != live.end() && volume->engine().is_suspended(pid->second)) {
        end.suspended = true;
        break;
      }
      ++end.failed;
    }
    data.pause();
    const Clock::time_point verdict_at = Clock::now();
    data.ops += end.applied;
    data.failed += end.failed;

    // Untimed: outcome measurements on the replayed volume.
    if (count_lost) end.files_lost = cd::corpus::count_files_lost(volume->fs(), in_.env.corpus);
    if (traced) {
      const cd::obs::MetricsSnapshot m = volume->engine().metrics_snapshot();
      StageTotals& s = data.stages;
      const auto& digest = stage(m, "stage_latency_us.sdhash_digest");
      const auto& close = stage(m, "stage_latency_us.close_measure");
      const auto& entropy = stage(m, "stage_latency_us.entropy");
      const auto& magic = stage(m, "stage_latency_us.magic_sniff");
      s.digest_us += digest.sum * factor;
      s.digest_calls += static_cast<double>(digest.count);
      s.close_us += close.sum * factor;
      s.entropy_us += entropy.sum * factor;
      s.entropy_calls += static_cast<double>(entropy.count);
      s.magic_us += magic.sum * factor;
      s.magic_calls += static_cast<double>(magic.count);
      if (end.suspended) ++data.denied;
    }

    // Teardown belongs to the trial's cost.
    data.window.start(factor);
    volume.reset();
    data.window.stop();
    if (span_trial) spans_.add("trial", 1, trial_start, verdict_at, trial_span, 0, index, t.label);
    return end;
  }

  /// Engine callback samples of one traced op; spans under `trial_span`
  /// (0: the trial is not spanned).
  void record_callbacks(const cd::vfs::TraceEntry& entry, const EdgeFilter& top,
                        const EdgeFilter& bottom, Clock::time_point a, Clock::time_point b,
                        double op_raw_us, double factor, std::size_t index,
                        std::uint64_t trial_span, PassData& data) {
    const bool span = trial_span != 0;
    const std::uint64_t apply_span = span ? spans_.open() : 0;
    double engine_raw_us = 0;
    if (top.saw_pre && top.saw_post) {
      if (bottom.saw_pre && bottom.saw_post) {
        engine_raw_us = (seconds_between(top.pre, bottom.pre) +
                         seconds_between(bottom.post, top.post)) * 1e6;
        if (span) {
          spans_.add("analysis_engine.pre", 1, top.pre, bottom.pre, spans_.open(), apply_span,
                     index);
          spans_.add("analysis_engine.post", 1, bottom.post, top.post, spans_.open(),
                     apply_span, index);
        }
      } else {  // Denied by the engine's pre callback.
        engine_raw_us = seconds_between(top.pre, top.post) * 1e6;
        if (span) {
          spans_.add("analysis_engine.pre", 1, top.pre, top.post, spans_.open(), apply_span,
                     index);
        }
      }
    }
    data.callback_total_us += engine_raw_us * factor;
    data.vfs_self_us.push_back((op_raw_us - engine_raw_us) * factor);
    data.callback_us[entry.op].push_back(engine_raw_us * factor);
    if ((entry.op == cd::vfs::OpType::read || entry.op == cd::vfs::OpType::write) &&
        under_protected_root(entry.path)) {
      data.protected_bytes += entry.length;
    }
    if (span) {
      spans_.add("apply", 1, a, b, apply_span, trial_span, index,
                 std::string(cd::vfs::op_name(entry.op)), entry.path);
    }
  }

  const Inputs& in_;
  HostCalibration& host_;
  SpanLog spans_;
};

/// The per-trial checks. `expect_suspended[i]` is what trial i must do.
void check_ends(const Inputs& in, const std::vector<TrialEnd>& ends,
                const std::vector<bool>& expect_suspended, RunResult& out) {
  for (std::size_t i = 0; i < ends.size(); ++i) {
    const Trial& t = in.trials[i];
    const TrialEnd& e = ends[i];
    bool ok = e.failed == 0;
    if (expect_suspended[i]) {
      ok = ok && e.suspended && e.applied <= t.entries.size();
    } else {
      ok = ok && !e.suspended && e.applied == t.entries.size();
    }
    if (!ok) {
      out.fail("trial " + std::to_string(i) + " (" + t.label + "): expected " +
               (expect_suspended[i] ? "suspension before the trace ends"
                                    : "no suspension") +
               ", got suspended=" + (e.suspended ? "yes" : "no") + " after " +
               std::to_string(e.applied) + "/" + std::to_string(t.entries.size()) +
               " ops, " + std::to_string(e.failed) + " failed ops");
    }
    if (t.ransomware && e.files_lost > kMaxFilesLost) {
      out.fail("trial " + std::to_string(i) + " (" + t.label + ") lost " +
               std::to_string(e.files_lost) + " files, more than " +
               std::to_string(kMaxFilesLost));
      ok = false;
    }
    if (!ok) out.failed += e.applied;
  }
}

}  // namespace

RunResult run_inprocess(const RunOptions& options, TrialSet set) {
  RunResult out;
  const Inputs in = repeated_setup(options, set, out);
  HostCalibration host(kInProcessTrackingShare);
  InProcessRun run(in, host);
  const std::size_t n = in.trials.size();

  // Warm-up: a quarter of the trials, untimed.
  (void)run.pass(every(n, 4), /*traced=*/false, /*count_lost=*/false);

  std::vector<PassData> plain;
  std::vector<PassData> traced;
  const Clock::time_point start = Clock::now();
  out.info.push_back("memory:" + kv("setup_peak_mib", read_resident().peak_mib));
  while (plain.empty() || (options.trace && traced.empty()) ||
         seconds_between(start, Clock::now()) < options.seconds) {
    const bool traced_pass = options.trace && plain.size() > traced.size();
    PassData data = run.pass(every(n, 1), traced_pass, plain.empty() && !traced_pass);
    (traced_pass ? traced : plain).push_back(std::move(data));
  }

  // Checks: every pass ends every trial the same way, as expected, and
  // does the same digest work (a pass with fewer misses than the first
  // found digests that outlived the cache clear).
  check_ends(in, plain.front().ends, expected_suspensions(in, options), out);
  if (!plain.front().rss_reset) {
    out.fail("cannot reset the resident high-water mark (/proc/self/clear_refs)");
  }
  for (const std::vector<PassData>* passes : {&plain, &traced}) {
    for (const PassData& p : *passes) {
      if (p.digest_misses < plain.front().digest_misses) {
        out.fail(digest_reuse_message(p.digest_misses, plain.front().digest_misses));
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (p.ends[i].applied != plain.front().ends[i].applied ||
            p.ends[i].suspended != plain.front().ends[i].suspended) {
          out.fail("trial " + std::to_string(i) + " replayed differently across passes");
        }
      }
    }
  }

  EndToEndSamples e2e;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const PassData& p = plain[i];
    e2e.ops_per_s.push_back(static_cast<double>(p.ops) / p.window.norm_s());
    e2e.ops_per_s_raw.push_back(static_cast<double>(p.ops) / p.window.raw_s());
    e2e.op_us.insert(e2e.op_us.end(), p.op_us.begin(), p.op_us.end());
    e2e.op_us_raw.insert(e2e.op_us_raw.end(), p.op_us_raw.begin(), p.op_us_raw.end());
    e2e.verdict_ms.insert(e2e.verdict_ms.end(), p.verdict_ms.begin(), p.verdict_ms.end());
    e2e.verdict_ms_raw.insert(e2e.verdict_ms_raw.end(), p.verdict_ms_raw.begin(),
                              p.verdict_ms_raw.end());
    out.attempted += p.ops;
    out.failed += p.failed;
    e2e.peak_rss_mib.push_back(p.peak_rss_mib);
    out.info.push_back("pass " + std::to_string(i) + ":" + kv("ops", p.ops) +
                       kv("raw_s", p.window.raw_s()) + kv("norm_s", p.window.norm_s()) +
                       kv("digest_misses", p.digest_misses) +
                       kv("peak_rss_mib", p.peak_rss_mib));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const TrialEnd& e = plain.front().ends[i];
    if (e.suspended) e2e.detect_ops.push_back(static_cast<double>(e.applied - 1));
    if (in.trials[i].ransomware) e2e.files_lost.push_back(static_cast<double>(e.files_lost));
  }
  report_end_to_end(e2e, options, "batches", out);

  if (options.trace) {
    // Per-layer metrics: medians over the traced passes.
    const auto med = [&](auto field) {
      std::vector<double> v;
      for (const PassData& p : traced) v.push_back(field(p));
      return median(v);
    };
    std::vector<double> session_ms, self_us, traced_ops_per_s;
    std::map<cd::vfs::OpType, std::vector<double>> callback;
    for (const PassData& p : traced) {
      session_ms.insert(session_ms.end(), p.session_ms.begin(), p.session_ms.end());
      self_us.insert(self_us.end(), p.vfs_self_us.begin(), p.vfs_self_us.end());
      for (const auto& [op, v] : p.callback_us) {
        callback[op].insert(callback[op].end(), v.begin(), v.end());
      }
      traced_ops_per_s.push_back(static_cast<double>(p.ops) / p.window.norm_s());
    }
    Report& r = out.report;
    r.set("vfs.session_ms", "ms", median(session_ms));
    r.set("vfs.self_us.p50", "us", median(self_us));
    r.set("vfs.failed_ops", "count", med([](const PassData& p) { return double(p.failed); }));
    for (cd::vfs::OpType op : kCallbackOps) {
      const std::string base = "core.callback_us." + std::string(cd::vfs::op_name(op));
      r.set(base + ".p50", "us", percentile(callback[op], 0.5).value);
      r.set(base + ".p99", "us", percentile(callback[op], 0.99).value);
    }
    r.set("core.callback_ms", "ms", med([](const PassData& p) { return p.callback_total_us / 1e3; }));
    r.set("core.denied_ops", "count", med([](const PassData& p) { return double(p.denied); }));
    r.set("simhash.digest_ms", "ms", med([](const PassData& p) { return p.stages.digest_us / 1e3; }));
    r.set("simhash.digest_calls", "count", med([](const PassData& p) { return p.stages.digest_calls; }));
    r.set("simhash.cache_hit_ratio", "ratio", med([](const PassData& p) { return p.cache_hit_ratio; }));
    r.set("core.close_measure_ms", "ms", med([](const PassData& p) { return p.stages.close_us / 1e3; }));
    r.set("entropy.ms", "ms", med([](const PassData& p) { return p.stages.entropy_us / 1e3; }));
    r.set("entropy.calls", "count", med([](const PassData& p) { return p.stages.entropy_calls; }));
    r.set("entropy.ns_per_byte", "ns/B", med([](const PassData& p) {
            return p.protected_bytes > 0 ? p.stages.entropy_us * 1e3 / double(p.protected_bytes) : 0.0;
          }));
    r.set("magic.ms", "ms", med([](const PassData& p) { return p.stages.magic_us / 1e3; }));
    r.set("magic.calls", "count", med([](const PassData& p) { return p.stages.magic_calls; }));
    add_unmeasured({{"daemon.submit_rtt_ms.p50", "ms"}, {"daemon.submit_rtt_ms.p90", "ms"},
                    {"daemon.drain_rtt_ms.p50", "ms"}, {"daemon.drain_rtt_ms.p90", "ms"},
                    {"daemon.verdicts_rtt_ms.p50", "ms"}, {"daemon.attach_rtt_ms.p50", "ms"},
                    {"daemon.decode_ms", "ms"}, {"daemon.transport_ms", "ms"},
                    {"daemon.request_mb", "MB"}, {"daemon.payload_ratio", "ratio"},
                    {"daemon.shed_ops", "count"}, {"daemon.error_responses", "count"}},
                   "no daemon code runs in an in-process workload", out);
    finish_traced(e2e.ops_per_s, traced_ops_per_s, run.spans(), options, out);
  }
  add_host_block(host, options.trace, out);
  return out;
}

}  // namespace replaybench
