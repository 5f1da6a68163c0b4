// daemon_socket: cryptodropd (one worker) behind its AF_UNIX server in
// this process, driven by one client connection in a closed loop. Per
// trial the client attaches a tenant, replays the roster as spawns, then
// repeats {submit <= 64 ops, drain, verdicts} until the trace ends or a
// verdicts reply shows the process suspended, and detaches.
#include <unistd.h>

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>

#include "common/json.hpp"
#include "core/session.hpp"
#include "corpus/builder.hpp"
#include "daemon/daemon.hpp"
#include "daemon/server.hpp"
#include "daemon/wire.hpp"
#include "simhash/digest_cache.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace replaybench {
namespace cd = cryptodrop;
namespace {

constexpr std::size_t kSpanBudget = 60000;
/// The substring a verdicts reply carries when some process in it is
/// suspended. Keys are never escaped and string values cannot hold an
/// unescaped quote, so it matches exactly the report field.
constexpr std::string_view kSuspendedField = "\"suspended\":true";

bool ok_reply(const std::string& reply) { return reply.rfind("{\"ok\":true", 0) == 0; }

/// What the client saw of one trial in one pass.
struct TrialSeen {
  std::size_t cycles = 0;
  std::size_t ops = 0;
  std::uint64_t shed = 0;  ///< As the `tenants` row reports it.
  std::string last_verdicts;
  bool suspended = false;
};

struct PassData {
  NormalisedTimer window;
  std::size_t ops = 0;
  std::uint64_t digest_misses = 0;  ///< Digest-cache misses over the pass.
  bool rss_reset = false;           ///< The high-water mark was reset.
  double peak_rss_mib = 0;          ///< Resident growth over the pass.
  std::uint64_t errors = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t payload_bytes = 0;
  double cache_hit_ratio = 0;
  std::vector<TrialSeen> seen;
  std::vector<double> op_us, op_us_raw;            ///< Per op (its cycle's latency).
  std::vector<double> verdict_ms, verdict_ms_raw;  ///< Per cycle.
  /// The same, normalised at kDaemonMedianTrackingShare (for the p50s).
  std::vector<double> op_us_mid, verdict_ms_mid;
  std::vector<double> submit_ms, drain_ms, verdicts_ms, attach_ms;
  double submit_total_ms = 0;
  double digest_us = 0, digest_calls = 0, close_us = 0, entropy_us = 0,
         entropy_calls = 0, magic_us = 0, magic_calls = 0;
  std::uint64_t protected_bytes = 0;  ///< Read/write bytes of the ops sent.
};

/// Sum and count of one stage histogram in a `metrics` reply.
std::pair<double, double> reply_stage(const cd::daemon::JsonValue& reply,
                                      const std::string& name) {
  const cd::daemon::JsonValue* metrics = reply.find("metrics");
  const cd::daemon::JsonValue* histograms =
      metrics != nullptr ? metrics->find("histograms") : nullptr;
  const cd::daemon::JsonValue* h = histograms != nullptr ? histograms->find(name) : nullptr;
  if (h == nullptr) {
    throw std::runtime_error("tenant metric " + name +
                             " is gone; the benchmark cannot measure its layer");
  }
  return {h->number_or("sum", 0), h->number_or("count", 0)};
}

class DaemonRun {
 public:
  DaemonRun(const Inputs& in, HostCalibration& host, const std::string& socket)
      : in_(in), host_(host), client_(socket), spans_(kSpanBudget) {}

  /// Replays `trials` (indices into in.trials) once, from an empty
  /// digest cache.
  PassData pass(const std::vector<std::size_t>& trials, bool traced) {
    PassData data;
    std::size_t ops = 0, cycles = 0;
    for (std::size_t index : trials) {
      const std::size_t submits = in_.requests[index].submits.size();
      ops += std::min(in_.trials[index].entries.size(), submits * kOpsPerSubmit);
      cycles += submits;
    }
    data.seen.reserve(trials.size());
    reserve_resident(data.attach_ms, trials.size());
    for (std::vector<double>* v : {&data.op_us, &data.op_us_raw, &data.op_us_mid}) {
      reserve_resident(*v, ops);
    }
    for (std::vector<double>* v : {&data.verdict_ms, &data.verdict_ms_raw, &data.verdict_ms_mid,
                                   &data.submit_ms, &data.drain_ms, &data.verdicts_ms}) {
      reserve_resident(*v, cycles);
    }
    cd::simhash::DigestCache& cache = cd::simhash::DigestCache::global();
    cache.clear();
    const cd::simhash::DigestCacheStats before = cache.stats();
    data.rss_reset = reset_peak_resident();
    const double rss_at_start = read_resident().rss_mib;
    for (std::size_t index : trials) data.seen.push_back(trial(index, traced, data));
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
  /// One request/response round trip; error envelopes are counted.
  std::string send(const std::string& line, PassData& data) {
    data.request_bytes += line.size() + 1;
    cd::Result<std::string> reply = client_.request(line);
    if (!reply) throw std::runtime_error("daemon socket: " + reply.status().to_string());
    if (!ok_reply(reply.value())) ++data.errors;
    return std::move(reply).value();
  }

  TrialSeen trial(std::size_t index, bool traced, PassData& data) {
    const TrialRequests& req = in_.requests[index];
    const Trial& t = in_.trials[index];
    const bool span_trial = traced && spans_.has_room();
    const std::uint64_t trial_span = span_trial ? spans_.open() : 0;
    TrialSeen seen;

    host_.calibrate();
    double factor = host_.factor();
    data.window.start(factor);
    const Clock::time_point trial_start = Clock::now();
    (void)send(req.attach, data);
    const Clock::time_point attached = Clock::now();
    data.attach_ms.push_back(seconds_between(trial_start, attached) * 1e3 * factor);
    if (span_trial) {
      spans_.add("attach", 1, trial_start, attached, spans_.open(), trial_span, index);
    }
    for (const std::string& spawn : req.spawns) {
      const Clock::time_point a = Clock::now();
      (void)send(spawn, data);
      if (span_trial) spans_.add("spawn", 1, a, Clock::now(), spans_.open(), trial_span, index);
    }

    std::size_t remaining = t.entries.size();
    for (std::size_t c = 0; c < req.submits.size() && !seen.suspended; ++c) {
      data.window.stop();
      host_.calibrate();
      factor = host_.factor();
      data.window.start(factor);
      const Clock::time_point t0 = Clock::now();
      (void)send(req.submits[c], data);
      const Clock::time_point t1 = Clock::now();
      (void)send(req.drain, data);
      const Clock::time_point t2 = Clock::now();
      seen.last_verdicts = send(req.verdicts, data);
      const Clock::time_point t3 = Clock::now();

      const std::size_t ops = std::min(kOpsPerSubmit, remaining);
      remaining -= ops;
      seen.ops += ops;
      ++seen.cycles;
      data.payload_bytes += req.submit_payload[c];
      seen.suspended = seen.last_verdicts.find(kSuspendedField) != std::string::npos;
      const double raw_ms = seconds_between(t0, t3) * 1e3;
      const double mid_factor = host_.factor_at(kDaemonMedianTrackingShare);
      data.verdict_ms.push_back(raw_ms * factor);
      data.verdict_ms_raw.push_back(raw_ms);
      data.verdict_ms_mid.push_back(raw_ms * mid_factor);
      data.op_us.insert(data.op_us.end(), ops, raw_ms * 1e3 * factor);
      data.op_us_raw.insert(data.op_us_raw.end(), ops, raw_ms * 1e3);
      data.op_us_mid.insert(data.op_us_mid.end(), ops, raw_ms * 1e3 * mid_factor);
      data.submit_ms.push_back(seconds_between(t0, t1) * 1e3 * factor);
      data.drain_ms.push_back(seconds_between(t1, t2) * 1e3 * factor);
      data.verdicts_ms.push_back(seconds_between(t2, t3) * 1e3 * factor);
      data.submit_total_ms += seconds_between(t0, t1) * 1e3 * factor;
      if (span_trial) {
        const std::uint64_t cycle_id = (index << 16) | c;
        const std::uint64_t cycle_span = spans_.open();
        spans_.add("cycle", 1, t0, t3, cycle_span, trial_span, cycle_id);
        spans_.add("submit", 1, t0, t1, spans_.open(), cycle_span, cycle_id);
        spans_.add("drain", 1, t1, t2, spans_.open(), cycle_span, cycle_id);
        spans_.add("verdicts", 1, t2, t3, spans_.open(), cycle_span, cycle_id);
      }
    }
    data.ops += seen.ops;

    Clock::time_point a = Clock::now();
    const std::string tenants = send(req.tenants, data);
    if (span_trial) spans_.add("tenants", 1, a, Clock::now(), spans_.open(), trial_span, index);
    if (const auto parsed = cd::daemon::parse_json(tenants); parsed.has_value()) {
      if (const cd::daemon::JsonValue* rows = parsed->find("tenants"); rows != nullptr) {
        for (const cd::daemon::JsonValue& row : rows->items) {
          if (row.string_or("id", "") == req.tenant) {
            seen.shed += static_cast<std::uint64_t>(row.number_or("shed", 0));
          }
        }
      }
    }
    if (traced) {
      a = Clock::now();
      const std::string reply = send(req.metrics, data);
      if (span_trial) {
        spans_.add("metrics", 1, a, Clock::now(), spans_.open(), trial_span, index);
      }
      const std::optional<cd::daemon::JsonValue> m = cd::daemon::parse_json(reply);
      if (!m.has_value()) throw std::runtime_error("unparsable metrics reply");
      const auto [digest_sum, digest_count] = reply_stage(*m, "stage_latency_us.sdhash_digest");
      const auto [close_sum, close_count] = reply_stage(*m, "stage_latency_us.close_measure");
      const auto [entropy_sum, entropy_count] = reply_stage(*m, "stage_latency_us.entropy");
      const auto [magic_sum, magic_count] = reply_stage(*m, "stage_latency_us.magic_sniff");
      (void)close_count;
      data.digest_us += digest_sum * factor;
      data.digest_calls += digest_count;
      data.close_us += close_sum * factor;
      data.entropy_us += entropy_sum * factor;
      data.entropy_calls += entropy_count;
      data.magic_us += magic_sum * factor;
      data.magic_calls += magic_count;
      for (std::size_t i = 0; i < seen.ops; ++i) {
        const cd::vfs::TraceEntry& e = t.entries[i];
        if ((e.op == cd::vfs::OpType::read || e.op == cd::vfs::OpType::write) &&
            under_protected_root(e.path)) {
          data.protected_bytes += e.length;
        }
      }
    }
    a = Clock::now();
    (void)send(req.detach, data);
    const Clock::time_point trial_end = Clock::now();
    data.window.stop();
    if (span_trial) {
      spans_.add("detach", 1, a, trial_end, spans_.open(), trial_span, index);
      spans_.add("trial", 1, trial_start, trial_end, trial_span, 0, index, t.label);
    }
    return seen;
  }

  const Inputs& in_;
  HostCalibration& host_;
  cd::daemon::DaemonClient client_;
  SpanLog spans_;
};

/// The in-process reference for one trial: the ops the client sent,
/// decoded from the exact submit lines, replayed into a fresh session
/// the way the daemon's tenant replays them.
struct Reference {
  std::string verdicts_line;
  bool suspended = false;
  std::size_t detect_ops = 0;  ///< Ops completed before the suspension.
  /// Ops skipped because their handle's open was denied after the
  /// suspension — the daemon books these as shed benign reads.
  std::size_t dead_handle_skips = 0;
  std::size_t files_lost = 0;
  double decode_ms = 0;        ///< parse_json + parse_trace_entry, normalised.
};

Reference reference_replay(const Inputs& in, std::size_t index, std::size_t cycles,
                           HostCalibration& host, SpanLog* spans) {
  const Trial& t = in.trials[index];
  const TrialRequests& req = in.requests[index];
  Reference ref;
  std::vector<cd::vfs::TraceEntry> entries;
  host.calibrate();
  for (std::size_t c = 0; c < cycles; ++c) {
    const Clock::time_point a = Clock::now();
    const std::optional<cd::daemon::JsonValue> request = cd::daemon::parse_json(req.submits[c]);
    const cd::daemon::JsonValue* ops = request.has_value() ? request->find("ops") : nullptr;
    if (ops == nullptr) throw std::runtime_error("unparsable submit line");
    for (const cd::daemon::JsonValue& op : ops->items) {
      std::optional<cd::vfs::TraceEntry> entry = cd::vfs::parse_trace_entry(op.str);
      if (!entry.has_value()) throw std::runtime_error("malformed trace entry in a submit line");
      entries.push_back(std::move(*entry));
    }
    const Clock::time_point b = Clock::now();
    ref.decode_ms += seconds_between(a, b) * 1e3 * host.factor();
    if (spans != nullptr) spans->add("decode", 2, a, b, spans->open(), 0, (index << 16) | c);
  }

  cd::core::MonitorSession session(in.env.base_fs, cd::core::ScoringConfig{});
  cd::vfs::ExactReplayer replayer(session.fs());
  const std::map<cd::vfs::ProcessId, cd::vfs::ProcessId> live =
      spawn_roster(t, session.fs(), replayer);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto outcome = replayer.apply(entries[i]);
    if (outcome == cd::vfs::ExactReplayer::Outcome::skipped_dead_handle) ++ref.dead_handle_skips;
    const auto pid = live.find(entries[i].pid);
    if (!ref.suspended && pid != live.end() && session.engine().is_suspended(pid->second)) {
      ref.suspended = true;
      ref.detect_ops = i + 1;
    }
  }
  ref.verdicts_line = cd::Json::object()
                          .set("ok", true)
                          .set("scoreboard", cd::daemon::scoreboard_to_json(session.snapshot()))
                          .to_string();
  ref.files_lost = cd::corpus::count_files_lost(session.fs(), in.env.corpus);
  return ref;
}

}  // namespace

RunResult run_daemon_socket(const RunOptions& options) {
  RunResult out;
  const Inputs in = repeated_setup(options, TrialSet::daemon_mix, out);
  const std::size_t n = in.trials.size();
  HostCalibration host(kDaemonTrackingShare);
  const std::string socket = options.work_dir + "/daemon-" + std::to_string(::getpid()) + ".sock";

  std::vector<PassData> plain;
  std::vector<PassData> traced;
  std::optional<DaemonRun> run;
  {
    cd::daemon::DaemonOptions daemon_options;
    daemon_options.workers = 1;
    daemon_options.default_config = cd::core::ScoringConfig{};
    cd::daemon::Daemon daemon(in.env.base_fs, daemon_options);
    cd::daemon::SocketServer server(daemon, socket);
    if (const cd::Status started = server.start(); !started) {
      throw std::runtime_error("daemon socket server: " + started.to_string());
    }
    run.emplace(in, host, socket);
    (void)run->pass(every(n, 4), /*traced=*/false);  // Warm-up.

    const Clock::time_point start = Clock::now();
    out.info.push_back("memory:" + kv("setup_peak_mib", read_resident().peak_mib));
    while (plain.empty() || (options.trace && traced.empty()) ||
           seconds_between(start, Clock::now()) < options.seconds) {
      const bool traced_pass = options.trace && plain.size() > traced.size();
      PassData data = run->pass(every(n, 1), traced_pass);
      (traced_pass ? traced : plain).push_back(std::move(data));
    }
    server.stop();
    daemon.shutdown(/*drain_first=*/false);
  }
  if (!plain.front().rss_reset) {
    out.fail("cannot reset the resident high-water mark (/proc/self/clear_refs)");
  }

  // Checks, against the in-process reference of what the client sent.
  const std::vector<bool> expect = expected_suspensions(in, options);
  const std::vector<TrialSeen>& first = plain.front().seen;
  EndToEndSamples e2e;
  double decode_ms = 0;
  std::uint64_t dead_handle_skips = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Reference ref = reference_replay(in, i, first[i].cycles, host,
                                           options.trace ? &run->spans() : nullptr);
    decode_ms += ref.decode_ms;
    dead_handle_skips += ref.dead_handle_skips;
    if (ref.suspended) e2e.detect_ops.push_back(static_cast<double>(ref.detect_ops));
    if (in.trials[i].ransomware) e2e.files_lost.push_back(static_cast<double>(ref.files_lost));
    bool ok = true;
    for (const std::vector<PassData>* passes : {&plain, &traced}) {
      for (const PassData& p : *passes) {
        if (p.seen[i].last_verdicts != ref.verdicts_line) {
          out.fail("tenant " + in.requests[i].tenant + " (" + in.trials[i].label +
                   "): verdicts line differs from the in-process replay of the ops sent");
          ok = false;
        }
        if (p.seen[i].shed != ref.dead_handle_skips) {
          out.fail("tenant " + in.requests[i].tenant + " (" + in.trials[i].label + "): " +
                   std::to_string(p.seen[i].shed) + " ops shed, " +
                   std::to_string(ref.dead_handle_skips) +
                   " of them expected (handles opened after the suspension)");
          ok = false;
        }
      }
    }
    if (first[i].suspended != expect[i] || ref.suspended != expect[i]) {
      out.fail("trial " + std::to_string(i) + " (" + in.trials[i].label + "): expected " +
               (expect[i] ? "suspension" : "no suspension"));
      ok = false;
    }
    if (in.trials[i].ransomware && ref.files_lost > kMaxFilesLost) {
      out.fail("trial " + std::to_string(i) + " (" + in.trials[i].label + ") lost " +
               std::to_string(ref.files_lost) + " files, more than " +
               std::to_string(kMaxFilesLost));
      ok = false;
    }
    if (!ok) out.failed += first[i].ops;
  }

  for (std::size_t i = 0; i < plain.size(); ++i) {
    const PassData& p = plain[i];
    e2e.ops_per_s.push_back(static_cast<double>(p.ops) / p.window.norm_s());
    e2e.ops_per_s_raw.push_back(static_cast<double>(p.ops) / p.window.raw_s());
    e2e.op_us.insert(e2e.op_us.end(), p.op_us.begin(), p.op_us.end());
    e2e.op_us_raw.insert(e2e.op_us_raw.end(), p.op_us_raw.begin(), p.op_us_raw.end());
    e2e.op_us_mid.insert(e2e.op_us_mid.end(), p.op_us_mid.begin(), p.op_us_mid.end());
    e2e.verdict_ms.insert(e2e.verdict_ms.end(), p.verdict_ms.begin(), p.verdict_ms.end());
    e2e.verdict_ms_raw.insert(e2e.verdict_ms_raw.end(), p.verdict_ms_raw.begin(),
                              p.verdict_ms_raw.end());
    e2e.verdict_ms_mid.insert(e2e.verdict_ms_mid.end(), p.verdict_ms_mid.begin(),
                              p.verdict_ms_mid.end());
    out.attempted += p.ops;
    out.failed += p.errors;
    e2e.peak_rss_mib.push_back(p.peak_rss_mib);
    out.info.push_back("pass " + std::to_string(i) + ":" + kv("ops", p.ops) +
                       kv("cycles", p.verdict_ms.size()) + kv("raw_s", p.window.raw_s()) +
                       kv("norm_s", p.window.norm_s()) + kv("request_mb", p.request_bytes / 1e6) +
                       kv("digest_misses", p.digest_misses) +
                       kv("peak_rss_mib", p.peak_rss_mib));
  }
  for (const std::vector<PassData>* passes : {&plain, &traced}) {
    for (const PassData& p : *passes) {
      if (p.digest_misses < plain.front().digest_misses) {
        out.fail(digest_reuse_message(p.digest_misses, plain.front().digest_misses));
      }
      if (p.errors != 0) {
        out.fail(std::to_string(p.errors) + " error responses in a pass");
      }
    }
  }
  out.info.push_back("shed:" + kv("after_suspension_per_pass", dead_handle_skips) +
                     " (ops on handles whose open was denied after the suspension)");
  report_end_to_end(e2e, options, "cycles", out);

  if (options.trace) {
    const auto med = [&](auto field) {
      std::vector<double> v;
      for (const PassData& p : traced) v.push_back(field(p));
      return median(v);
    };
    std::vector<double> submit, drain, verdicts, attach, traced_ops_per_s;
    for (const PassData& p : traced) {
      submit.insert(submit.end(), p.submit_ms.begin(), p.submit_ms.end());
      drain.insert(drain.end(), p.drain_ms.begin(), p.drain_ms.end());
      verdicts.insert(verdicts.end(), p.verdicts_ms.begin(), p.verdicts_ms.end());
      attach.insert(attach.end(), p.attach_ms.begin(), p.attach_ms.end());
      traced_ops_per_s.push_back(static_cast<double>(p.ops) / p.window.norm_s());
    }
    std::vector<std::pair<std::string, std::string>> engine_side = {
        {"vfs.session_ms", "ms"}, {"vfs.self_us.p50", "us"}, {"vfs.failed_ops", "count"},
        {"core.callback_ms", "ms"}, {"core.denied_ops", "count"}};
    for (const char* op : {"open", "read", "write", "close", "rename", "remove"}) {
      for (const char* q : {".p50", ".p99"}) {
        engine_side.push_back({std::string("core.callback_us.") + op + q, "us"});
      }
    }
    add_unmeasured(engine_side,
                   "tenant sessions are built inside the daemon; no filter can be "
                   "stacked around their engine from outside",
                   out);
    Report& r = out.report;
    r.set("simhash.digest_ms", "ms", med([](const PassData& p) { return p.digest_us / 1e3; }));
    r.set("simhash.digest_calls", "count", med([](const PassData& p) { return p.digest_calls; }));
    r.set("simhash.cache_hit_ratio", "ratio", med([](const PassData& p) { return p.cache_hit_ratio; }));
    r.set("core.close_measure_ms", "ms", med([](const PassData& p) { return p.close_us / 1e3; }));
    r.set("entropy.ms", "ms", med([](const PassData& p) { return p.entropy_us / 1e3; }));
    r.set("entropy.calls", "count", med([](const PassData& p) { return p.entropy_calls; }));
    r.set("entropy.ns_per_byte", "ns/B", med([](const PassData& p) {
            return p.protected_bytes > 0 ? p.entropy_us * 1e3 / double(p.protected_bytes) : 0.0;
          }));
    r.set("magic.ms", "ms", med([](const PassData& p) { return p.magic_us / 1e3; }));
    r.set("magic.calls", "count", med([](const PassData& p) { return p.magic_calls; }));
    r.set("daemon.submit_rtt_ms.p50", "ms", percentile(submit, 0.5).value);
    r.set("daemon.submit_rtt_ms.p90", "ms", percentile(submit, 0.9).value);
    r.set("daemon.drain_rtt_ms.p50", "ms", percentile(drain, 0.5).value);
    r.set("daemon.drain_rtt_ms.p90", "ms", percentile(drain, 0.9).value);
    r.set("daemon.verdicts_rtt_ms.p50", "ms", percentile(verdicts, 0.5).value);
    r.set("daemon.attach_rtt_ms.p50", "ms", percentile(attach, 0.5).value);
    r.set("daemon.decode_ms", "ms", decode_ms);
    r.set("daemon.transport_ms", "ms",
          med([](const PassData& p) { return p.submit_total_ms; }) - decode_ms);
    r.set("daemon.request_mb", "MB", med([](const PassData& p) { return p.request_bytes / 1e6; }));
    r.set("daemon.payload_ratio", "ratio", med([](const PassData& p) {
            return p.request_bytes > 0 ? double(p.payload_bytes) / double(p.request_bytes) : 0.0;
          }));
    r.set("daemon.shed_ops", "count", med([&](const PassData& p) {
            double shed = 0;
            for (const TrialSeen& seen : p.seen) shed += double(seen.shed);
            return shed - double(dead_handle_skips);
          }));
    r.set("daemon.error_responses", "count", med([](const PassData& p) { return double(p.errors); }));
    finish_traced(e2e.ops_per_s, traced_ops_per_s, run->spans(), options, out);
  }
  add_host_block(host, options.trace, out);
  return out;
}

}  // namespace replaybench
