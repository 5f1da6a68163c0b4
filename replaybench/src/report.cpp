// Reporting shared by the workloads: setup repetition, the end-to-end
// metrics, the traced-run epilogue and the host block.
#include <algorithm>

#include "workloads.hpp"

namespace replaybench {

std::string kv(const std::string& name, double value) {
  return " " + name + "=" + number_text(value);
}

std::string digest_reuse_message(std::uint64_t misses, std::uint64_t first_misses) {
  return "a timed pass missed the digest cache " + std::to_string(misses) +
         " times, the first " + std::to_string(first_misses) +
         ": digests outlived DigestCache::clear()";
}

std::vector<std::size_t> every(std::size_t n, std::size_t stride) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; i += stride) out.push_back(i);
  return out;
}

Inputs repeated_setup(const RunOptions& options, TrialSet set, RunResult& out) {
  const SetupOptions setup{options.seed, set, options.tiny};
  const std::size_t repeats = options.trace || options.tiny ? 1
                              : set == TrialSet::table1       ? 2
                                                              : 3;
  std::vector<double> norm, raw, corpus, record;
  Inputs in;
  for (std::size_t r = 0; r < repeats; ++r) {
    in = Inputs{};  // Free the previous repetition first.
    in = build_inputs(setup);
    norm.push_back(in.setup_norm_s);
    raw.push_back(in.setup_raw_s);
    corpus.push_back(in.corpus_norm_s);
    record.push_back(in.record_norm_s);
    out.info.push_back("setup " + std::to_string(r) + ":" + kv("corpus_s", in.corpus_s) +
                       kv("record_s", in.record_s) + kv("serialize_s", in.serialize_s) +
                       kv("raw_s", in.setup_raw_s) + kv("norm_s", in.setup_norm_s));
  }
  std::size_t ops = 0;
  for (const Trial& t : in.trials) ops += t.entries.size();
  out.info.push_back("inputs:" + kv("files", in.env.base_fs.file_count()) +
                     kv("trials", in.trials.size()) + kv("recorded_ops", ops) +
                     kv("setup_s.raw", median(raw)) + kv("setup_repeats", repeats));
  if (options.trace) {
    out.report.set("corpus.build_s", "s", median(corpus));
    out.report.set("sim.record_s", "s", median(record));
  } else {
    out.report.set("setup_s", "s", median(norm));
  }
  return in;
}

std::vector<bool> expected_suspensions(const Inputs& in, const RunOptions& options) {
  std::vector<bool> expect;
  for (const Trial& t : in.trials) expect.push_back(t.ransomware || t.expected_fp);
  if (options.plant_wrong_expectation && !expect.empty()) expect[0] = !expect[0];
  return expect;
}

void report_end_to_end(const EndToEndSamples& s, const RunOptions& options,
                       const std::string& unit, RunResult& out) {
  const Percentile op50 = percentile(s.op_us_mid.empty() ? s.op_us : s.op_us_mid, 0.5);
  const Percentile op99 = percentile(s.op_us, 0.99);
  const Percentile v50 = percentile(s.verdict_ms_mid.empty() ? s.verdict_ms : s.verdict_ms_mid, 0.5);
  const Percentile v95 = percentile(s.verdict_ms, 0.95);
  const Percentile d50 = percentile(s.detect_ops, 0.5);
  if (s.detect_ops.empty()) out.fail("no trial was suspended");
  if (median(s.files_lost) > kMaxMedianFilesLost) {
    out.fail("the median Table I sample lost " + number_text(median(s.files_lost)) +
             " files, more than " + number_text(kMaxMedianFilesLost));
  }
  out.info.push_back("samples:" + kv("ops", op50.samples) + kv("op_p99_beyond", op99.beyond) +
                     kv(unit, v50.samples) + kv("verdict_p95_beyond", v95.beyond));
  out.info.push_back("detection:" + kv("detect_ops.p50", d50.value) +
                     kv("detect_ops.p90", percentile(s.detect_ops, 0.9).value) +
                     kv("suspended_trials", d50.samples) +
                     kv("files_lost.p50", percentile(s.files_lost, 0.5).value) +
                     kv("files_lost.p90", percentile(s.files_lost, 0.9).value) +
                     kv("files_lost.max", percentile(s.files_lost, 1.0).value) +
                     kv("samples", s.files_lost.size()));
  out.info.push_back("raw:" + kv("ops_per_s", median(s.ops_per_s_raw)) +
                     kv("op_latency_us.p50", percentile(s.op_us_raw, 0.5).value) +
                     kv("op_latency_us.p99", percentile(s.op_us_raw, 0.99).value) +
                     kv("verdict_latency_ms.p50", percentile(s.verdict_ms_raw, 0.5).value) +
                     kv("verdict_latency_ms.p95", percentile(s.verdict_ms_raw, 0.95).value) +
                     kv("passes", s.ops_per_s.size()));
  out.info.push_back("tails:" + kv("op_latency_us.p90", percentile(s.op_us, 0.9).value) +
                     kv("verdict_latency_ms.p90", percentile(s.verdict_ms, 0.9).value));
  if (options.trace) return;
  Report& r = out.report;
  r.set("ops_per_s", "1/s", median(s.ops_per_s));
  r.set("op_latency_us.p50", "us", op50.value);
  r.set("op_latency_us.p99", "us", op99.value);
  r.set("verdict_latency_ms.p50", "ms", v50.value);
  r.set("verdict_latency_ms.p95", "ms", v95.value);
  r.set("peak_rss_mb", "MiB", percentile(s.peak_rss_mib, 1.0).value);
}

void finish_traced(const std::vector<double>& plain_ops_per_s,
                   const std::vector<double>& traced_ops_per_s, const SpanLog& spans,
                   const RunOptions& options, RunResult& out) {
  out.report.set("trace_overhead_pct", "%",
                 (median(plain_ops_per_s) / median(traced_ops_per_s) - 1.0) * 100.0);
  if (!spans.write(options.span_file)) out.fail("cannot write " + options.span_file);
  out.info.push_back("spans:" + kv("kept", spans.kept()) + kv("dropped", spans.dropped()) +
                     " file=" + options.span_file);
}

void add_host_block(const HostCalibration& host, bool traced, RunResult& out) {
  std::vector<double> us;
  for (double ns : host.samples()) us.push_back(ns / 1e3);
  const double p50 = percentile(us, 0.5).value;
  const double spread =
      p50 > 0 ? (percentile(us, 0.75).value - percentile(us, 0.25).value) / p50 * 100.0 : 0.0;
  out.info.push_back("host:" + kv("cal_us.p50", p50) + kv("cal_spread_pct", spread) +
                     kv("cal_samples", us.size()) +
                     kv("ref_cal_us", kReferenceCalibrationNs / 1e3));
  if (traced) {
    out.report.set("host.cal_us.p50", "us", p50);
    out.report.set("host.cal_spread_pct", "%", spread);
  }
}

void add_unmeasured(const std::vector<std::pair<std::string, std::string>>& names_units,
                    const std::string& reason, RunResult& out) {
  std::string line = "unmeasured:";
  for (const auto& [name, unit] : names_units) {
    out.report.set(name, unit, 0.0);
    line += " " + name;
  }
  out.info.push_back(line + " (" + reason + ")");
}

}  // namespace replaybench
