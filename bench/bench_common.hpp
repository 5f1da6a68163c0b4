// Shared plumbing for the bench binaries: standard environment, the
// Table-I campaign, and scale controls.
//
// Every bench accepts:
//   argv[1] — corpus file count   (default 5099, the paper's corpus)
//   argv[2] — max samples to run  (default 492, the full Table-I set;
//             subsampling keeps per-family proportions)
//   --jobs N — worker threads for the trial pool (default: one per
//             hardware thread; also CRYPTODROP_JOBS=N). Results are
//             bit-identical at any job count.
//   --metrics-out FILE — write the campaign's instrumentation sidecar
//             (merged engine metrics + per-run forensic timelines, see
//             docs/OBSERVABILITY.md) as JSON; also
//             CRYPTODROP_METRICS_OUT=FILE. Benches that run several
//             campaigns number the second and later files FILE.2, ...
//   --trace-out FILE — enable span tracing and write each campaign's
//             merged Chrome trace-event JSON (Perfetto-loadable; feed to
//             `cryptodrop trace-report`); also CRYPTODROP_TRACE_OUT=FILE,
//             numbered FILE.2, ... like the metrics sidecar.
//   --trace-sample N — keep 1-in-N operations (default 16 for benches:
//             full traces of a 492-sample campaign are huge); also
//             CRYPTODROP_TRACE_SAMPLE=N.
// or the environment variable CRYPTODROP_FAST=1 for a quick smoke run.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"

namespace cryptodrop::benchutil {

struct BenchScale {
  std::size_t corpus_files = 5099;
  std::size_t corpus_dirs = 511;
  std::size_t max_samples = 492;
  std::uint64_t corpus_seed = 20160627;  // ICDCS 2016 week
  std::uint64_t campaign_seed = 1;
  std::size_t jobs = 0;  // 0 → one worker per hardware thread
  std::string metrics_out;  // empty → no instrumentation sidecar
  std::string trace_out;    // empty → no span tracing
  std::size_t trace_sample = 16;  // bench default: sampled tracing
};

inline BenchScale parse_scale(int argc, char** argv) {
  BenchScale scale;
  if (std::getenv("CRYPTODROP_FAST") != nullptr) {
    scale.corpus_files = 800;
    scale.corpus_dirs = 80;
    scale.max_samples = 60;
  }
  if (const char* jobs_env = std::getenv("CRYPTODROP_JOBS")) {
    scale.jobs = std::strtoul(jobs_env, nullptr, 10);
  }
  if (const char* metrics_env = std::getenv("CRYPTODROP_METRICS_OUT")) {
    scale.metrics_out = metrics_env;
  }
  if (const char* trace_env = std::getenv("CRYPTODROP_TRACE_OUT")) {
    scale.trace_out = trace_env;
  }
  if (const char* sample_env = std::getenv("CRYPTODROP_TRACE_SAMPLE")) {
    scale.trace_sample = std::strtoul(sample_env, nullptr, 10);
  }
  std::size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      scale.jobs = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      scale.metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      scale.trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-sample") == 0 && i + 1 < argc) {
      scale.trace_sample = std::strtoul(argv[++i], nullptr, 10);
    } else if (positional == 0) {
      scale.corpus_files = std::strtoul(argv[i], nullptr, 10);
      ++positional;
    } else if (positional == 1) {
      scale.max_samples = std::strtoul(argv[i], nullptr, 10);
      ++positional;
    }
  }
  if (scale.corpus_files != 5099) {
    scale.corpus_dirs = std::max<std::size_t>(scale.corpus_files / 10, 16);
  }
  return scale;
}

/// Trial options from the scale flags: --jobs, a progress line every 100
/// trials, and span tracing on exactly when --trace-out named a
/// destination.
inline harness::TrialOptions runner_options(const BenchScale& scale) {
  harness::TrialOptions options;
  options.jobs = scale.jobs;
  options.trace.enabled = !scale.trace_out.empty();
  options.trace.sample_every = std::max<std::size_t>(scale.trace_sample, 1);
  options.progress = [](std::size_t done, std::size_t total) {
    if (done % 100 == 0 || done == total) {
      std::fprintf(stderr, "[bench]   %zu/%zu\n", done, total);
    }
  };
  return options;
}

inline harness::Environment build_environment(const BenchScale& scale) {
  corpus::CorpusSpec spec;
  spec.total_files = scale.corpus_files;
  spec.total_dirs = scale.corpus_dirs;
  spec.compute_hashes = false;  // loss accounting uses COW identity
  std::fprintf(stderr, "[bench] building corpus: %zu files, %zu dirs...\n",
               spec.total_files, spec.total_dirs);
  return harness::make_environment(spec, scale.corpus_seed);
}

/// The Table-I sample set, subsampled evenly (preserving family order and
/// therefore per-family proportions) when max_samples < 492.
inline std::vector<sim::SampleSpec> campaign_specs(const BenchScale& scale) {
  std::vector<sim::SampleSpec> all = sim::table1_samples(scale.campaign_seed);
  if (scale.max_samples >= all.size()) return all;
  std::vector<sim::SampleSpec> picked;
  picked.reserve(scale.max_samples);
  const double stride = static_cast<double>(all.size()) /
                        static_cast<double>(scale.max_samples);
  for (std::size_t i = 0; i < scale.max_samples; ++i) {
    picked.push_back(all[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
  }
  return picked;
}

/// Writes one campaign's instrumentation sidecar when --metrics-out was
/// given. A bench running several campaigns gets one file per call: the
/// second and later writes go to FILE.2, FILE.3, ...
template <typename Result>
void maybe_write_metrics(const BenchScale& scale,
                         const std::vector<Result>& results) {
  if (scale.metrics_out.empty()) return;
  static std::size_t campaign_index = 0;
  std::string path = scale.metrics_out;
  if (++campaign_index > 1) {
    path += '.';
    path += std::to_string(campaign_index);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write metrics file %s\n", path.c_str());
    return;
  }
  const std::string text =
      harness::metrics_report(results).to_pretty_string();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] metrics written to %s\n", path.c_str());
}

/// Writes one campaign's span-trace sidecar when --trace-out was given,
/// numbered FILE.2, FILE.3, ... like the metrics sidecar.
template <typename Result>
void maybe_write_trace(const BenchScale& scale,
                       const std::vector<Result>& results) {
  if (scale.trace_out.empty()) return;
  static std::size_t campaign_index = 0;
  std::string path = scale.trace_out;
  if (++campaign_index > 1) {
    path += '.';
    path += std::to_string(campaign_index);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write trace file %s\n", path.c_str());
    return;
  }
  const std::string text = harness::trace_report(results).to_pretty_string();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] trace written to %s\n", path.c_str());
}

inline std::vector<harness::RansomwareRunResult> run_standard_campaign(
    const harness::Environment& env, const BenchScale& scale,
    const core::ScoringConfig& config = {}) {
  const auto specs = campaign_specs(scale);
  std::fprintf(stderr, "[bench] running %zu samples on %zu workers...\n",
               specs.size(), harness::effective_jobs(scale.jobs));
  auto results =
      harness::run_campaign(env, specs, config, runner_options(scale));
  maybe_write_metrics(scale, results);
  maybe_write_trace(scale, results);
  return results;
}

}  // namespace cryptodrop::benchutil
