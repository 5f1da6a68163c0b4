// §V-F time-window study: the paper's proposed fourth indicator.
//
// "Monitoring any time window presents an evasion opportunity to
// ransomware as it can change its rate of attack to overcome the window.
// However, research into time window parameterization may lead to
// another primary indicator in future versions of CryptoDrop."
//
// This bench parameterizes exactly that: a sweep over window length and
// burst threshold, measuring (a) how much faster a bulk encryptor is
// stopped, (b) whether the paced benign suite stays clean, and (c) what
// a rate-limited attacker gives up by slowing down.
#include "bench_common.hpp"

#include "common/stats.hpp"

using namespace cryptodrop;

namespace {

sim::SampleSpec bulk_sample(std::uint64_t seed) {
  sim::SampleSpec spec;
  spec.family = "CTB-Locker";
  spec.behavior = sim::BehaviorClass::B;
  spec.profile = sim::family_profile("CTB-Locker", sim::BehaviorClass::B);
  spec.seed = seed;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const auto scale = benchutil::parse_scale(argc, argv);
  const harness::Environment env = benchutil::build_environment(scale);

  // --- (a) parameter sweep vs a bulk encryptor -------------------------
  std::printf("== time-window parameterization (CTB-Locker, median of 5 seeds) ==\n\n");
  harness::TextTable sweep({"Window", "Min files", "Median files lost",
                            "vs stock"});
  std::vector<double> stock_losses;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    stock_losses.push_back(static_cast<double>(
        harness::run_trial(env, bulk_sample(seed), core::ScoringConfig{})
            .files_lost));
  }
  const double stock_median = median(stock_losses);
  sweep.add_row({"(disabled)", "-", harness::fmt_double(stock_median, 1), "-"});

  for (std::uint64_t window_s : {5, 10, 30}) {
    for (std::size_t min_files : {10, 20, 40}) {
      core::ScoringConfig config;
      config.enable_rate_indicator = true;
      config.rate_window_micros = window_s * 1'000'000;
      config.rate_min_files = min_files;
      std::vector<double> losses;
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        losses.push_back(static_cast<double>(
            harness::run_trial(env, bulk_sample(seed), config).files_lost));
      }
      const double med = median(losses);
      sweep.add_row({std::to_string(window_s) + " s", std::to_string(min_files),
                     harness::fmt_double(med, 1),
                     harness::fmt_percent(med / stock_median, 0)});
    }
  }
  std::printf("%s\n", sweep.to_string().c_str());

  // --- (b) the paced benign suite must stay clean ------------------------
  core::ScoringConfig strict;
  strict.enable_rate_indicator = true;
  strict.rate_window_micros = 10'000'000;
  strict.rate_min_files = 10;
  std::size_t extra_fps = 0;
  std::string flagged;
  std::size_t rate_event_apps = 0;
  for (const sim::BenignWorkload& workload : sim::all_benign_workloads()) {
    std::fprintf(stderr, "[bench] benign vs rate indicator: %s\n", workload.name.c_str());
    const auto r = harness::run_trial(env, workload, strict, 33);
    if (r.detected && !r.expected_false_positive) {
      ++extra_fps;
      flagged += r.app + "; ";
    }
    if (r.report.rate_events > 0) ++rate_event_apps;
  }
  std::printf("benign suite at window=10s/min=10: additional FPs beyond 7-zip: %zu (%s)\n"
              "apps with any rate events: %zu of 30.\n"
              "Human-paced apps stay under the window; bulk batch tools (mogrify over\n"
              "a thousand images) do not — the false-positive cost the paper predicted\n"
              "when it deferred this indicator to future work.\n\n",
              extra_fps, flagged.empty() ? "none" : flagged.c_str(), rate_event_apps);

  // --- (c) the slow-attacker evasion and its cost ------------------------
  std::printf("== slow-attacker evasion (CTB-Locker-style, rate indicator on) ==\n\n");
  harness::TextTable slow({"Attack pace", "Rate events", "Detected",
                           "Files lost", "Time to stop (virtual)"});
  for (std::uint64_t pause_ms : {0, 500, 3000, 10000}) {
    sim::SampleSpec spec = bulk_sample(99);
    spec.profile.evasion.think_micros_per_file = pause_ms * 1000;

    // Run on a clone so we can read the clock afterwards.
    vfs::FileSystem fs = env.base_fs.clone();
    core::AnalysisEngine engine(strict);
    fs.attach_filter(&engine);
    const vfs::ProcessId pid = fs.register_process("evader");
    sim::RansomwareSample sample(spec.profile, spec.seed);
    const sim::SampleRun run = sample.run(fs, pid, env.corpus.root);
    const auto report = engine.process_report(pid);
    const std::size_t lost = corpus::count_files_lost(fs, env.corpus);
    const double seconds = static_cast<double>(fs.now_micros()) / 1e6;
    slow.add_row({pause_ms == 0 ? "flat out" : std::to_string(pause_ms) + " ms/file",
                  std::to_string(report.rate_events),
                  report.suspended ? "yes" : (run.ran_to_completion ? "NO" : "partial"),
                  std::to_string(lost),
                  harness::fmt_double(seconds, 1) + " s"});
    fs.detach_filter(&engine);
  }
  std::printf("%s\n", slow.to_string().c_str());
  std::printf("reading: slowing down silences the rate indicator but the primary\n"
              "indicators still stop the sample — the attacker only stretched its own\n"
              "timeline (every second of delay is a second for the user to notice).\n");
  return 0;
}
