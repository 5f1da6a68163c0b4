// Robustness study: detector performance under an increasingly hostile
// substrate. Sweeps FaultPlan::uniform rates over the Table-I campaign
// and the benign suite, reporting TPR, median files lost, benign false
// positives and the injected-fault mix per rate. The paper's kernel
// driver lives below exactly this kind of noise (sharing violations,
// short writes, racing filters); the detector's numbers should bend,
// not break.
#include "bench_common.hpp"

#include "common/stats.hpp"
#include "sim/benign/benign.hpp"

using namespace cryptodrop;

namespace {

constexpr double kRates[] = {0.0, 0.05, 0.10, 0.20};
constexpr std::uint64_t kFaultSeed = 2016;

std::uint64_t faults_of(const obs::MetricsSnapshot& snap, const char* suffix) {
  const obs::CounterSnapshot* c =
      snap.counter(std::string("faults_injected_total.") + suffix);
  return c == nullptr ? 0 : c->value;
}

}  // namespace

int main(int argc, char** argv) {
  const auto scale = benchutil::parse_scale(argc, argv);
  const harness::Environment env = benchutil::build_environment(scale);
  const auto specs = benchutil::campaign_specs(scale);
  const auto workloads = sim::all_benign_workloads();
  const core::ScoringConfig config;

  harness::TextTable table({"Fault rate", "TPR", "Gave up", "Median FL",
                            "Benign FP", "io_error", "denied", "short",
                            "delayed"});
  for (const double rate : kRates) {
    harness::TrialOptions options = benchutil::runner_options(scale);
    options.faults = vfs::FaultPlan::uniform(rate, kFaultSeed);

    std::fprintf(stderr, "[bench] fault rate %s: %zu samples + %zu benign...\n",
                 harness::fmt_percent(rate, 0).c_str(), specs.size(),
                 workloads.size());
    // rate 0 exercises the same chaos code path, just with no faults —
    // its row doubles as the fault-free baseline.
    const auto results = harness::run_campaign(env, specs, config, options);
    const auto benign = harness::run_campaign(env, workloads, config, 9, options);
    benchutil::maybe_write_metrics(scale, results);
    benchutil::maybe_write_trace(scale, results);

    std::size_t detected = 0;
    std::size_t gave_up = 0;  // undetected, but halted by substrate faults
    for (const auto& r : results) {
      detected += r.detected ? 1 : 0;
      gave_up += (!r.detected && !r.sample.ran_to_completion) ? 1 : 0;
    }
    std::size_t false_positives = 0;
    for (const auto& b : benign) {
      false_positives += (b.detected && !b.expected_false_positive) ? 1 : 0;
    }
    obs::MetricsSnapshot merged = harness::merged_metrics(results);
    merged.merge(harness::merged_metrics(benign));

    table.add_row(
        {harness::fmt_percent(rate, 0),
         harness::fmt_percent(static_cast<double>(detected) /
                              static_cast<double>(results.size())),
         std::to_string(gave_up),
         harness::fmt_double(median(files_lost_values(results)), 1),
         std::to_string(false_positives),
         std::to_string(faults_of(merged, "io_error")),
         std::to_string(faults_of(merged, "access_denied")),
         std::to_string(faults_of(merged, "short_write")),
         std::to_string(faults_of(merged, "delay_post"))});
  }

  std::printf("== Detection under injected faults (chaos sweep) ==\n\n");
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nTPR should hold at (or within one sample of) 100%% through the 10%%\n"
      "rate; any misses should sit in the Gave-up column — samples the faulted\n"
      "substrate halted before they did enough damage to be scored. Denials\n"
      "run at a quarter of the listed rate (see FaultPlan::uniform).\n"
      "Deterministic in (corpus seed, campaign seed, fault seed) at any\n"
      "--jobs count.\n");
  return 0;
}
