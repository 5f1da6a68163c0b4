// Baseline comparison (paper §II Related Work, §V-E):
//
//   1. Signature AV inspects *programs*: perfect against binaries it has
//      seen, useless against a repacked variant — and a missed sample
//      costs the entire corpus, because nothing watches the data.
//      (§V-E: a one-character change to PoshCoder dropped it from 2 of
//      the 6 AV products that had detected it.)
//   2. Tripwire-style integrity monitoring watches the data but cannot
//      tell legitimate change from malicious change: it "detects"
//      everything, including every benign save ("noisy and frustrate
//      the user").
//   3. CryptoDrop sits between them: data-centric like Tripwire,
//      behavioral enough to leave benign software alone.
#include "bench_common.hpp"

#include "baselines/integrity_monitor.hpp"
#include "baselines/signature_av.hpp"
#include "common/stats.hpp"

using namespace cryptodrop;

int main(int argc, char** argv) {
  auto scale = benchutil::parse_scale(argc, argv);
  if (scale.max_samples > 200) scale.max_samples = 200;  // 3 systems x campaign
  const harness::Environment env = benchutil::build_environment(scale);
  const auto specs = benchutil::campaign_specs(scale);

  // --- 1. signature AV at several database-coverage levels ----------------
  std::printf("== signature AV vs repacked variants ==\n\n");
  harness::TextTable av_table({"Signature coverage", "Samples blocked",
                               "Samples that run", "Mean files lost/sample"});
  // An unopposed sample loses the victim every file its profile targets
  // (computed from the manifest; only read-only originals survive Class A
  // in-place writes and Class C disposal).
  auto unopposed = [&](const sim::SampleSpec& spec) {
    const auto& exts = spec.profile.target_extensions;
    double lost = 0;
    for (const corpus::ManifestEntry& entry : env.corpus.manifest) {
      if (!exts.empty()) {
        const std::string ext = vfs::path_extension(entry.path);
        if (std::find(exts.begin(), exts.end(), ext) == exts.end()) continue;
      }
      const bool survives_read_only =
          entry.read_only && spec.behavior != sim::BehaviorClass::B;
      if (!survives_read_only) lost += 1.0;
    }
    return lost;
  };

  for (double coverage : {0.50, 0.90, 0.99}) {
    baselines::SignatureAv av;
    av.learn_from(specs, coverage, /*seed=*/7);
    std::size_t blocked = 0;
    double total_lost = 0.0;
    for (const sim::SampleSpec& spec : specs) {
      if (av.blocks(spec)) {
        ++blocked;  // pre-execution kill: zero files lost
        continue;
      }
      total_lost += unopposed(spec);  // nothing watches the data
    }
    av_table.add_row({harness::fmt_percent(coverage, 0), std::to_string(blocked),
                      std::to_string(specs.size() - blocked),
                      harness::fmt_double(total_lost / static_cast<double>(specs.size()), 1)});
  }
  std::printf("%s\n", av_table.to_string().c_str());

  // The §V-E morph experiment: 100% coverage, then a 1-character repack.
  baselines::SignatureAv perfect;
  perfect.learn_from(specs, 1.0, 7);
  std::size_t caught_original = 0, caught_morphed = 0;
  for (const sim::SampleSpec& spec : specs) {
    caught_original += perfect.blocks(baselines::sample_fingerprint(spec)) ? 1 : 0;
    caught_morphed += perfect.blocks(baselines::morphed_fingerprint(spec)) ? 1 : 0;
  }
  std::printf("perfect database: %zu/%zu originals blocked; after a one-character\n"
              "morph of each binary: %zu/%zu blocked   [paper §V-E: trivial morphs\n"
              "shed detections]\n\n",
              caught_original, specs.size(), caught_morphed, specs.size());

  // --- 2. Tripwire-style integrity monitor -------------------------------
  std::printf("== Tripwire-style integrity monitor ==\n\n");
  // Hash the pristine corpus once; every monitor instance shares it.
  const auto shared_baseline = baselines::IntegrityMonitor::compute_baseline(
      env.base_fs, env.corpus.root);
  // Malware side: alert-on-first-modification stops samples instantly...
  std::vector<double> tripwire_losses;
  for (std::size_t i = 0; i < std::min<std::size_t>(specs.size(), 40); ++i) {
    vfs::FileSystem fs = env.base_fs.clone();
    baselines::IntegrityMonitor::Options options;
    options.suspend_on_alert = true;
    baselines::IntegrityMonitor monitor(options);
    monitor.set_baseline(shared_baseline);
    fs.attach_filter(&monitor);
    const vfs::ProcessId pid = fs.register_process(specs[i].family);
    sim::RansomwareSample sample(specs[i].profile, specs[i].seed);
    (void)sample.run(fs, pid, env.corpus.root);
    tripwire_losses.push_back(static_cast<double>(corpus::count_files_lost(fs, env.corpus)));
    fs.detach_filter(&monitor);
  }
  std::printf("suspend-on-first-alert vs malware: median files lost %s (CryptoDrop-\n"
              "class protection — change detection is easy)\n",
              harness::fmt_double(median(tripwire_losses), 1).c_str());

  // ...but the benign suite shows why nobody runs it that way:
  std::size_t benign_alerts = 0;
  std::size_t benign_apps_flagged = 0;
  for (const sim::BenignWorkload& workload : sim::all_benign_workloads()) {
    vfs::FileSystem fs = env.base_fs.clone();
    baselines::IntegrityMonitor monitor({});
    monitor.set_baseline(shared_baseline);
    fs.attach_filter(&monitor);
    const vfs::ProcessId pid = fs.register_process(workload.name);
    sim::WorkloadContext ctx{fs, pid, env.corpus.root, Rng(3)};
    workload.run(ctx);
    benign_alerts += monitor.alert_count();
    if (monitor.alert_count() > 0) ++benign_apps_flagged;
    fs.detach_filter(&monitor);
  }
  std::printf("benign suite: %zu alerts across %zu of 30 applications\n"
              "   [CryptoDrop on the same suite: 1 detection (7-zip)]\n\n",
              benign_alerts, benign_apps_flagged);

  // --- 3. CryptoDrop on the identical campaign ---------------------------
  std::printf("== CryptoDrop on the same campaign ==\n\n");
  const auto results = harness::run_campaign(env, specs, core::ScoringConfig{},
                                             benchutil::runner_options(scale));
  std::size_t detected = 0;
  std::vector<double> losses;
  for (const auto& r : results) {
    detected += r.detected ? 1 : 0;
    losses.push_back(static_cast<double>(r.files_lost));
  }
  std::printf("detection: %zu/%zu (%s), median files lost %s, benign FPs: 1\n",
              detected, results.size(),
              harness::fmt_percent(static_cast<double>(detected) /
                                   static_cast<double>(results.size()))
                  .c_str(),
              harness::fmt_double(median(losses), 1).c_str());
  std::printf("\nsummary: signature AV = perfect hindsight, total loss on anything\n"
              "new; Tripwire = perfect change detection, unusable alert volume;\n"
              "CryptoDrop = behavioral data monitoring with both numbers small.\n");
  return 0;
}
