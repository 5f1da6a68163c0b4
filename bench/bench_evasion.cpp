// Indicator-evasion study (paper §III-F).
//
// The paper argues that evading the union of the three primary
// indicators "requires significant effort" and "very difficult
// engineering trade-offs". This bench makes the argument quantitative:
// each evasion technique is a TeslaCrypt-style Class A attacker with one
// (or several) §III-F countermeasures, and the columns show what the
// stealth actually buys — against how much of the victim's data the
// attacker can still deny.
//
// Also covers the process-splitting evasion and the engine's answer to
// it, family-level scoring ("suspends the suspicious process (or family
// of processes)").
#include "bench_common.hpp"

using namespace cryptodrop;

namespace {

struct EvasionRow {
  std::string name;
  harness::RansomwareRunResult result;
};

sim::SampleSpec base_sample(std::uint64_t seed) {
  sim::SampleSpec spec;
  spec.family = "Evader";
  spec.behavior = sim::BehaviorClass::A;
  spec.profile = sim::family_profile("TeslaCrypt", sim::BehaviorClass::A);
  spec.profile.family = "Evader";
  spec.profile.target_extensions.clear();  // attack everything
  spec.seed = seed;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  auto scale = benchutil::parse_scale(argc, argv);
  const harness::Environment env = benchutil::build_environment(scale);

  struct Config {
    const char* name;
    std::function<void(sim::RansomwareProfile&)> apply;
  };
  const std::vector<Config> configs = {
      {"baseline (no evasion)", [](sim::RansomwareProfile&) {}},
      {"preserve 4K header", [](sim::RansomwareProfile& p) {
         p.evasion.preserve_header_bytes = 4096;
       }},
      {"preserve 16K header", [](sim::RansomwareProfile& p) {
         p.evasion.preserve_header_bytes = 16 * 1024;
       }},
      {"partial encrypt (keep 25%)", [](sim::RansomwareProfile& p) {
         p.evasion.preserve_fraction = 0.25;
       }},
      {"partial encrypt (keep 60%)", [](sim::RansomwareProfile& p) {
         p.evasion.preserve_fraction = 0.60;
       }},
      {"low-entropy pad 64K/file", [](sim::RansomwareProfile& p) {
         p.evasion.pad_low_entropy_bytes = 64 * 1024;
       }},
      {"2 decoy writes/file", [](sim::RansomwareProfile& p) {
         p.evasion.decoy_writes_per_file = 2;
         p.evasion.decoy_bytes = 128 * 1024;
       }},
      {"header+pad+decoys", [](sim::RansomwareProfile& p) {
         p.evasion.preserve_header_bytes = 16 * 1024;
         p.evasion.pad_low_entropy_bytes = 64 * 1024;
         p.evasion.decoy_writes_per_file = 2;
         p.evasion.decoy_bytes = 128 * 1024;
       }},
      {"kitchen sink (+keep 50%)", [](sim::RansomwareProfile& p) {
         p.evasion.preserve_header_bytes = 16 * 1024;
         p.evasion.preserve_fraction = 0.5;
         p.evasion.pad_low_entropy_bytes = 64 * 1024;
         p.evasion.decoy_writes_per_file = 2;
         p.evasion.decoy_bytes = 128 * 1024;
       }},
  };

  std::printf("== §III-F: indicator evasion vs what the attacker gets ==\n\n");
  harness::TextTable table({"Technique", "Detected", "Files lost",
                            "Files attacked", "Data destroyed", "Entropy",
                            "Type", "Sim", "Union"});
  for (const Config& config : configs) {
    std::fprintf(stderr, "[bench] evasion: %s\n", config.name);
    sim::SampleSpec spec = base_sample(1337);
    config.apply(spec.profile);
    const auto r = harness::run_trial(env, spec, core::ScoringConfig{});
    const double destroyed =
        r.sample.bytes_touched == 0
            ? 0.0
            : static_cast<double>(r.sample.bytes_destroyed) /
                  static_cast<double>(r.sample.bytes_touched);
    table.add_row({config.name, r.detected ? "yes" : "NO",
                   std::to_string(r.files_lost),
                   std::to_string(r.sample.files_attacked),
                   harness::fmt_percent(destroyed, 1),
                   std::to_string(r.report.entropy_events),
                   std::to_string(r.report.type_change_events),
                   std::to_string(r.report.similarity_drop_events),
                   r.union_triggered ? "yes" : "no"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("reading: stealth is bought with recoverable data — the paper's\n"
              "\"difficult engineering trade-offs\" (a 'NO' row only matters if\n"
              "'Data destroyed' stays near 100%%).\n\n");

  // --- process-splitting evasion vs family scoring -----------------------
  std::printf("== process-splitting evasion vs family-level scoring ==\n\n");
  harness::TextTable split({"Workers", "Family scoring", "Detected",
                            "Files lost"});
  for (std::size_t workers : {std::size_t{0}, std::size_t{4}, std::size_t{16}}) {
    for (bool family : {true, false}) {
      sim::SampleSpec spec = base_sample(4242);
      spec.profile.worker_processes = workers;
      core::ScoringConfig config;
      config.enable_family_scoring = family;
      const auto r = harness::run_trial(env, spec, config);
      split.add_row({std::to_string(workers), family ? "on" : "OFF",
                     r.detected ? "yes" : "NO", std::to_string(r.files_lost)});
    }
  }
  std::printf("%s\n", split.to_string().c_str());
  std::printf("expected: with family scoring, worker count is irrelevant; without\n"
              "it, every extra worker multiplies the files lost before all pids\n"
              "are individually flagged.\n");
  return 0;
}
