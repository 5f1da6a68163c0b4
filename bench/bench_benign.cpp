// §V-F reproduction: the thirty-application benign suite.
//
// Paper reference: exactly one false positive (7-zip, archiving the
// documents tree — "normal, expected, desirable"), and no benign
// application exhibits all three primary indicators (no union).
#include "bench_common.hpp"

using namespace cryptodrop;

int main(int argc, char** argv) {
  const auto scale = benchutil::parse_scale(argc, argv);
  const harness::Environment env = benchutil::build_environment(scale);

  std::printf("== §V-F: thirty benign applications at threshold %d ==\n\n",
              core::ScoringConfig{}.score_threshold);
  harness::TextTable table({"Application", "Score", "Entropy", "Type", "Sim",
                            "Del", "Funnel", "Union", "Detected"});
  std::size_t false_positives = 0;
  std::size_t union_count = 0;
  const auto results = harness::run_campaign(env, sim::all_benign_workloads(),
                                             core::ScoringConfig{}, 9,
                                             benchutil::runner_options(scale));
  for (const harness::BenignRunResult& r : results) {
    if (r.detected) ++false_positives;
    if (r.union_triggered) ++union_count;
    table.add_row({r.app, std::to_string(r.final_score),
                   std::to_string(r.report.entropy_events),
                   std::to_string(r.report.type_change_events),
                   std::to_string(r.report.similarity_drop_events),
                   std::to_string(r.report.deletion_events),
                   std::to_string(r.report.funneling_events),
                   r.union_triggered ? "YES" : "no",
                   r.detected ? (r.expected_false_positive ? "yes (expected)" : "YES")
                              : "no"});
  }
  benchutil::maybe_write_metrics(scale, results);
  benchutil::maybe_write_trace(scale, results);
  std::printf("%s\n", table.to_string().c_str());
  std::printf("false positives: %zu   [paper: 1 (7-zip)]\n", false_positives);
  std::printf("benign apps triggering union: %zu   [paper: 0]\n", union_count);
  return (false_positives == 1 && union_count == 0) ? 0 : 1;
}
