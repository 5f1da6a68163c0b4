// replaybench — the repository's replay benchmark (see ../METHOD.md).
//
//   replaybench --workload NAME --seed N --seconds S --trace 0|1
//               [--work-dir DIR] [--tiny]
//               [--plant-wrong-expectation]
//   replaybench --self-check
//
// Prints the setup/pass/host lines, then one JSON result line; exits 0
// when every correctness check passed, 1 when one failed, 2 on error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace replaybench {

namespace {

/// Unit checks of the measurement helpers on synthetic data.
int self_check() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentile p99 = percentile(v, 0.99), p50 = percentile(v, 0.5);
  expect(p99.value == 990 && p99.beyond == 10 && p99.samples == 1000,
         "p99 of 1..1000 is 990 with 10 samples beyond");
  expect(p50.value == 500 && p50.beyond == 500, "p50 of 1..1000 is 500 with 500 beyond");
  const Percentile p90 = percentile({5, 1, 4, 2, 3, 9, 8, 7, 6, 10}, 0.9);
  expect(p90.value == 9 && p90.beyond == 1, "p90 of 10 shuffled samples is 9, 1 beyond");
  expect(percentile({}, 0.5).samples == 0, "empty input yields an empty percentile");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");
  expect(normalised(200.0, 100.0, 200.0, 1.0) == 100.0,
         "fully tracking: a kernel twice as slow halves the timing");
  expect(normalised(50.0, 100.0, 50.0, 1.0) == 100.0,
         "fully tracking: a kernel twice as fast doubles the timing");
  expect(std::abs(normalised(200.0, 100.0, 200.0, 0.7) - 200.0 * (0.35 + 0.3)) < 1e-9,
         "a 0.7 share: only the tracking part of a timing halves");
  expect(normalised(200.0, 100.0, 400.0, 0.0) == 200.0, "a 0 share leaves timings raw");
  expect(normalised(7.0, 100.0, 100.0, 0.7) == 7.0, "reference speed leaves timings as they are");
  expect(normalised(7.0, 100.0, 0.0, 0.7) == 7.0, "a missing calibration leaves timings as they are");
  NormalisedTimer timer;
  timer.start(2.0);
  timer.stop();
  expect(timer.norm_s() == timer.raw_s() * 2.0, "timer segments scale by their factor");
  expect(number_text(0.1) == "0.1" && number_text(12345.678) == "12345.678",
         "numbers print in shortest round-trip form");
  return failures == 0 ? 0 : 1;
}

std::string arg_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
  return argv[++i];
}

}  // namespace
}  // namespace replaybench

int main(int argc, char** argv) {
  using namespace replaybench;
  RunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--self-check") return self_check();
      if (a == "--workload") options.workload = arg_value(argc, argv, i);
      else if (a == "--seed") options.seed = std::stoull(arg_value(argc, argv, i));
      else if (a == "--seconds") options.seconds = std::stod(arg_value(argc, argv, i));
      else if (a == "--trace") options.trace = arg_value(argc, argv, i) == "1";
      else if (a == "--work-dir") options.work_dir = arg_value(argc, argv, i);
      else if (a == "--tiny") options.tiny = true;
      else if (a == "--plant-wrong-expectation") options.plant_wrong_expectation = true;
      else throw std::invalid_argument("unknown argument " + a);
    }
    options.span_file = options.work_dir + "/spans-" + options.workload + ".json";

    RunResult result;
    if (options.workload == "ransomware_replay") {
      result = run_inprocess(options, TrialSet::table1);
    } else if (options.workload == "benign_replay") {
      result = run_inprocess(options, TrialSet::benign);
    } else if (options.workload == "daemon_socket") {
      result = run_daemon_socket(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "' (ransomware_replay, benign_replay, daemon_socket)");
    }
    std::printf("replaybench workload=%s seed=%llu seconds=%s trace=%d\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                number_text(options.seconds).c_str(), options.trace ? 1 : 0);
    for (const std::string& line : result.info) std::printf("%s\n", line.c_str());
    std::printf("%s\n", result.report.result_line(result.correct, result.attempted,
                                                  result.failed).c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replaybench: %s\n", e.what());
    return 2;
  }
}
