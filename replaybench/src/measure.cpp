#include "measure.hpp"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "calibrate.hpp"

namespace replaybench {

Percentile percentile(std::vector<double> values, double q) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double exact = q * static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double normalised(double raw, double ref_cal, double local_cal, double tracking_share) {
  if (local_cal <= 0.0) return raw;
  return raw * (tracking_share * ref_cal / local_cal + (1.0 - tracking_share));
}

void HostCalibration::calibrate() {
  samples_.push_back(calibration_kernel_ns());
  const std::size_t n = std::min(kWindow, samples_.size());
  std::vector<double> recent(samples_.end() - static_cast<std::ptrdiff_t>(n),
                             samples_.end());
  local_ns_ = median(std::move(recent));
}

void NormalisedTimer::start(double factor) {
  if (running_) stop();
  factor_ = factor;
  since_ = Clock::now();
  running_ = true;
}

void NormalisedTimer::stop() {
  if (!running_) return;
  const double seg = seconds_between(since_, Clock::now());
  raw_s_ += seg;
  norm_s_ += seg * factor_;
  running_ = false;
}

Resident read_resident() {
  Resident out;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    double* slot = nullptr;
    if (line.rfind("VmRSS:", 0) == 0) slot = &out.rss_mib;
    if (line.rfind("VmHWM:", 0) == 0) slot = &out.peak_mib;
    if (slot == nullptr) continue;
    *slot = std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  return out;
}

bool reset_peak_resident() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

void Report::set(const std::string& name, const std::string& unit, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.unit = unit;
      m.value = value;
      return;
    }
  }
  metrics_.push_back({name, unit, value});
}

std::string number_text(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Report::result_line(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " +
           number_text(metrics_[i].value) + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace replaybench
