#include "calibrate.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace replaybench {
namespace {

constexpr std::size_t kBytes = 256 * 1024;
constexpr std::size_t kWords = kBytes / sizeof(std::uint64_t);

alignas(64) std::uint64_t g_source[kWords];
alignas(64) std::uint64_t g_copy[kWords];
std::uint32_t g_histogram[256];
// Folded into every run so the compiler cannot drop the work.
volatile std::uint32_t g_sink = 0;

void fill_source() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < kWords; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    g_source[i] = x;
  }
}

void run_kernel() {
  for (std::size_t i = 0; i < kWords; ++i) g_copy[i] = g_source[i] + i;
  for (std::uint32_t& bin : g_histogram) bin = 0;
  const auto* bytes = reinterpret_cast<const unsigned char*>(g_copy);
  for (std::size_t i = 0; i < kBytes; ++i) ++g_histogram[bytes[i]];
  std::uint32_t folded = 0;
  for (std::uint32_t bin : g_histogram) folded = folded * 31u + bin;
  g_sink = g_sink + folded;
}

}  // namespace

double calibration_kernel_ns() {
  static const bool filled = (fill_source(), true);
  (void)filled;
  run_kernel();
  const auto start = std::chrono::steady_clock::now();
  run_kernel();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count();
}

}  // namespace replaybench
