#include "common/kernels.hpp"

#include <atomic>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define CRYPTODROP_POPCNT_BUILD 1
#endif

namespace cryptodrop::kernels {

void byte_histogram_reference(const std::uint8_t* data, std::size_t n,
                              std::uint64_t counts[256]) {
  for (std::size_t i = 0; i < n; ++i) ++counts[data[i]];
}

// cryptodrop:hot
void byte_histogram(const std::uint8_t* data, std::size_t n,
                    std::uint64_t counts[256]) {
  // Four sub-tables: a run of equal bytes otherwise chains
  // load-increment-store on the same slot every iteration, and the store
  // forwarding stall dominates. Rotating across tables keeps at most one
  // touch per slot per 4 increments in flight.
  std::uint64_t t0[256] = {};
  std::uint64_t t1[256] = {};
  std::uint64_t t2[256] = {};
  std::uint64_t t3[256] = {};
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    std::uint64_t w0;
    std::uint64_t w1;
    std::memcpy(&w0, data + i, 8);
    std::memcpy(&w1, data + i + 8, 8);
    ++t0[w0 & 0xff];
    ++t1[(w0 >> 8) & 0xff];
    ++t2[(w0 >> 16) & 0xff];
    ++t3[(w0 >> 24) & 0xff];
    ++t0[(w0 >> 32) & 0xff];
    ++t1[(w0 >> 40) & 0xff];
    ++t2[(w0 >> 48) & 0xff];
    ++t3[w0 >> 56];
    ++t0[w1 & 0xff];
    ++t1[(w1 >> 8) & 0xff];
    ++t2[(w1 >> 16) & 0xff];
    ++t3[(w1 >> 24) & 0xff];
    ++t0[(w1 >> 32) & 0xff];
    ++t1[(w1 >> 40) & 0xff];
    ++t2[(w1 >> 48) & 0xff];
    ++t3[w1 >> 56];
  }
  for (; i < n; ++i) ++t0[data[i]];
  for (std::size_t b = 0; b < 256; ++b) {
    counts[b] += t0[b] + t1[b] + t2[b] + t3[b];
  }
}

// cryptodrop:hot
std::uint64_t fnv1a64(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

// cryptodrop:hot
void fnv1a64_x4(const std::uint8_t* p0, const std::uint8_t* p1,
                const std::uint8_t* p2, const std::uint8_t* p3,
                std::size_t n, std::uint64_t out[4]) {
  std::uint64_t h0 = 0xcbf29ce484222325ULL;
  std::uint64_t h1 = h0;
  std::uint64_t h2 = h0;
  std::uint64_t h3 = h0;
  for (std::size_t i = 0; i < n; ++i) {
    h0 = (h0 ^ p0[i]) * 0x100000001b3ULL;
    h1 = (h1 ^ p1[i]) * 0x100000001b3ULL;
    h2 = (h2 ^ p2[i]) * 0x100000001b3ULL;
    h3 = (h3 ^ p3[i]) * 0x100000001b3ULL;
  }
  out[0] = h0;
  out[1] = h1;
  out[2] = h2;
  out[3] = h3;
}

int distinct_count_reference(const std::uint8_t* p, std::size_t n) {
  std::uint64_t seen[4] = {};
  int distinct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t b = p[i];
    std::uint64_t& word = seen[b >> 6];
    const std::uint64_t bit = 1ULL << (b & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++distinct;
    }
  }
  return distinct;
}

// cryptodrop:hot
bool has_min_distinct(const std::uint8_t* p, std::size_t n, int threshold) {
  if (threshold <= 0) return true;
  std::uint64_t seen[4] = {};
  int distinct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t b = p[i];
    std::uint64_t& word = seen[b >> 6];
    const std::uint64_t bit = 1ULL << (b & 63);
    if ((word & bit) == 0) {
      word |= bit;
      if (++distinct >= threshold) return true;
    }
  }
  return false;
}

std::uint32_t and_popcount_reference(const std::uint64_t* a,
                                     const std::uint64_t* b,
                                     std::size_t words) {
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<std::uint32_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

namespace {

// Four-way unroll: independent partial sums keep the popcount units
// busy. Always inlined, so each caller below compiles it for its own
// target: without POPCNT in the target, each std::popcount is a libgcc
// call (x86-64's baseline ISA lacks the instruction).
[[gnu::always_inline]] inline std::uint32_t and_popcount_unrolled(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  std::uint32_t c0 = 0;
  std::uint32_t c1 = 0;
  std::uint32_t c2 = 0;
  std::uint32_t c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    c0 += static_cast<std::uint32_t>(std::popcount(a[i] & b[i]));
    c1 += static_cast<std::uint32_t>(std::popcount(a[i + 1] & b[i + 1]));
    c2 += static_cast<std::uint32_t>(std::popcount(a[i + 2] & b[i + 2]));
    c3 += static_cast<std::uint32_t>(std::popcount(a[i + 3] & b[i + 3]));
  }
  std::uint32_t total = c0 + c1 + c2 + c3;
  for (; i < words; ++i) {
    total += static_cast<std::uint32_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

#ifdef CRYPTODROP_POPCNT_BUILD

[[gnu::target("popcnt")]] std::uint32_t and_popcount_popcnt(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  return and_popcount_unrolled(a, b, words);
}

bool popcnt_supported() { return __builtin_cpu_supports("popcnt"); }

#else

bool popcnt_supported() { return false; }

#endif  // CRYPTODROP_POPCNT_BUILD

std::atomic<bool> g_force_portable{false};

bool use_popcnt() {
  static const bool supported = popcnt_supported();
  return supported && !g_force_portable.load(std::memory_order_relaxed);
}

}  // namespace

// cryptodrop:hot
std::uint32_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words) {
#ifdef CRYPTODROP_POPCNT_BUILD
  if (use_popcnt()) return and_popcount_popcnt(a, b, words);
#endif
  return and_popcount_unrolled(a, b, words);
}

std::string_view simd_backend_name() {
  return use_popcnt() ? "popcnt" : "portable";
}

bool force_portable(bool force) {
  return g_force_portable.exchange(force, std::memory_order_relaxed);
}

void serial_lag1_sums_reference(const std::uint8_t* p, std::size_t n,
                                std::uint64_t& sum_b, std::uint64_t& sum_b2,
                                std::uint64_t& sum_prod) {
  std::uint64_t sb = 0;
  std::uint64_t sb2 = 0;
  std::uint64_t sp = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t b = p[i];
    sb += b;
    sb2 += b * b;
    if (i + 1 < n) sp += b * p[i + 1];
  }
  sum_b = sb;
  sum_b2 = sb2;
  sum_prod = sp;
}

// cryptodrop:hot
void serial_lag1_sums(const std::uint8_t* p, std::size_t n,
                      std::uint64_t& sum_b, std::uint64_t& sum_b2,
                      std::uint64_t& sum_prod) {
  std::uint64_t sb0 = 0;
  std::uint64_t sb1 = 0;
  std::uint64_t q0 = 0;
  std::uint64_t q1 = 0;
  std::uint64_t sp0 = 0;
  std::uint64_t sp1 = 0;
  std::size_t i = 0;
  if (n >= 1) {
    // Pairs (i, i+1) exist only up to n-2; unroll over the pair index.
    const std::size_t pairs = n - 1;
    for (; i + 2 <= pairs; i += 2) {
      const std::uint64_t a = p[i];
      const std::uint64_t b = p[i + 1];
      const std::uint64_t c = p[i + 2];
      sb0 += a;
      sb1 += b;
      q0 += a * a;
      q1 += b * b;
      sp0 += a * b;
      sp1 += b * c;
    }
    for (; i < pairs; ++i) {
      const std::uint64_t a = p[i];
      sb0 += a;
      q0 += a * a;
      sp0 += a * p[i + 1];
    }
    const std::uint64_t last = p[n - 1];
    sb0 += last;
    q0 += last * last;
  }
  sum_b = sb0 + sb1;
  sum_b2 = q0 + q1;
  sum_prod = sp0 + sp1;
}

}  // namespace cryptodrop::kernels
