// Hot-path kernels shared by the indicator pipeline: byte
// histogramming (shannon / chi-square / DAA), FNV-1a feature hashing in
// ILP lanes (simhash), distinct-byte screening (simhash feature
// selection), lag-1 byte products (serial-correlation backend), and
// AND+popcount over bloom-filter words (simhash compare).
//
// Contract: every kernel is **bit-identical** to its `_reference`
// counterpart on all inputs. That is cheap to guarantee because every
// kernel stays in the integer domain — reordering integer additions is
// exact, unlike floating point. The golden-parity suite
// (tests/kernel_parity_test.cpp) asserts it across randomized buffers of
// every length mod 64, so a future variant cannot silently drift.
//
// The implementations are portable C++: SWAR (64-bit loads, sub-table
// splitting) and 4-way unrolled accumulator chains, the same code on
// every target. The one kernel chosen at run time is and_popcount: on
// x86-64 a POPCNT build of it runs when the CPU reports the
// instruction, because the x86-64 baseline ISA has none and each
// std::popcount there is a libgcc call. Byte histogramming has no
// vector form (the scatter-increment), and splitting the counts across
// four sub-tables to break store-forwarding stalls is the known-best
// shape (cf. "Comparison of Entropy Calculation Methods", arXiv
// 2210.13376, on histogram cost dominating entropy methods).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cryptodrop::kernels {

/// Scalar reference: one increment per byte. Adds into `counts` (callers
/// zero it or accumulate across chunks).
void byte_histogram_reference(const std::uint8_t* data, std::size_t n,
                              std::uint64_t counts[256]);

/// SWAR histogram: 8 bytes per 64-bit load, increments spread over four
/// sub-tables so consecutive equal bytes do not serialize on one cache
/// line, merged once at the end. Adds into `counts`.
void byte_histogram(const std::uint8_t* data, std::size_t n,
                    std::uint64_t counts[256]);

/// FNV-1a 64-bit over one buffer (reference form for the lane kernel).
std::uint64_t fnv1a64(const std::uint8_t* p, std::size_t n);

/// Four independent FNV-1a chains advanced in lockstep. The hash itself
/// is inherently serial (multiply feeds the next xor), so the win is
/// instruction-level parallelism: four chains hide the multiply latency
/// that a single chain exposes. Each out[i] equals fnv1a64(p_i, n).
void fnv1a64_x4(const std::uint8_t* p0, const std::uint8_t* p1,
                const std::uint8_t* p2, const std::uint8_t* p3,
                std::size_t n, std::uint64_t out[4]);

/// Scalar reference: exact number of distinct byte values in `p[0..n)`.
int distinct_count_reference(const std::uint8_t* p, std::size_t n);

/// True iff `p[0..n)` contains at least `threshold` distinct byte
/// values. Early-exits on the first byte that reaches the threshold, so
/// the common selectable window answers in a handful of iterations.
bool has_min_distinct(const std::uint8_t* p, std::size_t n, int threshold);

/// Scalar reference: popcount of `a[i] & b[i]` summed over `words`.
std::uint32_t and_popcount_reference(const std::uint64_t* a,
                                     const std::uint64_t* b,
                                     std::size_t words);

/// AND+popcount over word arrays (bloom-filter overlap), 4-way
/// unrolled. Runs the POPCNT build when the CPU has the instruction
/// (checked once), else the portable one. Bit-identical everywhere:
/// popcount is exact.
std::uint32_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words);

/// Name of the and_popcount variant in use: "popcnt" when the CPU's
/// POPCNT instruction was detected (x86-64 only), else "portable".
/// bench_perf records it as `simd_backend`.
std::string_view simd_backend_name();

/// Test hook: when true, and_popcount takes the portable path even on
/// POPCNT hardware, so the parity tests can run both variants in one
/// process. Returns the previous setting.
bool force_portable(bool force);

/// Scalar reference for the serial-correlation sums: per-byte loop
/// accumulating Σb, Σb², and the non-circular lag-1 product
/// Σ p[i]·p[i+1] for i in [0, n-1). The circular wrap term is the
/// caller's business (it depends on stream boundaries, not this buffer).
void serial_lag1_sums_reference(const std::uint8_t* p, std::size_t n,
                                std::uint64_t& sum_b, std::uint64_t& sum_b2,
                                std::uint64_t& sum_prod);

/// Unrolled integer lag-1 sums: four independent partial accumulators
/// per statistic. Integer addition reorders exactly, so this is
/// bit-identical to the reference (and to the historical double-based
/// accumulation, which never rounds below 2^53 — a one-shot op buffer
/// would need to exceed ~138 GiB to change that).
void serial_lag1_sums(const std::uint8_t* p, std::size_t n,
                      std::uint64_t& sum_b, std::uint64_t& sum_b2,
                      std::uint64_t& sum_prod);

}  // namespace cryptodrop::kernels
