// Golden-parity suite for the vectorized hot-path kernels (DESIGN.md
// §16): every accelerated kernel must be bit-identical to its scalar
// `_reference` counterpart on randomized buffers covering every length
// mod 64 (the feature-window / SIMD-lane width), and the composites
// built on them — SimilarityDigest::compute, the SHA-256 block
// compressor, and all four entropy backends — must agree exactly with
// their straight-line reference forms, single-threaded and from 16
// concurrent threads (the per-thread scratch pools must not leak state
// between operations).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "crypto/sha256.hpp"
#include "entropy/backend.hpp"
#include "entropy/entropy.hpp"
#include "simhash/similarity.hpp"

namespace cryptodrop {
namespace {

/// Lengths hitting every residue mod 64 at least twice, plus sizes large
/// enough to exercise the unrolled main loops and tail handling.
std::vector<std::size_t> parity_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 128; ++n) lengths.push_back(n);
  for (std::size_t r = 0; r < 64; ++r) lengths.push_back(4096 + r);
  lengths.push_back(65536);
  lengths.push_back(65536 + 17);
  return lengths;
}

/// Mixed-structure fixture: prose head, constant run, keystream-ish tail
/// — hits the histogram sub-table merge, the distinct-byte early exit,
/// and the rolling-hash trigger density in one buffer.
Bytes mixed_fixture(Rng& rng, std::size_t n) {
  Bytes out = to_bytes(synth_prose(rng, n / 2 + 1));
  out.resize(n / 2);
  out.insert(out.end(), n / 4, std::uint8_t{0x41});
  Bytes tail = rng.bytes(n - out.size());
  out.insert(out.end(), tail.begin(), tail.end());
  out.resize(n);
  return out;
}

TEST(KernelParity, ByteHistogramMatchesReference) {
  Rng rng(2016);
  for (std::size_t n : parity_lengths()) {
    const Bytes data = mixed_fixture(rng, n);
    std::uint64_t ref[256] = {};
    std::uint64_t fast[256] = {};
    kernels::byte_histogram_reference(data.data(), data.size(), ref);
    kernels::byte_histogram(data.data(), data.size(), fast);
    ASSERT_EQ(0, std::memcmp(ref, fast, sizeof(ref))) << "n=" << n;
  }
  // Accumulation semantics: both forms add into pre-loaded counts.
  std::uint64_t counts[256];
  for (std::size_t i = 0; i < 256; ++i) counts[i] = i * 3 + 1;
  const Bytes data = rng.bytes(1000);
  std::uint64_t expected[256];
  std::memcpy(expected, counts, sizeof(counts));
  kernels::byte_histogram_reference(data.data(), data.size(), expected);
  kernels::byte_histogram(data.data(), data.size(), counts);
  EXPECT_EQ(0, std::memcmp(expected, counts, sizeof(counts)));
}

TEST(KernelParity, Fnv1a64LanesMatchScalarChain) {
  Rng rng(2017);
  for (std::size_t n : parity_lengths()) {
    const Bytes buf = rng.bytes(n + 3 * 64 + 4);
    const std::uint8_t* p0 = buf.data();
    const std::uint8_t* p1 = buf.data() + 1;
    const std::uint8_t* p2 = buf.data() + 64;
    const std::uint8_t* p3 = buf.data() + 67;
    std::uint64_t lanes[4];
    kernels::fnv1a64_x4(p0, p1, p2, p3, n, lanes);
    EXPECT_EQ(lanes[0], kernels::fnv1a64(p0, n)) << "n=" << n;
    EXPECT_EQ(lanes[1], kernels::fnv1a64(p1, n)) << "n=" << n;
    EXPECT_EQ(lanes[2], kernels::fnv1a64(p2, n)) << "n=" << n;
    EXPECT_EQ(lanes[3], kernels::fnv1a64(p3, n)) << "n=" << n;
  }
}

TEST(KernelParity, HasMinDistinctMatchesExactCount) {
  Rng rng(2018);
  std::vector<Bytes> fixtures;
  fixtures.push_back(Bytes());
  fixtures.push_back(Bytes(64, std::uint8_t{7}));        // 1 distinct
  fixtures.push_back(to_bytes("ababababababab"));        // 2 distinct
  for (int i = 0; i < 32; ++i) {
    fixtures.push_back(rng.bytes(rng.uniform(1, 192)));
  }
  // Low-cardinality adversaries: values drawn from a tiny alphabet so
  // the exact count sits right at typical thresholds.
  for (int i = 0; i < 32; ++i) {
    Bytes b(64);
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform(0, 8));
    fixtures.push_back(std::move(b));
  }
  for (const Bytes& b : fixtures) {
    const int exact = kernels::distinct_count_reference(b.data(), b.size());
    for (int threshold = 0; threshold <= 12; ++threshold) {
      EXPECT_EQ(kernels::has_min_distinct(b.data(), b.size(), threshold),
                exact >= threshold)
          << "n=" << b.size() << " threshold=" << threshold;
    }
  }
}

TEST(KernelParity, AndPopcountMatchesReference) {
  // Once with the variant the CPU selects, once with the portable one.
  for (const bool portable : {false, true}) {
    const bool prev = kernels::force_portable(portable);
    SCOPED_TRACE(kernels::simd_backend_name());
    Rng rng(2019);
    for (std::size_t words = 0; words <= 64; ++words) {
      std::vector<std::uint64_t> a(words);
      std::vector<std::uint64_t> b(words);
      for (std::size_t i = 0; i < words; ++i) {
        a[i] = rng.next();
        b[i] = rng.chance(0.3) ? ~std::uint64_t{0} : rng.next();
      }
      EXPECT_EQ(kernels::and_popcount(a.data(), b.data(), words),
                kernels::and_popcount_reference(a.data(), b.data(), words))
          << "words=" << words;
    }
    kernels::force_portable(prev);
  }
}

TEST(KernelParity, SerialLag1SumsMatchReference) {
  Rng rng(2020);
  for (std::size_t n : parity_lengths()) {
    const Bytes data = mixed_fixture(rng, n);
    std::uint64_t rb = 0, rb2 = 0, rp = 0;
    std::uint64_t fb = 0, fb2 = 0, fp = 0;
    kernels::serial_lag1_sums_reference(data.data(), data.size(), rb, rb2, rp);
    kernels::serial_lag1_sums(data.data(), data.size(), fb, fb2, fp);
    EXPECT_EQ(fb, rb) << "n=" << n;
    EXPECT_EQ(fb2, rb2) << "n=" << n;
    EXPECT_EQ(fp, rp) << "n=" << n;
  }
}

TEST(KernelParity, SimilarityDigestBatchedMatchesReference) {
  Rng rng(2021);
  // Sub-minimum, boundary, featureless, and every residue mod 64 above
  // the minimum — compute() and compute_reference() must agree on both
  // the nullopt decision and every bit of the digest.
  std::vector<Bytes> fixtures;
  fixtures.push_back(Bytes());
  fixtures.push_back(rng.bytes(simhash::kMinInputSize - 1));
  fixtures.push_back(rng.bytes(simhash::kMinInputSize));
  fixtures.push_back(Bytes(4096, std::uint8_t{0}));  // featureless
  for (std::size_t r = 0; r < 64; ++r) {
    fixtures.push_back(mixed_fixture(rng, 512 + r));
    fixtures.push_back(rng.bytes(3000 + r));
  }
  fixtures.push_back(to_bytes(synth_prose(rng, 20000)));
  fixtures.push_back(rng.bytes(65536 + 33));
  for (const Bytes& data : fixtures) {
    const auto fast = simhash::SimilarityDigest::compute(ByteView(data));
    const auto ref = simhash::SimilarityDigest::compute_reference(ByteView(data));
    ASSERT_EQ(fast.has_value(), ref.has_value()) << "n=" << data.size();
    if (fast.has_value()) {
      EXPECT_TRUE(*fast == *ref) << "n=" << data.size();
      EXPECT_EQ(fast->compare(*ref), 100) << "n=" << data.size();
    }
  }
}

TEST(KernelParity, Sha256HardwareMatchesForcedScalar) {
  SCOPED_TRACE(crypto::sha256_backend_name());
  Rng rng(2022);
  // "abc" pin (FIPS 180-4 appendix B.1) guards against both paths being
  // wrong the same way.
  EXPECT_EQ(crypto::sha256_hex(ByteView(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  std::vector<std::size_t> lengths = parity_lengths();
  lengths.push_back(55);   // padding fits in one block
  lengths.push_back(56);   // padding forces a second block
  for (std::size_t n : lengths) {
    const Bytes data = mixed_fixture(rng, n);
    const crypto::Sha256Digest active = crypto::sha256(ByteView(data));
    const bool prev = crypto::sha256_force_scalar(true);
    const crypto::Sha256Digest scalar = crypto::sha256(ByteView(data));
    crypto::sha256_force_scalar(prev);
    EXPECT_EQ(active, scalar) << "n=" << n;
    // Streamed updates cross block boundaries at awkward offsets.
    crypto::Sha256 chunked;
    for (std::size_t off = 0; off < n; off += 37) {
      chunked.update(ByteView(data).subspan(off, std::min<std::size_t>(37, n - off)));
    }
    EXPECT_EQ(chunked.finish(), active) << "n=" << n;
  }
}

// --- entropy backends vs reference-kernel formulas ----------------------
// Each reference below recomputes the backend's documented statistic
// from the *scalar reference* kernels with the identical floating-point
// expression order, so any accelerated-kernel drift shows up as a score
// mismatch.

double ref_shannon(const Bytes& data) {
  if (data.empty()) return 0.0;
  std::uint64_t counts[256] = {};
  kernels::byte_histogram_reference(data.data(), data.size(), counts);
  const double total = static_cast<double>(data.size());
  double e = 0.0;
  for (std::uint64_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / total;
    e -= p * std::log2(p);
  }
  return e;
}

double ref_chi_square(const Bytes& data) {
  if (data.empty()) return 0.0;
  std::uint64_t counts[256] = {};
  kernels::byte_histogram_reference(data.data(), data.size(), counts);
  const double expected = static_cast<double>(data.size()) / 256.0;
  double x = 0.0;
  for (std::size_t i = 0; i < 256; ++i) {
    const double d = static_cast<double>(counts[i]) - expected;
    x += d * d / expected;
  }
  return 8.0 / (1.0 + x / static_cast<double>(data.size()));
}

double ref_serial_correlation(const Bytes& data) {
  if (data.empty()) return 0.0;
  std::uint64_t sum_b = 0, sum_b2 = 0, sum_prod = 0;
  kernels::serial_lag1_sums_reference(data.data(), data.size(), sum_b, sum_b2,
                                      sum_prod);
  const std::uint64_t wrap =
      static_cast<std::uint64_t>(data.back()) *
      static_cast<std::uint64_t>(data.front());
  const double dn = static_cast<double>(data.size());
  const double db = static_cast<double>(sum_b);
  const double den = dn * static_cast<double>(sum_b2) - db * db;
  double scc = 1.0;
  if (den != 0.0) scc = (dn * static_cast<double>(sum_prod + wrap) - db * db) / den;
  const double structured = std::min(1.0, 4.0 * std::abs(scc));
  return 8.0 * (1.0 - structured);
}

double ref_daa_window(const std::uint8_t* p, std::size_t n) {
  if (n == 0) return 0.0;
  std::uint64_t counts[256] = {};
  kernels::byte_histogram_reference(p, n, counts);
  const double dn = static_cast<double>(n);
  double tv = 0.0;
  for (std::size_t i = 0; i < 256; ++i) {
    tv += std::abs(static_cast<double>(counts[i]) / dn - 1.0 / 256.0);
  }
  tv *= 0.5;
  return 8.0 * (1.0 - tv);
}

double ref_daa(const Bytes& data, std::size_t window) {
  if (data.empty()) return 0.0;
  const std::size_t w = std::min(window, data.size());
  const double head = ref_daa_window(data.data(), w);
  const double tail = ref_daa_window(data.data() + (data.size() - w), w);
  return std::min(head, tail);
}

double reference_score(entropy::BackendKind kind, const Bytes& data) {
  switch (kind) {
    case entropy::BackendKind::shannon: return ref_shannon(data);
    case entropy::BackendKind::chi_square: return ref_chi_square(data);
    case entropy::BackendKind::serial_correlation:
      return ref_serial_correlation(data);
    case entropy::BackendKind::daa:
      return ref_daa(data, entropy::BackendOptions{}.daa_window_bytes);
  }
  return -1.0;
}

TEST(KernelParity, EntropyBackendsMatchReferenceKernels) {
  Rng rng(2023);
  std::vector<Bytes> fixtures;
  for (std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{600}, std::size_t{2048},
        std::size_t{2049}, std::size_t{4095}, std::size_t{4096},
        std::size_t{8192}, std::size_t{65536 + 11}}) {
    fixtures.push_back(mixed_fixture(rng, n));
    fixtures.push_back(rng.bytes(n));
  }
  for (entropy::BackendKind kind : entropy::all_backend_kinds()) {
    const auto backend = entropy::make_backend(kind);
    for (const Bytes& data : fixtures) {
      EXPECT_EQ(backend->score(ByteView(data)), reference_score(kind, data))
          << backend->name() << " n=" << data.size();
    }
  }
}

TEST(KernelParity, ConcurrentScoringMatchesSingleThread) {
  // 16 threads hammer the same fixtures through digests + backends; the
  // thread_local scratch pools must never bleed state between ops, so
  // every thread reproduces the single-threaded answers exactly.
  Rng rng(2024);
  std::vector<Bytes> fixtures;
  for (int i = 0; i < 8; ++i) {
    fixtures.push_back(mixed_fixture(rng, 1500 + 64 * i + i));
  }
  struct Expected {
    std::optional<simhash::SimilarityDigest> digest;
    double scores[entropy::kBackendCount];
    crypto::Sha256Digest sha;
  };
  std::vector<Expected> expected;
  for (const Bytes& data : fixtures) {
    Expected e{};
    e.digest = simhash::SimilarityDigest::compute(ByteView(data));
    for (entropy::BackendKind kind : entropy::all_backend_kinds()) {
      e.scores[static_cast<std::size_t>(kind)] =
          entropy::make_backend(kind)->score(ByteView(data));
    }
    e.sha = crypto::sha256(ByteView(data));
    expected.push_back(std::move(e));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        for (std::size_t i = 0; i < fixtures.size(); ++i) {
          const ByteView data{fixtures[i]};
          const auto digest = simhash::SimilarityDigest::compute(data);
          if (digest.has_value() != expected[i].digest.has_value() ||
              (digest.has_value() && !(*digest == *expected[i].digest))) {
            mismatches.fetch_add(1);
          }
          for (entropy::BackendKind kind : entropy::all_backend_kinds()) {
            if (entropy::make_backend(kind)->score(data) !=
                expected[i].scores[static_cast<std::size_t>(kind)]) {
              mismatches.fetch_add(1);
            }
          }
          if (crypto::sha256(data) != expected[i].sha) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // The pools were exercised: acquisitions happened and some were hits.
  const BufferPoolStats stats = buffer_pool_stats();
  EXPECT_GT(stats.acquires, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(KernelParity, SimdBackendNameIsKnown) {
  // The POPCNT variant runs whenever the CPU reports the instruction.
#if defined(__x86_64__) && defined(__GNUC__)
  const bool has_popcnt = __builtin_cpu_supports("popcnt") != 0;
#else
  const bool has_popcnt = false;
#endif
  EXPECT_EQ(kernels::simd_backend_name(), has_popcnt ? "popcnt" : "portable");
  const bool prev = kernels::force_portable(true);
  EXPECT_EQ(kernels::simd_backend_name(), "portable");
  kernels::force_portable(prev);
  const std::string_view sha = crypto::sha256_backend_name();
  EXPECT_TRUE(sha == "sha_ni" || sha == "scalar") << sha;
}

}  // namespace
}  // namespace cryptodrop
