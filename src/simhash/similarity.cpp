#include "simhash/similarity.hpp"

#include <algorithm>
#include <bit>

#include "common/buffer_pool.hpp"
#include "common/kernels.hpp"

namespace cryptodrop::simhash {

namespace {

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Rejects degenerate windows (long runs, tiny alphabets) that are common
/// to unrelated files and would inflate similarity — sdhash does the same
/// via its entropy-based precedence ranks.
constexpr int kMinDistinctBytes = 8;

constexpr std::size_t kBloomHashes = 5;

/// Random substitution table for the rolling (buzhash) window hash,
/// derived deterministically so digests are stable across runs.
const std::array<std::uint64_t, 256>& buz_table() {
  static const std::array<std::uint64_t, 256> table = [] {
    std::array<std::uint64_t, 256> t{};
    std::uint64_t state = 0x5eed5eed5eed5eedULL;
    for (auto& v : t) v = mix(state += 0x9e3779b97f4a7c15ULL);
    return t;
  }();
  return table;
}

inline std::uint64_t rotl64(std::uint64_t x, int k) {
  // Masked form: total for any k, including multiples of 64 (a plain
  // `x >> (64 - k)` is UB at k = 0). Compiles to a single rotate.
  return (x << (k & 63)) | (x >> (-k & 63));
}

/// Content-defined trigger evaluated at *every* byte position via a
/// rolling hash, so the feature set is invariant under byte insertions
/// and shifts (sdhash's precedence-rank selection has the same
/// property). ~1 position in 64 triggers, i.e. roughly one feature per
/// kFeatureSize bytes.
constexpr std::uint64_t kSelectMask = 0x3f;

/// Primes the rolling hash with the window starting at data[0].
std::uint64_t prime_rolling(ByteView data) {
  const auto& tab = buz_table();
  std::uint64_t rolling = 0;
  for (std::size_t k = 0; k < kFeatureSize; ++k) {
    rolling ^= rotl64(tab[data[k]], static_cast<int>((kFeatureSize - 1 - k) % 64));
  }
  return rolling;
}

}  // namespace

void SimilarityDigest::count_set_bits() {
  for (Filter& f : filters_) {
    f.set_bits = kernels::and_popcount(f.bits.data(), f.bits.data(), f.bits.size());
  }
}

void SimilarityDigest::insert_feature(std::uint64_t h) {
  Filter* filter = &filters_.back();
  if (filter->features >= kFeaturesPerFilter) {
    filters_.emplace_back();
    filter = &filters_.back();
  }
  std::uint64_t g = h;
  for (std::size_t k = 0; k < kBloomHashes; ++k) {
    g = mix(g + k);
    const std::size_t bit = static_cast<std::size_t>(g % kFilterBits);
    filter->bits[bit / 64] |= 1ULL << (bit % 64);
  }
  ++filter->features;
  ++feature_count_;
}

// cryptodrop:hot
std::optional<SimilarityDigest> SimilarityDigest::compute(ByteView data) {
  if (data.size() < kMinInputSize) return std::nullopt;

  SimilarityDigest digest;
  digest.filters_.emplace_back();

  const auto& tab = buz_table();
  const std::uint8_t* bytes = data.data();
  std::uint64_t rolling = prime_rolling(data);

  // Pass 1 — trigger scan. The recurrence is loop-carried (each rolling
  // value feeds the next) so it cannot be widened; what *can* be removed
  // is everything else: the per-position bounds test is hoisted out of
  // the loop (advancing is always safe before the final position) and
  // trigger positions are only recorded, not processed, so the scan body
  // stays branch-light and the expensive per-trigger work runs batched
  // in passes 2–4 below.
  Scratch<std::uint32_t> triggers(data.size() / 48 + 8);
  const std::size_t last_pos = data.size() - kFeatureSize;
  std::size_t pos = 0;
  for (; pos < last_pos; ++pos) {
    const std::uint64_t h_select = rolling;
    rolling = rotl64(rolling, 1) ^ tab[bytes[pos]] ^ tab[bytes[pos + kFeatureSize]];
    if ((h_select & kSelectMask) == 0) {
      triggers->push_back(static_cast<std::uint32_t>(pos));
    }
  }
  if ((rolling & kSelectMask) == 0) {
    triggers->push_back(static_cast<std::uint32_t>(pos));
  }

  // Pass 2 — selectability screen, compacted in place. The early-exit
  // kernel answers "has >= 8 distinct bytes" in a handful of iterations
  // for real content instead of always walking all 64.
  std::size_t kept = 0;
  for (const std::uint32_t t : *triggers) {
    if (kernels::has_min_distinct(bytes + t, kFeatureSize, kMinDistinctBytes)) {
      (*triggers)[kept++] = t;
    }
  }
  triggers->resize(kept);

  // Pass 3 — feature hashing in 4-wide ILP lanes over the surviving
  // windows (the FNV chain is serial per window; four chains hide the
  // multiply latency).
  Scratch<std::uint64_t> hashes(kept);
  hashes->resize(kept);
  std::size_t i = 0;
  for (; i + 4 <= kept; i += 4) {
    kernels::fnv1a64_x4(bytes + (*triggers)[i], bytes + (*triggers)[i + 1],
                        bytes + (*triggers)[i + 2], bytes + (*triggers)[i + 3],
                        kFeatureSize, hashes->data() + i);
  }
  for (; i < kept; ++i) {
    (*hashes)[i] = kernels::fnv1a64(bytes + (*triggers)[i], kFeatureSize);
  }

  // Pass 4 — bloom insertion in original scan order, so filter rollover
  // boundaries (and therefore the digest) are identical to the scalar
  // single-pass form.
  for (const std::uint64_t h : *hashes) {
    digest.insert_feature(h);
  }

  // Too few features to be statistically meaningful (e.g. a file of one
  // repeated byte): no digest, same as sdhash on degenerate input.
  if (digest.feature_count_ < 6) return std::nullopt;
  digest.count_set_bits();
  return digest;
}

std::optional<SimilarityDigest> SimilarityDigest::compute_reference(
    ByteView data) {
  if (data.size() < kMinInputSize) return std::nullopt;

  SimilarityDigest digest;
  digest.filters_.emplace_back();

  const auto& tab = buz_table();
  std::uint64_t rolling = prime_rolling(data);

  for (std::size_t pos = 0; pos + kFeatureSize <= data.size(); ++pos) {
    const std::uint64_t h_select = rolling;
    // Advance the window before any `continue` below.
    if (pos + kFeatureSize < data.size()) {
      rolling = rotl64(rolling, 1) ^ tab[data[pos]] ^ tab[data[pos + kFeatureSize]];
    }
    if ((h_select & kSelectMask) != 0) continue;
    const std::uint8_t* window = data.data() + pos;
    if (kernels::distinct_count_reference(window, kFeatureSize) < kMinDistinctBytes) {
      continue;
    }
    digest.insert_feature(kernels::fnv1a64(window, kFeatureSize));
  }

  if (digest.feature_count_ < 6) return std::nullopt;
  digest.count_set_bits();
  return digest;
}

bool SimilarityDigest::operator==(const SimilarityDigest& other) const {
  if (feature_count_ != other.feature_count_) return false;
  if (filters_.size() != other.filters_.size()) return false;
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (filters_[i].features != other.filters_[i].features) return false;
    if (filters_[i].bits != other.filters_[i].bits) return false;
  }
  return true;
}

int SimilarityDigest::compare_filters(const Filter& a, const Filter& b) {
  const std::uint32_t pa = a.set_bits;
  const std::uint32_t pb = b.set_bits;
  if (pa == 0 || pb == 0) return 0;

  const std::uint32_t overlap =
      kernels::and_popcount(a.bits.data(), b.bits.data(), a.bits.size());

  // Expected overlap between two *unrelated* filters with pa and pb set
  // bits: pa*pb/m. Score the excess over that base rate against the best
  // possible overlap, min(pa, pb). The slack (10%) absorbs sampling
  // variance so random data reliably scores 0 (sdhash applies an
  // equivalent cutoff).
  const double m = static_cast<double>(kFilterBits);
  const double expected = static_cast<double>(pa) * static_cast<double>(pb) / m;
  const double max_overlap = static_cast<double>(std::min(pa, pb));
  // Proportional slack absorbs variance on full filters; the absolute
  // term keeps sparsely-populated (trailing) filters from scoring on a
  // handful of coincidental bits.
  const double cutoff = expected + 0.10 * max_overlap + 6.0;
  if (static_cast<double>(overlap) <= cutoff) return 0;
  const double score =
      100.0 * (static_cast<double>(overlap) - cutoff) / (max_overlap - cutoff);
  return static_cast<int>(std::clamp(score, 0.0, 100.0) + 0.5);
}

int SimilarityDigest::compare(const SimilarityDigest& other) const {
  const auto& shorter = filters_.size() <= other.filters_.size() ? filters_ : other.filters_;
  const auto& longer = filters_.size() <= other.filters_.size() ? other.filters_ : filters_;

  // sdhash semantics: every filter of the shorter digest is matched
  // against its best counterpart in the longer one; the score is the
  // feature-count-weighted mean of those best matches (a trailing filter
  // holding a handful of features must not outvote full ones).
  double total = 0.0;
  double weight = 0.0;
  for (const Filter& f : shorter) {
    int best = 0;
    for (const Filter& g : longer) {
      best = std::max(best, compare_filters(f, g));
    }
    total += static_cast<double>(best) * static_cast<double>(f.features);
    weight += static_cast<double>(f.features);
  }
  if (weight <= 0.0) return 0;
  return static_cast<int>(total / weight + 0.5);
}

std::optional<int> similarity_score(ByteView a, ByteView b) {
  const auto da = SimilarityDigest::compute(a);
  if (!da) return std::nullopt;
  const auto db = SimilarityDigest::compute(b);
  if (!db) return std::nullopt;
  return da->compare(*db);
}

}  // namespace cryptodrop::simhash
