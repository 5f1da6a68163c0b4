// Similarity-preserving digest — the repo's analogue of sdhash (Roussev,
// "Data Fingerprinting with Similarity Digests"), which the paper uses as
// its Similarity Measurement indicator (§III-B).
//
// Contract reproduced from the paper's usage:
//  * comparing a file to itself (or a near-copy) scores ~100;
//  * comparing plaintext to its ciphertext scores ~0 ("statistically
//    comparable to two blobs of random data");
//  * files smaller than kMinInputSize (512 bytes) yield *no* digest —
//    the paper's §V-C CTB-Locker analysis hinges on this limitation.
//
// Mechanism (simplified sdhash): content-defined selection of 64-byte
// features (rolling-hash trigger), each feature inserted into a sequence
// of 2048-bit bloom filters (capped features per filter); similarity is
// the normalized excess bit-overlap between filter sets over the overlap
// expected from unrelated random features.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"

namespace cryptodrop::simhash {

/// 512: below this sdhash cannot select enough statistically significant
/// features to build a digest.
inline constexpr std::size_t kMinInputSize = 512;

/// Window size of one selected feature.
inline constexpr std::size_t kFeatureSize = 64;

/// Bits per bloom filter.
inline constexpr std::size_t kFilterBits = 2048;

/// Features folded into one filter before a new one is started.
inline constexpr std::size_t kFeaturesPerFilter = 160;

/// The sdhash-style similarity fingerprint: a sequence of bloom
/// filters over statistically improbable features.
class SimilarityDigest {
 public:
  /// Builds a digest, or nullopt when `data` is too small or too
  /// featureless to fingerprint. Batched form: trigger scan, selectable
  /// screen, 4-lane feature hashing, then in-order bloom insertion —
  /// bit-identical to compute_reference() (asserted by the golden-parity
  /// suite), just faster.
  static std::optional<SimilarityDigest> compute(ByteView data);

  /// Straight-line single-pass form of compute(), kept as the golden
  /// reference the parity tests compare the batched kernels against.
  /// Never called on the hot path.
  static std::optional<SimilarityDigest> compute_reference(ByteView data);

  /// Exact equality: same features, same filter boundaries, same bits.
  /// This is the parity suite's definition of "bit-identical".
  [[nodiscard]] bool operator==(const SimilarityDigest& other) const;

  /// Similarity confidence 0..100. Symmetric. 100 = homologous,
  /// 0 = statistically unrelated.
  [[nodiscard]] int compare(const SimilarityDigest& other) const;

  /// Number of bloom filters in the digest (grows with input size).
  [[nodiscard]] std::size_t filter_count() const { return filters_.size(); }

  /// Total features selected from the input.
  [[nodiscard]] std::size_t feature_count() const { return feature_count_; }

 private:
  struct Filter {
    std::array<std::uint64_t, kFilterBits / 64> bits{};
    std::uint32_t features = 0;
    /// Set bits in `bits`, counted once when the digest is finished so
    /// that compare() does one AND+popcount per filter pair.
    std::uint32_t set_bits = 0;
  };
  // The count fills the padding after `features`, so a filter stays
  // 264 bytes.
  static_assert(sizeof(Filter) == kFilterBits / 8 + 8);

  static int compare_filters(const Filter& a, const Filter& b);

  /// Fills every filter's `set_bits`; the last step of both compute
  /// forms.
  void count_set_bits();

  /// Folds one feature hash into the current filter, rolling over to a
  /// fresh filter at kFeaturesPerFilter (shared by both compute forms so
  /// rollover boundaries cannot drift).
  void insert_feature(std::uint64_t h);

  std::vector<Filter> filters_;
  std::size_t feature_count_ = 0;
};

/// One-shot comparison. Returns nullopt when either input cannot be
/// digested (the caller — the analysis engine — treats that as
/// "similarity indicator unavailable", not as a match or mismatch).
std::optional<int> similarity_score(ByteView a, ByteView b);

}  // namespace cryptodrop::simhash
