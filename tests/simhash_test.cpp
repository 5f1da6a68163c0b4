// Tests for the similarity digest — the contract the paper relies on:
// self-similarity ~100, ciphertext vs. plaintext ~0, no digest under
// 512 bytes, robustness to edits and shifts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "corpus/generators.hpp"
#include "crypto/chacha20.hpp"
#include "simhash/digest_cache.hpp"
#include "simhash/similarity.hpp"

namespace cryptodrop::simhash {
namespace {

Bytes prose(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  return to_bytes(synth_prose(rng, n));
}

TEST(Simhash, SelfComparisonIsHundred) {
  const Bytes data = prose(1, 20000);
  const auto digest = SimilarityDigest::compute(ByteView(data));
  ASSERT_TRUE(digest.has_value());
  EXPECT_EQ(digest->compare(*digest), 100);
}

TEST(Simhash, IdenticalContentScoresHundred) {
  const Bytes a = prose(2, 50000);
  const Bytes b = a;
  const auto score = similarity_score(ByteView(a), ByteView(b));
  ASSERT_TRUE(score.has_value());
  EXPECT_EQ(*score, 100);
}

TEST(Simhash, PlaintextVsCiphertextScoresZero) {
  // §III-B: "statistically comparable to that of two blobs of random
  // data" — the key insight the indicator is built on.
  const Bytes plain = prose(3, 100000);
  const Bytes ct = crypto::chacha20_encrypt(to_bytes("key"), to_bytes("nonce"),
                                            ByteView(plain));
  const auto score = similarity_score(ByteView(plain), ByteView(ct));
  ASSERT_TRUE(score.has_value());
  EXPECT_LE(*score, 2);
}

TEST(Simhash, TwoRandomBlobsScoreZero) {
  Rng rng(4);
  const Bytes a = rng.bytes(80000);
  const Bytes b = rng.bytes(80000);
  const auto score = similarity_score(ByteView(a), ByteView(b));
  ASSERT_TRUE(score.has_value());
  EXPECT_LE(*score, 2);
}

TEST(Simhash, UnrelatedProseScoresLow) {
  // Different documents from the same language model share words but not
  // 64-byte feature windows.
  const auto score = similarity_score(ByteView(prose(5, 60000)),
                                      ByteView(prose(6, 60000)));
  ASSERT_TRUE(score.has_value());
  EXPECT_LE(*score, 30);
}

TEST(Simhash, SmallFilesHaveNoDigest) {
  // The sdhash limitation §V-C leans on: < 512 bytes cannot be scored.
  const Bytes small = prose(7, 511);
  EXPECT_FALSE(SimilarityDigest::compute(ByteView(small)).has_value());
  const Bytes big = prose(8, 2048);
  EXPECT_FALSE(similarity_score(ByteView(small), ByteView(big)).has_value());
  EXPECT_FALSE(similarity_score(ByteView(big), ByteView(small)).has_value());
}

TEST(Simhash, AtLeast512DigestsFine) {
  const Bytes data = prose(9, 1024);
  EXPECT_TRUE(SimilarityDigest::compute(ByteView(data)).has_value());
}

TEST(Simhash, DegenerateContentHasNoDigest) {
  // A run of one byte value offers no selectable features.
  const Bytes zeros(10000, 0x00);
  EXPECT_FALSE(SimilarityDigest::compute(ByteView(zeros)).has_value());
}

TEST(Simhash, SmallEditKeepsHighScore) {
  Bytes a = prose(10, 40000);
  Bytes b = a;
  // Flip a 100-byte region in the middle.
  for (std::size_t i = 20000; i < 20100; ++i) b[i] ^= 0x55;
  const auto score = similarity_score(ByteView(a), ByteView(b));
  ASSERT_TRUE(score.has_value());
  EXPECT_GE(*score, 70);
}

TEST(Simhash, PrefixInsertionSurvives) {
  // Content-defined feature selection must tolerate byte shifts.
  const Bytes a = prose(11, 40000);
  Bytes b = to_bytes("INSERTED HEADER OF ODD LENGTH 37 b!");
  append(b, ByteView(a));
  const auto score = similarity_score(ByteView(a), ByteView(b));
  ASSERT_TRUE(score.has_value());
  EXPECT_GE(*score, 70);
}

TEST(Simhash, AppendGrowthKeepsHighScore) {
  const Bytes a = prose(12, 30000);
  Bytes b = a;
  append(b, ByteView(prose(13, 6000)));
  const auto score = similarity_score(ByteView(a), ByteView(b));
  ASSERT_TRUE(score.has_value());
  EXPECT_GE(*score, 60);
}

TEST(Simhash, HalfRewrittenScoresIntermediate) {
  Bytes a = prose(14, 40000);
  Bytes b = a;
  Rng rng(15);
  const Bytes repl = rng.bytes(20000);
  std::copy(repl.begin(), repl.end(), b.begin() + 20000);
  const auto score = similarity_score(ByteView(a), ByteView(b));
  ASSERT_TRUE(score.has_value());
  EXPECT_GT(*score, 10);
  EXPECT_LT(*score, 95);
}

TEST(Simhash, ComparisonIsSymmetric) {
  const Bytes a = prose(16, 25000);
  Bytes b = a;
  append(b, ByteView(prose(17, 50000)));
  const auto ab = similarity_score(ByteView(a), ByteView(b));
  const auto ba = similarity_score(ByteView(b), ByteView(a));
  ASSERT_TRUE(ab.has_value());
  ASSERT_TRUE(ba.has_value());
  EXPECT_EQ(*ab, *ba);
}

TEST(Simhash, GlobalBlockPermutationRetainsSubstantialSimilarity) {
  // Full reversal of 4 KiB blocks: features survive but are regrouped
  // across filter boundaries, so the score degrades — yet stays far
  // above the ciphertext "no match" bar (same behavior as sdhash).
  const Bytes a = prose(18, 64 * 1024);
  Bytes b;
  for (std::size_t block = 16; block-- > 0;) {
    append(b, ByteView(a).subspan(block * 4096, 4096));
  }
  const auto score = similarity_score(ByteView(a), ByteView(b));
  ASSERT_TRUE(score.has_value());
  EXPECT_GE(*score, 30);
}

TEST(Simhash, LocalBlockSwapsPreserveHighSimilarity) {
  // The benign lossless-transform model (ImageMagick rotation): adjacent
  // block swaps keep every feature; some land in neighboring filters, so
  // the score sits in the "clearly related" band — an order of magnitude
  // above the engine's similarity_drop_max of 2.
  const Bytes a = prose(23, 64 * 1024);
  Bytes b;
  for (std::size_t pair = 0; pair + 1 < 16; pair += 2) {
    append(b, ByteView(a).subspan((pair + 1) * 4096, 4096));
    append(b, ByteView(a).subspan(pair * 4096, 4096));
  }
  const auto score = similarity_score(ByteView(a), ByteView(b));
  ASSERT_TRUE(score.has_value());
  EXPECT_GE(*score, 40);
}

TEST(Simhash, FilterCountGrowsWithInput) {
  const auto small = SimilarityDigest::compute(ByteView(prose(19, 2000)));
  const auto large = SimilarityDigest::compute(ByteView(prose(20, 400000)));
  ASSERT_TRUE(small.has_value());
  ASSERT_TRUE(large.has_value());
  EXPECT_GT(large->filter_count(), small->filter_count());
  EXPECT_GT(large->feature_count(), small->feature_count());
}

struct ComparePair {
  const char* name;
  Bytes a;
  Bytes b;
  int golden_ab;  // a.compare(b)
  int golden_ba;  // b.compare(a); differs when both have as many filters
};

/// Pairs spanning 1 to >= 100 filters per side and scores 0, mid and
/// 100, with the scores compare() gave before the per-filter bit counts
/// were cached and POPCNT was chosen at run time.
std::vector<ComparePair> compare_pairs() {
  const auto encrypt = [](const Bytes& plain) {
    return crypto::chacha20_encrypt(to_bytes("key"), to_bytes("nonce"),
                                    ByteView(plain));
  };
  const Bytes small = prose(30, 1500);
  const Bytes doc = prose(31, 40000);
  const Bytes blocks = prose(32, 64 * 1024);
  const Bytes big = prose(33, 1200 * 1024);

  Bytes half = doc;
  const Bytes noise = Rng(34).bytes(doc.size() / 2);
  std::copy(noise.begin(), noise.end(), half.end() - static_cast<std::ptrdiff_t>(noise.size()));
  Bytes edited = doc;
  for (std::size_t i = 20000; i < 20100; ++i) edited[i] ^= 0x55;
  Bytes appended = doc;
  append(appended, ByteView(prose(35, 6000)));
  Bytes swapped;
  Bytes reversed;
  for (std::size_t pair = 0; pair + 1 < 16; pair += 2) {
    append(swapped, ByteView(blocks).subspan((pair + 1) * 4096, 4096));
    append(swapped, ByteView(blocks).subspan(pair * 4096, 4096));
  }
  for (std::size_t block = 16; block-- > 0;) {
    append(reversed, ByteView(blocks).subspan(block * 4096, 4096));
  }
  Bytes big_after_small = small;
  append(big_after_small, ByteView(big));

  std::vector<ComparePair> pairs;
  pairs.push_back({"small/self", small, small, 100, 100});
  pairs.push_back({"small/ciphertext", small, encrypt(small), 0, 0});
  pairs.push_back({"doc/half-rewritten", doc, half, 49, 53});
  pairs.push_back({"doc/small-edit", doc, edited, 99, 99});
  pairs.push_back({"doc/appended", doc, appended, 100, 100});
  pairs.push_back({"blocks/swapped", blocks, swapped, 51, 51});
  pairs.push_back({"blocks/reversed", blocks, reversed, 57, 56});
  pairs.push_back({"big/self", big, big, 100, 100});
  pairs.push_back({"big/ciphertext", big, encrypt(big), 0, 0});
  pairs.push_back({"small/big-with-small-prefix", small, big_after_small, 100, 100});
  pairs.push_back({"doc/unrelated-prose", doc, prose(36, 40000), 0, 0});
  pairs.push_back({"random/random", Rng(37).bytes(80000), Rng(38).bytes(80000), 0, 0});
  return pairs;
}

TEST(Simhash, CompareMatchesGoldenScores) {
  const std::vector<ComparePair> pairs = compare_pairs();
  std::size_t min_filters = SIZE_MAX;
  std::size_t max_filters = 0;
  // Once with the popcount variant the CPU selects, once with the
  // portable one.
  for (const bool portable : {false, true}) {
    const bool prev = kernels::force_portable(portable);
    SCOPED_TRACE(kernels::simd_backend_name());
    for (const ComparePair& pair : pairs) {
      const auto da = SimilarityDigest::compute(ByteView(pair.a));
      const auto db = SimilarityDigest::compute(ByteView(pair.b));
      if (!da || !db) {
        ADD_FAILURE() << pair.name << " has no digest";
        continue;
      }
      EXPECT_EQ(da->compare(*db), pair.golden_ab) << pair.name;
      EXPECT_EQ(db->compare(*da), pair.golden_ba) << pair.name;
      min_filters = std::min({min_filters, da->filter_count(), db->filter_count()});
      max_filters = std::max({max_filters, da->filter_count(), db->filter_count()});
    }
    kernels::force_portable(prev);
  }
  EXPECT_EQ(min_filters, 1u);
  EXPECT_GE(max_filters, 100u);
}

TEST(Simhash, DeterministicDigest) {
  const Bytes data = prose(21, 30000);
  const auto d1 = SimilarityDigest::compute(ByteView(data));
  const auto d2 = SimilarityDigest::compute(ByteView(data));
  ASSERT_TRUE(d1 && d2);
  EXPECT_EQ(d1->compare(*d2), 100);
  EXPECT_EQ(d1->feature_count(), d2->feature_count());
}

// --- digests memoized on content buffers (simhash/digest_cache.hpp) ----

TEST(DigestMemo, ClearMakesTheNextLookupComputeAgain) {
  // A measurement pass calls clear() to start like a freshly started
  // monitor, and counts on every buffer it digests to miss again.
  const vfs::Content content(prose(31, 8192));
  DigestCache& cache = DigestCache::global();
  const auto first = memoized_digest(content);
  ASSERT_TRUE(first.has_value());
  ASSERT_NE(content.memo(), nullptr);

  const DigestCacheStats memoized = cache.stats();
  const auto hit = memoized_digest(content);
  const DigestCacheStats after_hit = cache.stats();
  EXPECT_EQ(after_hit.hits, memoized.hits + 1);
  EXPECT_EQ(after_hit.misses, memoized.misses);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit == *first);

  cache.clear();
  const auto again = memoized_digest(content);
  const DigestCacheStats after_clear = cache.stats();
  EXPECT_EQ(after_clear.misses, after_hit.misses + 1);
  EXPECT_EQ(after_clear.hits, after_hit.hits);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(*again == *first);

  // Renewed: the lookup after that is a hit again.
  (void)memoized_digest(content);
  EXPECT_EQ(cache.stats().hits, after_clear.hits + 1);
}

TEST(DigestMemo, UndigestibleContentIsMemoizedToo) {
  const vfs::Content small(to_bytes("too small for sdhash"));
  EXPECT_FALSE(memoized_digest(small).has_value());
  const DigestCacheStats memoized = DigestCache::global().stats();
  EXPECT_FALSE(memoized_digest(small).has_value());
  EXPECT_EQ(DigestCache::global().stats().hits, memoized.hits + 1);
}

TEST(DigestMemo, CopyStartsWithAnEmptyMemo) {
  const vfs::Content original(prose(32, 8192));
  ASSERT_TRUE(memoized_digest(original).has_value());
  ASSERT_NE(original.memo(), nullptr);
  const vfs::Content copy(original);
  EXPECT_EQ(copy.memo(), nullptr);
}

// --- parameterized: the ciphertext-vs-plaintext contract holds for every
// corpus file kind (the engine applies it to all of them) ----------------

class CiphertextDissimilarityTest
    : public ::testing::TestWithParam<corpus::FileKind> {};

TEST_P(CiphertextDissimilarityTest, EncryptedVersionScoresAtMostTwo) {
  Rng rng(22);
  const Bytes content = corpus::generate_content(GetParam(), 60000, rng);
  const auto original = SimilarityDigest::compute(ByteView(content));
  if (!original.has_value()) GTEST_SKIP() << "kind not digestible at this size";
  const Bytes ct = crypto::chacha20_encrypt(to_bytes("key"), to_bytes("nonce"),
                                            ByteView(content));
  const auto encrypted = SimilarityDigest::compute(ByteView(ct));
  ASSERT_TRUE(encrypted.has_value());
  EXPECT_LE(original->compare(*encrypted), 2)
      << corpus::kind_extension(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CiphertextDissimilarityTest,
                         ::testing::ValuesIn(corpus::all_kinds()),
                         [](const ::testing::TestParamInfo<corpus::FileKind>& info) {
                           return std::string(corpus::kind_extension(info.param));
                         });

}  // namespace
}  // namespace cryptodrop::simhash
