#include "simhash/digest_cache.hpp"

#include <memory>
#include <utility>

namespace cryptodrop::simhash {
namespace {

/// What a content buffer memoizes: its digest, and the DigestCache
/// generation in which that digest was last computed.
struct DigestMemo final : vfs::ContentMemo {
  DigestMemo(std::optional<SimilarityDigest> d, std::uint64_t g)
      : digest(std::move(d)), generation(g) {}

  const std::optional<SimilarityDigest> digest;
  mutable std::atomic<std::uint64_t> generation;
};

}  // namespace

// cryptodrop:hot
std::optional<SimilarityDigest> memoized_digest(const vfs::Content& content) {
  DigestCache& cache = DigestCache::global();
  const std::uint64_t generation = cache.generation_.load(std::memory_order_acquire);
  const auto* memo = dynamic_cast<const DigestMemo*>(content.memo());
  if (memo != nullptr && memo->generation.load(std::memory_order_relaxed) == generation) {
    cache.hits_.fetch_add(1, std::memory_order_relaxed);
    return memo->digest;
  }
  cache.misses_.fetch_add(1, std::memory_order_relaxed);
  std::optional<SimilarityDigest> digest = SimilarityDigest::compute(ByteView(content));
  if (memo != nullptr) {
    // A stale memo still describes these bytes; computing again only
    // renews it for the current generation.
    memo->generation.store(generation, std::memory_order_relaxed);
  } else {
    content.install_memo(std::make_unique<const DigestMemo>(digest, generation));
  }
  return digest;
}

DigestCache& DigestCache::global() {
  static DigestCache cache;
  return cache;
}

}  // namespace cryptodrop::simhash
