// Similarity digests memoized on the content buffers they describe.
//
// Digesting a file is the engine's most expensive measurement (rolling-
// hash feature selection over the whole content). The experiment zoo
// drives hundreds of trials over clones of one corpus, and daemon
// tenants clone one base volume; copy-on-write sharing makes every
// trial's pristine baseline the *same buffer* (vfs/content.hpp). So the
// digest is kept in that buffer's memo slot: computed on its first
// lookup, then read from there with no key to hash and no lock. A
// buffer is immutable while it is shared, so a memo can never describe
// other bytes, and it is freed with its buffer: at most one digest per
// live buffer, about 2.6% of its bytes. Content that is too small or
// too featureless to digest memoizes its nullopt the same way.
//
// DigestCache is the process-wide view of those memos: lookup totals,
// and a generation number that clear() advances to mark every memo
// stale, so a measurement pass can start like a freshly started monitor
// that has digested nothing yet.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "simhash/similarity.hpp"
#include "vfs/content.hpp"

namespace cryptodrop::simhash {

/// Lookup totals across every content buffer (see DigestCache::stats()).
struct DigestCacheStats {
  std::uint64_t hits = 0;    ///< Lookups answered by a current memo.
  std::uint64_t misses = 0;  ///< Lookups that computed the digest.
};

/// `content`'s similarity digest (nullopt when it cannot be digested):
/// from the content's memo when that is current, otherwise computed and
/// memoized. Safe from any number of threads; threads racing on one
/// buffer may each compute, and they compute the same digest.
[[nodiscard]] std::optional<SimilarityDigest> memoized_digest(const vfs::Content& content);

/// Process-wide lookup totals and the generation that marks memos
/// current.
class DigestCache {
 public:
  DigestCache(const DigestCache&) = delete;
  DigestCache& operator=(const DigestCache&) = delete;

  /// The one instance memoized_digest() reports to.
  static DigestCache& global();

  /// Marks every memo stale: the next lookup of each buffer computes its
  /// digest again and counts a miss. The totals are kept.
  void clear() { generation_.fetch_add(1, std::memory_order_acq_rel); }

  /// Lookup totals since the process started.
  [[nodiscard]] DigestCacheStats stats() const {
    return DigestCacheStats{hits_.load(std::memory_order_relaxed),
                            misses_.load(std::memory_order_relaxed)};
  }

 private:
  friend std::optional<SimilarityDigest> memoized_digest(const vfs::Content& content);

  DigestCache() = default;

  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace cryptodrop::simhash
