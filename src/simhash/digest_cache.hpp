// Process-wide cache of similarity digests keyed by content hash.
//
// Digesting a file is the engine's most expensive measurement (rolling-
// hash feature selection over the whole content). The experiment zoo
// drives hundreds of trials over clones of one corpus, and the VFS's
// copy-on-write content sharing means every trial's pristine baselines
// are the *same bytes* — so the digest of each distinct content needs to
// be computed exactly once, process-wide.
//
// Keying by SHA-256 of the content (not by pointer identity) also
// collapses duplicates that are equal but separately allocated, e.g. a
// corpus rebuilt from the same seed in another FileSystem.
//
// The cache is sharded (16 ways, by the first key byte) so concurrent
// trials do not serialize on one mutex, and bounded per shard with LRU
// eviction. Negative results — content too small or too featureless to
// digest — are cached too; they recur just as often and are cheap.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/ranked_mutex.hpp"
#include "crypto/sha256.hpp"
#include "simhash/similarity.hpp"

namespace cryptodrop::simhash {

/// Aggregated counters across all shards (see stats()).
struct DigestCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// The sharded, LRU-bounded digest cache described above.
class DigestCache {
 public:
  /// Total entries across all shards (rounded up to a per-shard bound).
  explicit DigestCache(std::size_t capacity = kDefaultCapacity);

  DigestCache(const DigestCache&) = delete;
  DigestCache& operator=(const DigestCache&) = delete;

  /// Returns the cached digest of content hashing to `data`'s SHA-256,
  /// computing and inserting it on miss. A nullopt digest (content not
  /// digestible) is a valid cached value.
  std::optional<SimilarityDigest> get_or_compute(ByteView data);

  /// Drops every entry (stats are kept).
  void clear();

  /// Snapshot of the hit/miss/eviction counters.
  [[nodiscard]] DigestCacheStats stats() const;

  /// The cache shared by every engine with `share_digest_cache` set.
  static DigestCache& global();

  static constexpr std::size_t kDefaultCapacity = 8192;

 private:
  static constexpr std::size_t kShards = 16;

  struct KeyHash {
    std::size_t operator()(const crypto::Sha256Digest& key) const {
      // The key is itself a cryptographic hash; its first bytes are
      // already uniformly distributed.
      std::size_t out;
      static_assert(sizeof(out) <= sizeof(crypto::Sha256Digest));
      __builtin_memcpy(&out, key.data(), sizeof(out));
      return out;
    }
  };

  struct Shard {
    /// Rank 30: acquired under the engine lock on digest misses.
    mutable common::RankedMutex<common::lockrank::kDigestCache> mu;
    /// Most-recently-used entries at the front.
    std::list<std::pair<crypto::Sha256Digest, std::optional<SimilarityDigest>>> lru;
    std::unordered_map<crypto::Sha256Digest, decltype(lru)::iterator, KeyHash> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  std::size_t per_shard_capacity_;
  std::array<Shard, kShards> shards_;
};

}  // namespace cryptodrop::simhash
