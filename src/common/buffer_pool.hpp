// Per-thread scratch-buffer pool for the vfs→filter→engine hot path.
//
// The indicator pass needs short-lived vectors every operation (simhash
// trigger positions and feature hashes, the DAA tail linearization).
// Allocating them per op costs a malloc/free round trip on the hottest
// code in the repo, and with several daemon workers those calls contend
// inside the allocator. The pool keeps a small per-thread
// freelist (LIFO, capacity-bounded) so steady-state acquisitions are a
// pointer pop — no lock, no allocator, no cross-thread traffic (cf.
// lokinet's util/buffer_pool.hpp, which pools packet buffers the same
// way).
//
// Rules (DESIGN.md §16):
//  * A scratch buffer's lifetime must stay within one operation on one
//    thread — it is handed back to the *releasing* thread's shelf, so
//    escaping it across threads silently forfeits reuse (but is safe).
//  * Pools are typed (ScratchPool<T>) — no aliasing games.
//  * The shelf is bounded (kMaxFree buffers, kMaxRetainedBytes retained
//    capacity per type per thread); beyond that, release simply frees.
//  * Stats are process-global relaxed atomics, surfaced as engine gauges
//    (buffer_pool_* in OBSERVABILITY.md) — monitoring only, never logic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cryptodrop {

/// Point-in-time view of the process-wide pool counters.
struct BufferPoolStats {
  std::uint64_t acquires = 0;        ///< Total acquire() calls.
  std::uint64_t hits = 0;            ///< Acquires served from a freelist.
  std::uint64_t bytes_retained = 0;  ///< Capacity currently parked on shelves.
};

namespace detail {

/// Live process-wide pool counters (relaxed atomics; see
/// BufferPoolStats for the snapshot form).
struct PoolCounters {
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::int64_t> bytes_retained{0};
};

/// Process-global counters shared by every typed pool.
PoolCounters& pool_counters();

}  // namespace detail

/// Snapshot of the pool counters (relaxed reads; values are monotonic
/// except bytes_retained, which tracks the live shelf total).
BufferPoolStats buffer_pool_stats();

/// Typed per-thread freelist of std::vector<T> scratch buffers.
template <class T>
class ScratchPool {
 public:
  /// Pops a pooled vector (cleared, capacity >= what it retired with) or
  /// default-constructs one; always reserves `min_capacity`.
  // cryptodrop:hot
  static std::vector<T> acquire(std::size_t min_capacity) {
    auto& counters = detail::pool_counters();
    counters.acquires.fetch_add(1, std::memory_order_relaxed);
    Shelf& shelf = local_shelf();
    std::vector<T> out;
    if (!shelf.free.empty()) {
      out = std::move(shelf.free.back());
      shelf.free.pop_back();
      shelf.retained_bytes -= out.capacity() * sizeof(T);
      counters.hits.fetch_add(1, std::memory_order_relaxed);
      counters.bytes_retained.fetch_sub(
          static_cast<std::int64_t>(out.capacity() * sizeof(T)),
          std::memory_order_relaxed);
      out.clear();
    }
    if (out.capacity() < min_capacity) out.reserve(min_capacity);
    return out;
  }

  /// Parks `v`'s storage on this thread's shelf for the next acquire, or
  /// frees it when the shelf is full.
  // cryptodrop:hot
  static void release(std::vector<T>&& v) {
    const std::size_t bytes = v.capacity() * sizeof(T);
    if (bytes == 0) return;
    Shelf& shelf = local_shelf();
    if (shelf.free.size() >= kMaxFree ||
        shelf.retained_bytes + bytes > kMaxRetainedBytes) {
      std::vector<T>().swap(v);
      return;
    }
    shelf.retained_bytes += bytes;
    detail::pool_counters().bytes_retained.fetch_add(
        static_cast<std::int64_t>(bytes), std::memory_order_relaxed);
    shelf.free.push_back(std::move(v));
  }

 private:
  static constexpr std::size_t kMaxFree = 8;
  static constexpr std::size_t kMaxRetainedBytes = std::size_t{1} << 20;

  struct Shelf {
    std::vector<std::vector<T>> free;
    std::size_t retained_bytes = 0;

    ~Shelf() {
      // Thread exit: the retained capacity leaves the process-wide gauge.
      detail::pool_counters().bytes_retained.fetch_sub(
          static_cast<std::int64_t>(retained_bytes), std::memory_order_relaxed);
    }
  };

  static Shelf& local_shelf() {
    thread_local Shelf shelf;
    return shelf;
  }
};

/// RAII scratch vector: acquires from the pool, releases on destruction.
/// Use exactly like a local std::vector<T> that happens to recycle its
/// storage.
template <class T>
class Scratch {
 public:
  /// Acquires a buffer with at least `min_capacity` elements reserved.
  explicit Scratch(std::size_t min_capacity = 0)
      : v_(ScratchPool<T>::acquire(min_capacity)) {}
  ~Scratch() { ScratchPool<T>::release(std::move(v_)); }

  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  /// The pooled vector (mutable view).
  std::vector<T>& operator*() { return v_; }
  /// Member access on the pooled vector (mutable view).
  std::vector<T>* operator->() { return &v_; }
  /// The pooled vector (const view).
  [[nodiscard]] const std::vector<T>& operator*() const { return v_; }
  /// Member access on the pooled vector (const view).
  [[nodiscard]] const std::vector<T>* operator->() const { return &v_; }

 private:
  std::vector<T> v_;
};

}  // namespace cryptodrop
