// Rank-checked mutexes: the runtime half of the project's lock-order
// contract (DESIGN.md §13; the static half is tools/lint).
//
// Every long-lived mutex in the repo is a RankedMutex<Rank> whose rank
// comes from the table in `lockrank` below. The contract a thread must
// obey: acquire mutexes in strictly increasing rank order. Two locks of
// one rank are never held together.
//
// In a -DCRYPTODROP_CHECK=ON build (the TSan CI job enables it) each
// thread keeps a rank stack of the locks it holds; an out-of-order
// acquisition prints both locks and calls std::abort(). In a normal
// build the wrapper is a zero-cost passthrough — lock()/unlock()
// compile to the underlying std::mutex calls and the object layout is
// exactly the underlying mutex (static_asserted in tests).
//
// The checked/unchecked choice is the template parameter `Checked`,
// defaulted from the CRYPTODROP_CHECK macro. Because it is part of the
// type, a test TU may instantiate a checked mutex explicitly
// (RankedMutex<N, true>) without rebuilding the libraries, and mixed
// translation units never violate the ODR.
#pragma once

#include <array>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace cryptodrop::common {

/// The project lock-rank table (DESIGN.md §13 documents the why of
/// each ordering edge). A thread holding rank R may only acquire
/// ranks > R.
namespace lockrank {
/// Harness runner: first-trial-error slot (leaf; held a few stores).
inline constexpr unsigned kRunnerError = 1;
/// Harness runner: progress-callback serialization. Below every engine
/// rank because a progress callback may query an engine.
inline constexpr unsigned kRunnerProgress = 2;
/// Daemon tenant registry (attach/detach/lookup). Below every engine
/// rank: attach constructs an engine (which registers metrics, rank 50)
/// while holding it.
inline constexpr unsigned kDaemonRegistry = 3;
/// Daemon ingestion queue (push/pop/drain). Below every engine rank;
/// workers release it before executing an op through a tenant's engine.
inline constexpr unsigned kDaemonQueue = 4;
/// Daemon event journal (telemetry ring). Held only for one bounded
/// push or copy-out — never across queue, registry or engine work —
/// but ranked below the engine so the suspension alert callback (which
/// runs with no engine lock held) and worker-loop appends compose.
inline constexpr unsigned kDaemonJournal = 5;
/// The analysis engine's one lock (scoreboard, file baselines, pid
/// keys): every engine callback and every engine query takes it once.
inline constexpr unsigned kEngine = 10;
/// MetricsRegistry registration/snapshot lock (never on the op path).
inline constexpr unsigned kMetricsRegistry = 50;
/// Span-tracer shard ring; a span close under the engine lock lands
/// here.
inline constexpr unsigned kSpanShard = 60;
/// Span-tracer forced-pid set; the verdict path takes it under the
/// engine lock.
inline constexpr unsigned kSpanForce = 62;
}  // namespace lockrank

#ifdef CRYPTODROP_CHECK
/// Build-wide default for the `Checked` template parameter below.
inline constexpr bool kLockCheckDefault = true;
#else
/// Build-wide default for the `Checked` template parameter below.
inline constexpr bool kLockCheckDefault = false;
#endif

namespace detail {

/// One acquisition on the calling thread's rank stack.
struct HeldLock {
  unsigned rank = 0;
  const void* mx = nullptr;
};

/// The calling thread's currently held ranked locks, in acquisition
/// order (the ordering contract keeps it increasing by rank).
/// Fixed capacity: nesting depth is bounded by the rank table, so the
/// lock acquisition path never touches the allocator — check_acquire
/// sits inside every hot-path lock (cryptodrop:hot purity gate).
struct HeldStack {
  static constexpr std::size_t kMaxDepth = 16;
  std::array<HeldLock, kMaxDepth> items{};
  std::size_t depth = 0;
};

/// The calling thread's rank stack.
inline HeldStack& held_stack() {
  thread_local HeldStack stack;
  return stack;
}

/// Validates one acquisition against the top of the rank stack and
/// pushes it. Aborts (with a diagnostic naming both ranks) on a
/// lock-order inversion or implausibly deep nesting.
inline void check_acquire(unsigned rank, const void* mx) {
  HeldStack& stack = held_stack();
  if (stack.depth > 0) {
    const HeldLock& top = stack.items[stack.depth - 1];
    if (rank <= top.rank) {
      std::fprintf(stderr,
                   "cryptodrop: lock-rank violation: acquiring rank %u "
                   "(%p) while holding rank %u (%p)\n",
                   rank, mx, top.rank, top.mx);
      std::abort();
    }
  }
  if (stack.depth == HeldStack::kMaxDepth) {
    std::fprintf(stderr,
                 "cryptodrop: lock nesting deeper than %zu ranked locks "
                 "— raise HeldStack::kMaxDepth if this is intentional\n",
                 HeldStack::kMaxDepth);
    std::abort();
  }
  stack.items[stack.depth++] = HeldLock{rank, mx};
}

/// Removes `mx` from the rank stack, wherever it sits (a thread may
/// release a lower-ranked lock before a higher-ranked one).
inline void note_release(const void* mx) {
  HeldStack& stack = held_stack();
  for (std::size_t i = stack.depth; i-- > 0;) {
    if (stack.items[i].mx == mx) {
      for (std::size_t j = i + 1; j < stack.depth; ++j) {
        stack.items[j - 1] = stack.items[j];
      }
      --stack.depth;
      return;
    }
  }
}

}  // namespace detail

/// std::mutex carrying a compile-time lock rank. Checked builds
/// validate every acquisition against the thread's rank stack;
/// unchecked builds are layout- and code-identical to std::mutex.
/// Satisfies Lockable (use std::lock_guard / std::unique_lock).
template <unsigned Rank, bool Checked = kLockCheckDefault>
class RankedMutex {
 public:
  /// This mutex's position in the lockrank table.
  static constexpr unsigned rank() { return Rank; }

  /// Blocking acquire; aborts on rank inversion when Checked.
  void lock() {
    if constexpr (Checked) detail::check_acquire(Rank, this);
    m_.lock();
  }

  /// Release; pops this mutex from the rank stack when Checked.
  void unlock() {
    m_.unlock();
    if constexpr (Checked) detail::note_release(this);
  }

  /// Non-blocking acquire. Even a try-acquire must respect the rank
  /// order (a successful out-of-order try is still a contract breach).
  bool try_lock() {
    if (!m_.try_lock()) return false;
    if constexpr (Checked) detail::check_acquire(Rank, this);
    return true;
  }

 private:
  std::mutex m_;  // lock-rank: Rank (carried by the enclosing template)
};

}  // namespace cryptodrop::common
