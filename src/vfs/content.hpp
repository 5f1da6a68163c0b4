// File content: the bytes of one version of a file plus one memo slot for
// what is derived from exactly those bytes.
//
// Volumes share content buffers copy-on-write (vfs/filesystem.hpp): a
// corpus file's buffer is the same object in the base volume, in every
// clone of it, and in every engine baseline captured from them. A value
// computed from the bytes alone (the similarity digest, see
// simhash/digest_cache.hpp) is therefore worth computing once per buffer
// and keeping beside it. A buffer is never mutated while anyone but its
// file node holds it, so the memo cannot go stale: every copy starts
// with an empty slot, and the one in-place write path empties the slot
// before it changes the bytes. vfs sits below the layers that fill the
// slot, so the slot is type-erased: it holds a ContentMemo whose concrete
// type only its filler knows.
#pragma once

#include <atomic>
#include <memory>
#include <utility>

#include "common/bytes.hpp"

namespace cryptodrop::vfs {

/// Base class of whatever a higher layer memoizes on a Content.
struct ContentMemo {
  virtual ~ContentMemo() = default;
};

/// A file's bytes plus a thread-safe, install-once memo slot. Converts to
/// `const Bytes&` and `ByteView` wherever bytes are expected.
class Content : public Bytes {
 public:
  Content() = default;
  /// Takes ownership of `bytes`; the memo slot starts empty.
  explicit Content(Bytes bytes) : Bytes(std::move(bytes)) {}
  /// Copies the bytes; the copy's memo slot starts empty.
  Content(const Content& other) : Bytes(other) {}
  Content& operator=(const Content&) = delete;
  ~Content() { delete memo_.load(std::memory_order_acquire); }

  /// The installed memo, or null.
  [[nodiscard]] const ContentMemo* memo() const {
    return memo_.load(std::memory_order_acquire);
  }

  /// Installs `memo` unless another install won first, in which case
  /// `memo` is freed. Safe from any number of threads.
  void install_memo(std::unique_ptr<const ContentMemo> memo) const {
    const ContentMemo* empty = nullptr;
    if (memo_.compare_exchange_strong(empty, memo.get(), std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      memo.release();
    }
  }

  /// Empties the slot before the bytes change in place. Only the
  /// buffer's sole owner may call this.
  void clear_memo() { delete memo_.exchange(nullptr, std::memory_order_acq_rel); }

 private:
  mutable std::atomic<const ContentMemo*> memo_{nullptr};
};

}  // namespace cryptodrop::vfs
