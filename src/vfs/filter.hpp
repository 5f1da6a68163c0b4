// Filesystem filter interface — the analogue of a Windows minifilter.
//
// CryptoDrop's kernel driver "interposes on calls between processes and
// the filesystem driver" (paper Fig. 2): every operation produces a
// pre-operation callback (which may deny it — this is how a suspended
// process is kept from touching the disk) and a post-operation callback
// carrying the outcome. Filters run in attach order for pre callbacks and
// in reverse order for post callbacks, mirroring filter-manager altitude
// stacking; the paper notes the ordering relative to other drivers does
// not matter for CryptoDrop.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace cryptodrop::vfs {

class FileSystem;

using FileId = std::uint64_t;     ///< Stable across rename/move (inode analogue).
using ProcessId = std::uint32_t;  ///< Assigned by FileSystem::register_process.
using HandleId = std::uint64_t;

inline constexpr FileId kNoFile = 0;

/// Open-mode bit flags.
enum OpenMode : unsigned {
  kRead = 1u << 0,
  kWrite = 1u << 1,
  kTruncate = 1u << 2,  ///< Clear existing content at open (implies kWrite).
  kCreate = 1u << 3,    ///< Create if missing (implies kWrite).
};

/// The operation kinds a filter can observe or deny.
enum class OpType : std::uint8_t {
  open,
  read,
  write,
  truncate,
  close,
  remove,
  rename,
  mkdir,
};

/// Every OpType, in declaration order.
inline constexpr std::array<OpType, 8> kOpTypes = {
    OpType::open,   OpType::read,   OpType::write,  OpType::truncate,
    OpType::close,  OpType::remove, OpType::rename, OpType::mkdir};

/// One filesystem operation as seen by the filter stack.
///
/// Field validity by op:
///  - open:    path, file_id (kNoFile when creating), open_mode;
///             `handle` = the handle created (assigned during apply, so
///             it is 0 in pre callbacks and set in post callbacks)
///  - read:    path, file_id, handle, offset; `data` = bytes read (post only)
///  - write:   path, file_id, handle, offset, `data` = bytes to be written;
///             `length` = bytes the caller requested. A stacked filter may
///             shrink `data` to a prefix in its pre callback (a short
///             write): the filesystem applies, and post callbacks see,
///             only the surviving `data` bytes
///  - truncate:path, file_id, handle, length = new size
///  - close:   path, file_id, handle, wrote = any write/truncate happened
///             on the handle, wrote_bytes = total bytes written through it
///  - remove:  path, file_id
///  - rename:  path (source), file_id, dest_path, dest_file_id (kNoFile
///             when the destination does not exist / is not replaced)
///  - mkdir:   path
struct OperationEvent {
  OpType op{};
  ProcessId pid{};
  /// Virtual-clock timestamp (µs) at which the operation was issued.
  std::uint64_t timestamp = 0;
  std::string process_name;
  std::string path;
  FileId file_id = kNoFile;
  unsigned open_mode = 0;
  /// Handle the operation ran through (0 for handle-less ops). For open,
  /// the handle being created — recorded traces use it to reconstruct
  /// handle lifetimes exactly on replay (vfs/trace.hpp ExactReplayer).
  HandleId handle = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  ByteView data{};
  std::string dest_path;
  FileId dest_file_id = kNoFile;
  bool wrote = false;
  std::uint64_t wrote_bytes = 0;
};

/// Pre-operation decision: deny short-circuits the dispatch.
enum class Verdict : std::uint8_t { allow, deny };

/// Base class for all filters. Callbacks default to allow/no-op so a
/// filter overrides only what it watches. Filters may read file content
/// out-of-band through the FileSystem's unfiltered accessors (the paper's
/// driver does the same "using the kernel code").
class Filter {
 public:
  virtual ~Filter() = default;

  /// Called before the operation is applied. Returning deny fails the
  /// operation with Errc::access_denied and suppresses post callbacks.
  /// Pre callbacks may read the volume but must not change it:
  /// FileSystem::open resolves its path once, before they run.
  virtual Verdict pre_operation(const OperationEvent& event) {
    (void)event;
    return Verdict::allow;
  }

  /// The mutating/full-status variant of the pre callback — what the
  /// filter manager actually invokes. A filter may fail the operation
  /// with any status (not just access_denied; a fault filter returns
  /// io_error) and may mutate the event within its documented contract
  /// (shrinking a write's `data` to a prefix models a short write).
  /// Like pre_operation(), it must not change the volume.
  /// Default: bridges to pre_operation(), so ordinary filters override
  /// only the const form.
  virtual Status pre_operation_mut(OperationEvent& event) {
    if (pre_operation(event) == Verdict::deny) {
      return Status(Errc::access_denied, "denied by filter");
    }
    return Status::ok();
  }

  /// Called after the operation was applied (success or failure).
  virtual void post_operation(const OperationEvent& event, const Status& outcome) {
    (void)event;
    (void)outcome;
  }

  /// Invoked when the filter is attached; gives the filter its unfiltered
  /// view of the volume.
  virtual void on_attach(FileSystem& fs) { (void)fs; }

  /// Short stable identifier for observability: the `filter` arg on this
  /// filter's per-operation spans (obs/span.hpp) and log lines. Must
  /// return a view with static storage duration.
  [[nodiscard]] virtual std::string_view filter_name() const {
    return "filter";
  }
};

/// Short mnemonic for logs ("open", "write", ...).
inline std::string_view op_name(OpType op) {
  switch (op) {
    case OpType::open: return "open";
    case OpType::read: return "read";
    case OpType::write: return "write";
    case OpType::truncate: return "truncate";
    case OpType::close: return "close";
    case OpType::remove: return "remove";
    case OpType::rename: return "rename";
    case OpType::mkdir: return "mkdir";
  }
  return "?";
}

}  // namespace cryptodrop::vfs
