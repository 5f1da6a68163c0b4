// In-memory filesystem with a minifilter-style interposition stack.
//
// This is the substrate standing in for NTFS + the Windows filter manager
// in the paper's architecture (Fig. 2). Key properties the analysis
// engine depends on:
//
//  * every namespace/data operation is attributed to a ProcessId and
//    flows through the attached filters (pre: may deny; post: observes);
//  * each file has a stable FileId that survives rename/move — the paper
//    stresses that "the state of the file must be carefully tracked each
//    time a file is moved" (Class B/C ransomware);
//  * the namespace has two layers: an immutable base (file map + directory
//    set) shared by every volume cloned from it, and a private delta of
//    file overrides, tombstones and added directories. Cloning a volume
//    whose delta is empty shares the base in O(1), replacing the paper's
//    VM snapshot revert; a volume tears down in O(files it touched). A
//    built base is never mutated, so concurrent clones need no lock;
//  * file content is copy-on-write (shared_ptr<const Content>): a
//    volume's first write to a file its base holds copies the buffer,
//    and the copy starts with an empty memo slot (vfs/content.hpp);
//  * read-only files refuse writes and deletion (the GPcode sample in
//    §V-C was "uniquely unable to work around" read-only test files).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "vfs/content.hpp"
#include "vfs/filter.hpp"
#include "vfs/path.hpp"

namespace cryptodrop::obs {
class SpanTracer;
}  // namespace cryptodrop::obs

namespace cryptodrop::vfs {

/// Result of stat().
struct FileInfo {
  FileId id = kNoFile;
  std::uint64_t size = 0;
  bool read_only = false;
};

/// One immediate child of a directory.
struct DirEntry {
  std::string name;  ///< Component name, not full path.
  bool is_directory = false;
  std::uint64_t size = 0;  ///< 0 for directories.
};

/// Open-file handle value. Obtained from open(), released by close().
struct Handle {
  HandleId id = 0;
  /// Nonzero iff the open succeeded.
  explicit operator bool() const { return id != 0; }
};

/// Per-op-type counters (cheap instrumentation for tests and benches).
struct OpCounters {
  std::uint64_t opens = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t closes = 0;
  std::uint64_t removes = 0;
  std::uint64_t renames = 0;
};

/// The volume: namespace tree, file content, processes, handles and
/// the attached filter stack, all behind one dispatch point.
class FileSystem {
 public:
  /// An empty volume containing only the root directory.
  FileSystem();
  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;
  FileSystem(FileSystem&&) = default;
  FileSystem& operator=(FileSystem&&) = default;

  /// Copy of the volume's namespace and content, like a reverted VM
  /// snapshot. When this volume has no private changes (an empty delta)
  /// the clone shares its base layer: O(1). Otherwise the clone gets one
  /// new base that folds this volume's delta into its base: O(files),
  /// with content buffers shared, not copied. Neither case modifies this
  /// volume, so concurrent clone() calls on one volume are safe. Keep a
  /// volume that is cloned many times in folded form (`v = v.clone()`
  /// once it is built). Filters, processes, open handles, the clock and
  /// the counters are NOT copied: the clone starts pristine.
  [[nodiscard]] FileSystem clone() const;

  // --- processes -----------------------------------------------------

  /// Registers a named process and returns its id (ids are never reused).
  /// `parent` links the process into a process tree (0 = no parent) —
  /// the analysis engine scores and suspends whole families ("the
  /// suspicious process (or family of processes)").
  ProcessId register_process(std::string name, ProcessId parent = 0);
  /// Display name given at register_process(); "" for unknown pids.
  [[nodiscard]] std::string_view process_name(ProcessId pid) const;
  /// Number of processes ever registered (pids are dense: 1..count).
  [[nodiscard]] std::size_t process_count() const { return processes_.size(); }
  /// Parent id, or 0 for root processes / unknown pids.
  [[nodiscard]] ProcessId process_parent(ProcessId pid) const;
  /// Topmost ancestor of `pid` (itself when parentless).
  [[nodiscard]] ProcessId process_family_root(ProcessId pid) const;

  // --- filter stack ----------------------------------------------------

  /// Attaches a non-owning filter at the bottom of the stack. The caller
  /// keeps the filter alive while attached.
  void attach_filter(Filter* filter);
  /// Detaches a previously attached filter (no-op when absent).
  void detach_filter(Filter* filter);

  // --- span tracing ----------------------------------------------------

  /// Points dispatch at a span tracer (non-owning; null disables, the
  /// default). Every filtered operation then opens a `vfs.dispatch` root
  /// span with one child span per filter callback (obs/span.hpp). Set
  /// this *before* attaching filters: filters pick the tracer up in
  /// on_attach() to nest their own stage spans.
  void set_span_tracer(obs::SpanTracer* tracer) { span_tracer_ = tracer; }
  /// The attached span tracer, or null when tracing is off.
  [[nodiscard]] obs::SpanTracer* span_tracer() const { return span_tracer_; }

  // --- filtered operations (the "disk requests" of Fig. 2) -------------

  /// Creates a directory; parents must already exist.
  Status mkdir(ProcessId pid, std::string_view raw_path);
  /// Opens (or creates, mode-dependent) a file. See vfs/filter.hpp
  /// for the kRead/kWrite/kCreate/kTruncate mode bits.
  Result<Handle> open(ProcessId pid, std::string_view raw_path, unsigned mode);
  /// Reads up to `n` bytes from the handle position, advancing it.
  Result<Bytes> read(ProcessId pid, Handle h, std::size_t n);
  /// Writes at the handle position, advancing it; extends the file as
  /// needed. Requires kWrite mode.
  Status write(ProcessId pid, Handle h, ByteView data);
  /// Sets the file size (shrink or zero-extend). Requires kWrite mode.
  Status truncate(ProcessId pid, Handle h, std::uint64_t new_size);
  /// Repositions the handle. Positions past EOF are allowed.
  Status seek(ProcessId pid, Handle h, std::uint64_t pos);
  /// Releases the handle, firing the close post-callbacks filters
  /// score on (the paper's analysis point for completed writes).
  Status close(ProcessId pid, Handle h);
  /// Deletes a file or empty directory.
  Status remove(ProcessId pid, std::string_view raw_path);
  /// Moves/renames a file; silently replaces an existing destination file
  /// (MoveFileEx + MOVEFILE_REPLACE_EXISTING semantics). Directories
  /// cannot be renamed. A read-only destination refuses replacement.
  Status rename(ProcessId pid, std::string_view raw_from, std::string_view raw_to);

  // --- filtered conveniences (compose open/read/write/close) -----------

  /// Whole-file read: open(kRead) + read-to-EOF + close.
  Result<Bytes> read_file(ProcessId pid, std::string_view raw_path);
  /// Whole-file write: open(kWrite|kCreate|kTruncate) + write + close.
  Status write_file(ProcessId pid, std::string_view raw_path, ByteView data);

  // --- unfiltered inspection (host / engine / tests) -------------------

  /// True when a file or directory exists at the path.
  [[nodiscard]] bool exists(std::string_view raw_path) const;
  /// True when the path names a directory.
  [[nodiscard]] bool is_directory(std::string_view raw_path) const;
  /// Metadata for a file or directory, without filter traffic.
  [[nodiscard]] Result<FileInfo> stat(std::string_view raw_path) const;
  /// Current content of a file, bypassing the filter stack (what the
  /// paper's driver does when a locked file must be inspected "using the
  /// kernel code"). Returns nullptr when the path is not a file. The
  /// buffer is shared, not copied, and never changes while it is held.
  [[nodiscard]] std::shared_ptr<const Content> read_unfiltered(std::string_view raw_path) const;
  /// Immediate children of a directory, names sorted.
  [[nodiscard]] std::vector<DirEntry> list(std::string_view raw_path) const;
  /// All file paths under `raw_path` (inclusive subtree), sorted.
  [[nodiscard]] std::vector<std::string> list_files_recursive(std::string_view raw_path) const;
  /// All directory paths under `raw_path`, excluding `raw_path` itself.
  [[nodiscard]] std::vector<std::string> list_dirs_recursive(std::string_view raw_path) const;

  /// Number of files on the volume.
  [[nodiscard]] std::size_t file_count() const { return file_count_; }
  /// Number of directories, counting the root.
  [[nodiscard]] std::size_t dir_count() const {
    return base_->dirs.size() + delta_dirs_.size();
  }
  /// Handles currently open across all processes.
  [[nodiscard]] std::size_t open_handle_count() const { return handles_.size(); }
  /// Per-op-type totals since construction.
  [[nodiscard]] const OpCounters& counters() const { return counters_; }

  // --- virtual clock ---------------------------------------------------

  /// Simulated time in microseconds. Every filtered operation advances it
  /// by `kOpCostMicros`; workloads add their own think-time with
  /// advance_time(). Deterministic, unlike wall-clock time — which is
  /// what lets rate-based experiments (§V-F's time-window discussion)
  /// reproduce exactly.
  [[nodiscard]] std::uint64_t now_micros() const { return clock_micros_; }
  /// Advances the simulated clock (workload think-time).
  void advance_time(std::uint64_t micros) { clock_micros_ += micros; }

  /// Simulated cost of one filesystem operation (~50 µs, the order of a
  /// buffered syscall + page-cache hit).
  static constexpr std::uint64_t kOpCostMicros = 50;

  // --- unfiltered mutation (corpus construction) -----------------------

  /// Creates a file (parents included) without filter traffic — used to
  /// lay down the test corpus before any monitored process runs.
  Status put_file_raw(std::string_view raw_path, Bytes data, bool read_only = false);
  /// Creates a directory chain without filter traffic.
  Status mkdir_raw(std::string_view raw_path);
  /// Flips the read-only bit (corpus setup for §V-C-style tests).
  Status set_read_only(std::string_view raw_path, bool read_only);

 private:
  struct FileNode {
    std::shared_ptr<const Content> data;  // null only in a delta tombstone
    FileId id = kNoFile;
    bool read_only = false;
  };

  /// The shared, immutable base of one or more volumes.
  struct Layer {
    std::map<std::string, FileNode> files;
    std::set<std::string, std::less<>> dirs;  // always contains "" (root)
  };

  struct OpenHandle {
    std::string path;
    FileId file_id = kNoFile;
    ProcessId pid = 0;
    unsigned mode = 0;
    std::uint64_t pos = 0;
    bool wrote = false;
    std::uint64_t wrote_bytes = 0;
  };

  /// Runs pre callbacks in attach order; deny wins. On allow, `apply` is
  /// invoked and post callbacks run in reverse order with its outcome.
  template <typename ApplyFn>
  Status run_filtered(OperationEvent& event, ApplyFn&& apply);

  /// The root-only base every new volume starts from.
  static const std::shared_ptr<const Layer>& root_layer();

  Result<std::string> check_path(std::string_view raw) const;
  /// The live file at `path` (delta first, then base); null when absent.
  const FileNode* find_file(const std::string& path) const;
  /// The delta's own node for the live file at `path`, copied up from the
  /// base on first use; null when absent. The only way to mutate a node.
  FileNode* own_file(const std::string& path);
  /// own_file() for a node already resolved by find_file().
  FileNode& own_file(const std::string& path, const FileNode& live);
  /// Adds `node` at `path`, which must not hold a live file.
  void create_file(const std::string& path, FileNode node);
  /// Removes the live file at `path`.
  void erase_file(const std::string& path);
  /// Visits live files with path >= `from` in path order until `fn`
  /// returns false.
  template <typename Fn>
  void for_each_file(const std::string& from, Fn&& fn) const;
  [[nodiscard]] bool has_dir(const std::string& path) const;
  void add_dir(const std::string& path);
  Status ensure_parents(const std::string& path);

  std::shared_ptr<const Layer> base_;  // never mutated once built
  // The private delta over base_: a null-data node is a tombstone hiding
  // a base file; delta_dirs_ holds only directories absent from the base
  // (directories are never removed or renamed).
  std::map<std::string, FileNode> delta_files_;
  std::set<std::string, std::less<>> delta_dirs_;
  std::size_t file_count_ = 0;  // live files across both layers
  struct ProcessInfo {
    std::string name;
    ProcessId parent = 0;
  };

  std::map<HandleId, OpenHandle> handles_;
  std::vector<Filter*> filters_;
  obs::SpanTracer* span_tracer_ = nullptr;
  std::vector<ProcessInfo> processes_;  // index = pid - 1
  FileId next_file_id_ = 1;
  HandleId next_handle_id_ = 1;
  OpCounters counters_;
  std::uint64_t clock_micros_ = 0;
};

}  // namespace cryptodrop::vfs
