// Operation-trace recording and replay.
//
// Naming note: this header records and replays the *operations
// themselves* (an input log for §V-F replay experiments). It is NOT the
// span tracer — obs/span.hpp ("span tracing") records where wall-clock
// time goes *inside* each operation's causal chain and exports Chrome
// trace-event JSON. See docs/OBSERVABILITY.md for the distinction.
//
// Motivated by the paper's §V-F observation that CryptoDrop cannot be
// evaluated on passively collected activity logs: "techniques used in
// dynamic malware analysis (e.g., passively observing benign activity on
// a system and running the detector on it later) will not work since
// CryptoDrop needs to measure the user's documents before and after each
// change."
//
// The TraceRecorder can capture either a *content-carrying* trace
// (written bytes included — enough information to reproduce every
// engine measurement on replay) or a *metadata-only* trace (op, path,
// sizes — what a typical syscall logger keeps). ExactReplayer replaying
// the former against a clone of the original volume reproduces
// detection; the latter, its writes filled with zeros of the recorded
// length, demonstrably loses indicators. The text format is line-based
// and diff-friendly.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "vfs/filesystem.hpp"
#include "vfs/filter.hpp"

namespace cryptodrop::vfs {

/// One recorded operation, replayable.
struct TraceEntry {
  OpType op{};
  ProcessId pid = 0;
  std::uint64_t timestamp = 0;
  std::string path;
  std::string dest_path;
  unsigned open_mode = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  /// Handle the operation ran through (0 for handle-less ops and for
  /// traces recorded before the v2 format). Lets ExactReplayer
  /// reconstruct handle lifetimes instead of re-opening per op.
  HandleId handle = 0;
  /// Written bytes (empty in metadata-only traces or for non-writes).
  Bytes data;

  /// Field-by-field equality (what a serialize/parse round trip keeps).
  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

/// A filter that appends successful operations to a trace.
class TraceRecorder : public Filter {
 public:
  /// `capture_content` = content-carrying trace (write payloads kept).
  explicit TraceRecorder(bool capture_content)
      : capture_content_(capture_content) {}

  /// Appends one entry per successful filtered operation.
  void post_operation(const OperationEvent& event, const Status& outcome) override;
  /// Stable name used in spans and test output.
  [[nodiscard]] std::string_view filter_name() const override {
    return "op_recorder";
  }

  /// Everything recorded so far, in dispatch order.
  [[nodiscard]] const std::vector<TraceEntry>& entries() const { return entries_; }
  /// Drops the recording (between experiment phases).
  void clear() { entries_.clear(); }

 private:
  bool capture_content_;
  std::vector<TraceEntry> entries_;
};

/// Serializes one entry as a single line (no trailing newline) — the
/// unit the daemon control API ships ops in.
std::string serialize_trace_entry(const TraceEntry& entry);

/// Parses one serialized line (v1's 9 fields or v2's 10; the missing v1
/// handle field reads as 0). Returns nullopt on malformed input.
std::optional<TraceEntry> parse_trace_entry(std::string_view line);

/// Serializes a trace to the line-based text format.
std::string serialize_trace(const std::vector<TraceEntry>& entries);

/// Parses a serialized trace. Returns nullopt on malformed input.
std::optional<std::vector<TraceEntry>> parse_trace(std::string_view text);

/// Replays a *content-carrying, handle-carrying* trace exactly: handles
/// are kept open across entries (mapped recorded id -> live handle),
/// reads/writes are positioned with unfiltered seeks, and the virtual
/// clock is advanced so every replayed operation is stamped with its
/// recorded timestamp. Against an identical base volume this reproduces
/// the original filtered event stream bit-for-bit — the property the
/// daemon's verdict-parity gate rests on (docs/DAEMON.md).
///
/// Single-threaded, like the FileSystem it drives.
class ExactReplayer {
 public:
  /// Largest file a replayed write or truncate may produce. Entries
  /// can come from outside the program (daemon clients), and the volume
  /// keeps each file in one buffer, so an entry past this bound fails
  /// (Outcome::failed) instead of allocating what its numbers ask for.
  /// The simulator's largest file, 7-zip's archive of the whole 283 MiB
  /// corpus, stays under 130 MiB.
  static constexpr std::uint64_t kMaxFileBytes = std::uint64_t{1} << 30;

  /// Replays onto `fs` (non-owning; must outlive the replayer).
  explicit ExactReplayer(FileSystem& fs) : fs_(&fs) {}

  /// Pre-maps a recorded pid to a live pid (the daemon replays the
  /// original spawn sequence first). Unmapped pids are auto-registered
  /// as "replay_<pid>" on first use.
  void map_pid(ProcessId recorded, ProcessId live) { pids_[recorded] = live; }

  /// What happened to one replayed entry.
  enum class Outcome : std::uint8_t {
    applied,             ///< Operation ran and succeeded.
    failed,              ///< Operation ran and returned an error.
    skipped_dead_handle  ///< Entry referenced a handle whose open was
                         ///< dropped upstream (admission-control shed).
  };

  /// Replays one entry (clock sync + dispatch). Entries must arrive in
  /// recorded order.
  Outcome apply(const TraceEntry& entry);

  /// Marks a recorded handle dead without replaying its open — the
  /// daemon calls this when admission control sheds an open, so the
  /// handle's later reads/close skip instead of failing.
  void kill_handle(HandleId recorded) {
    if (recorded != 0) dead_.insert(recorded);
  }

 private:
  /// Live pid for a recorded pid (registering a stand-in on miss).
  ProcessId live_pid(ProcessId recorded);

  FileSystem* fs_;
  std::map<ProcessId, ProcessId> pids_;
  std::map<HandleId, Handle> handles_;
  std::set<HandleId> dead_;
};

}  // namespace cryptodrop::vfs
