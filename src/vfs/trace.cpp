#include "vfs/trace.hpp"

#include <array>
#include <charconv>
#include <utility>

#include "common/hex.hpp"

namespace cryptodrop::vfs {

void TraceRecorder::post_operation(const OperationEvent& event, const Status& outcome) {
  if (!outcome.is_ok()) return;
  TraceEntry entry;
  entry.op = event.op;
  entry.pid = event.pid;
  entry.timestamp = event.timestamp;
  entry.path = event.path;
  entry.dest_path = event.dest_path;
  entry.open_mode = event.open_mode;
  entry.offset = event.offset;
  entry.length = event.op == OpType::read || event.op == OpType::write
                     ? event.data.size()
                     : event.length;
  entry.handle = event.handle;
  if (capture_content_ && event.op == OpType::write) {
    entry.data.assign(event.data.begin(), event.data.end());
  }
  entries_.push_back(std::move(entry));
}

namespace {

/// Paths may contain anything but newline in this VFS; escape the field
/// separator and newlines.
std::string escape_field(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '|': out += "\\p"; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::optional<std::string> unescape_field(std::string_view s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    if (++i >= s.size()) return std::nullopt;
    switch (s[i]) {
      case 'p': out.push_back('|'); break;
      case '\\': out.push_back('\\'); break;
      case 'n': out.push_back('\n'); break;
      default: return std::nullopt;
    }
  }
  return out;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<OpType> op_from_name(std::string_view name) {
  for (OpType op : kOpTypes) {
    if (op_name(op) == name) return op;
  }
  return std::nullopt;
}

}  // namespace

std::string serialize_trace_entry(const TraceEntry& entry) {
  std::string out;
  out += std::string(op_name(entry.op));
  out += '|';
  out += std::to_string(entry.pid);
  out += '|';
  out += std::to_string(entry.timestamp);
  out += '|';
  out += escape_field(entry.path);
  out += '|';
  out += escape_field(entry.dest_path);
  out += '|';
  out += std::to_string(entry.open_mode);
  out += '|';
  out += std::to_string(entry.offset);
  out += '|';
  out += std::to_string(entry.length);
  out += '|';
  out += std::to_string(entry.handle);
  out += '|';
  out += hex_encode(ByteView(entry.data));
  return out;
}

std::string serialize_trace(const std::vector<TraceEntry>& entries) {
  std::string out = "# cryptodrop trace v2\n";
  for (const TraceEntry& entry : entries) {
    out += serialize_trace_entry(entry);
    out += '\n';
  }
  return out;
}

std::optional<TraceEntry> parse_trace_entry(std::string_view line) {
  // '|' is escaped inside fields as "\p", so raw '|' is a separator.
  // v1 lines have 9 fields; v2 inserts `handle` before the payload.
  std::array<std::string_view, 10> fields;
  std::size_t count = 0;
  for (std::size_t start = 0;;) {
    if (count == fields.size()) return std::nullopt;
    const std::size_t bar = line.find('|', start);
    fields[count++] = line.substr(start, bar - start);
    if (bar == std::string_view::npos) break;
    start = bar + 1;
  }
  const bool v2 = count == 10;
  if (count != 9 && !v2) return std::nullopt;

  const auto op = op_from_name(fields[0]);
  const auto pid = parse_u64(fields[1]);
  const auto timestamp = parse_u64(fields[2]);
  auto path = unescape_field(fields[3]);
  auto dest = unescape_field(fields[4]);
  const auto mode = parse_u64(fields[5]);
  const auto offset = parse_u64(fields[6]);
  const auto length = parse_u64(fields[7]);
  const auto handle = v2 ? parse_u64(fields[8]) : std::optional<std::uint64_t>(0);
  auto data = hex_decode(fields[v2 ? 9 : 8]);
  if (!op || !pid || !timestamp || !path || !dest || !mode || !offset ||
      !length || !handle || !data) {
    return std::nullopt;
  }
  TraceEntry entry;
  entry.op = *op;
  entry.pid = static_cast<ProcessId>(*pid);
  entry.timestamp = *timestamp;
  entry.path = std::move(*path);
  entry.dest_path = std::move(*dest);
  entry.open_mode = static_cast<unsigned>(*mode);
  entry.offset = *offset;
  entry.length = *length;
  entry.handle = *handle;
  entry.data = std::move(*data);
  return entry;
}

std::optional<std::vector<TraceEntry>> parse_trace(std::string_view text) {
  std::vector<TraceEntry> entries;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    std::optional<TraceEntry> entry = parse_trace_entry(line);
    if (!entry) return std::nullopt;
    entries.push_back(std::move(*entry));
  }
  return entries;
}

ProcessId ExactReplayer::live_pid(ProcessId recorded) {
  auto it = pids_.find(recorded);
  if (it != pids_.end()) return it->second;
  const ProcessId fresh =
      fs_->register_process("replay_" + std::to_string(recorded));
  pids_.emplace(recorded, fresh);
  return fresh;
}

ExactReplayer::Outcome ExactReplayer::apply(const TraceEntry& entry) {
  FileSystem& fs = *fs_;
  // Clock sync: the recorded timestamp was stamped *after* the op's own
  // kOpCostMicros advance, so park the clock kOpCostMicros short of it.
  // Gaps cover both workload think-time and ops that advanced the
  // original clock without being recorded (engine-denied attempts).
  const std::uint64_t now = fs.now_micros();
  if (entry.timestamp > now + FileSystem::kOpCostMicros) {
    fs.advance_time(entry.timestamp - FileSystem::kOpCostMicros - now);
  }

  if (entry.handle != 0 && dead_.count(entry.handle) != 0) {
    if (entry.op == OpType::close) dead_.erase(entry.handle);
    return Outcome::skipped_dead_handle;
  }

  const ProcessId pid = live_pid(entry.pid);
  Status status = Status::ok();
  switch (entry.op) {
    case OpType::mkdir:
      status = fs.mkdir(pid, entry.path);
      break;
    case OpType::open: {
      auto h = fs.open(pid, entry.path, entry.open_mode);
      if (!h) {
        // The open failed here although it succeeded when recorded —
        // later ops on this handle cannot replay either.
        kill_handle(entry.handle);
        status = h.status();
        break;
      }
      if (entry.handle != 0) handles_[entry.handle] = h.value();
      break;
    }
    case OpType::read:
    case OpType::write:
    case OpType::truncate:
    case OpType::close: {
      auto it = handles_.find(entry.handle);
      if (it == handles_.end()) return Outcome::skipped_dead_handle;
      const Handle h = it->second;
      if (entry.op == OpType::read) {
        // seek is unfiltered (no event, no clock cost): position the
        // handle exactly where the recorded read started.
        (void)fs.seek(pid, h, entry.offset);
        auto data = fs.read(pid, h, static_cast<std::size_t>(entry.length));
        status = data ? Status::ok() : data.status();
      } else if (entry.op == OpType::write) {
        if (entry.data.size() > kMaxFileBytes ||
            entry.offset > kMaxFileBytes - entry.data.size()) {
          return Outcome::failed;
        }
        (void)fs.seek(pid, h, entry.offset);
        status = fs.write(pid, h, ByteView(entry.data));
      } else if (entry.op == OpType::truncate) {
        if (entry.length > kMaxFileBytes) return Outcome::failed;
        status = fs.truncate(pid, h, entry.length);
      } else {
        status = fs.close(pid, h);
        handles_.erase(it);
      }
      break;
    }
    case OpType::remove:
      status = fs.remove(pid, entry.path);
      break;
    case OpType::rename:
      status = fs.rename(pid, entry.path, entry.dest_path);
      break;
  }
  return status.is_ok() ? Outcome::applied : Outcome::failed;
}

}  // namespace cryptodrop::vfs
