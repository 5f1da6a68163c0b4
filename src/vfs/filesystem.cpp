#include "vfs/filesystem.hpp"

#include <algorithm>
#include <cassert>

#include "obs/span.hpp"

namespace cryptodrop::vfs {

FileSystem::FileSystem() : base_(root_layer()) {}

const std::shared_ptr<const FileSystem::Layer>& FileSystem::root_layer() {
  static const std::shared_ptr<const Layer> root =
      std::make_shared<const Layer>(Layer{{}, {std::string()}});
  return root;
}

FileSystem FileSystem::clone() const {
  FileSystem out;
  if (delta_files_.empty() && delta_dirs_.empty()) {
    out.base_ = base_;
  } else {
    // Fold the delta into one new base. FileNode copies share the content
    // buffers, so a later write on either side takes the copying path.
    auto folded = std::make_shared<Layer>();
    for_each_file(std::string(), [&](const std::string& path, const FileNode& node) {
      folded->files.emplace_hint(folded->files.end(), path, node);
      return true;
    });
    folded->dirs = base_->dirs;
    folded->dirs.insert(delta_dirs_.begin(), delta_dirs_.end());
    out.base_ = std::move(folded);
  }
  out.file_count_ = file_count_;
  out.next_file_id_ = next_file_id_;
  return out;
}

ProcessId FileSystem::register_process(std::string name, ProcessId parent) {
  if (parent > processes_.size()) parent = 0;  // unknown parent: detach
  processes_.push_back(ProcessInfo{std::move(name), parent});
  return static_cast<ProcessId>(processes_.size());
}

std::string_view FileSystem::process_name(ProcessId pid) const {
  if (pid == 0 || pid > processes_.size()) return "<unknown>";
  return processes_[pid - 1].name;
}

ProcessId FileSystem::process_parent(ProcessId pid) const {
  if (pid == 0 || pid > processes_.size()) return 0;
  return processes_[pid - 1].parent;
}

ProcessId FileSystem::process_family_root(ProcessId pid) const {
  ProcessId current = pid;
  // Parents always predate children (ids are registration order), so
  // this walk terminates.
  while (true) {
    const ProcessId parent = process_parent(current);
    if (parent == 0 || parent == current) return current;
    current = parent;
  }
}

void FileSystem::attach_filter(Filter* filter) {
  assert(filter != nullptr);
  filters_.push_back(filter);
  filter->on_attach(*this);
}

void FileSystem::detach_filter(Filter* filter) {
  filters_.erase(std::remove(filters_.begin(), filters_.end(), filter),
                 filters_.end());
}

template <typename ApplyFn>
Status FileSystem::run_filtered(OperationEvent& event, ApplyFn&& apply) {
  clock_micros_ += kOpCostMicros;
  event.timestamp = clock_micros_;
  event.process_name = std::string(process_name(event.pid));
  // Root span for the whole operation. Its op index is the virtual-clock
  // tick (strictly increasing per filtered op on this volume), so span
  // identity is deterministic at any job count.
  obs::ScopedSpan op_span(span_tracer_, obs::span_name::kDispatch, event.pid,
                          event.timestamp / kOpCostMicros);
  if (op_span.active()) {
    op_span.arg("op", op_name(event.op));
    op_span.arg("path", event.path);
    if (event.op == OpType::write) {
      op_span.arg("bytes", static_cast<double>(event.data.size()));
    }
  }
  std::size_t ran = 0;
  for (; ran < filters_.size(); ++ran) {
    Status verdict;
    {
      obs::ScopedSpan pre_span(obs::span_name::kFilterPre);
      if (pre_span.active()) {
        pre_span.arg("filter", filters_[ran]->filter_name());
      }
      verdict = filters_[ran]->pre_operation_mut(event);
      if (!verdict.is_ok() && pre_span.active()) {
        pre_span.arg("status", errc_name(verdict.code()));
      }
    }
    if (!verdict.is_ok()) {
      // Filters that already saw the pre callback observe the failure.
      for (std::size_t i = ran + 1; i-- > 0;) {
        obs::ScopedSpan post_span(obs::span_name::kFilterPost);
        if (post_span.active()) {
          post_span.arg("filter", filters_[i]->filter_name());
        }
        filters_[i]->post_operation(event, verdict);
      }
      return verdict;
    }
  }
  Status outcome = apply();
  for (std::size_t i = filters_.size(); i-- > 0;) {
    obs::ScopedSpan post_span(obs::span_name::kFilterPost);
    if (post_span.active()) {
      post_span.arg("filter", filters_[i]->filter_name());
    }
    filters_[i]->post_operation(event, outcome);
  }
  return outcome;
}

Result<std::string> FileSystem::check_path(std::string_view raw) const {
  auto norm = normalize_path(raw);
  if (!norm) {
    return Status(Errc::invalid_argument, "bad path: " + std::string(raw));
  }
  return *std::move(norm);
}

const FileSystem::FileNode* FileSystem::find_file(const std::string& path) const {
  if (!delta_files_.empty()) {
    auto it = delta_files_.find(path);
    if (it != delta_files_.end()) {
      return it->second.data != nullptr ? &it->second : nullptr;
    }
  }
  auto it = base_->files.find(path);
  return it == base_->files.end() ? nullptr : &it->second;
}

FileSystem::FileNode* FileSystem::own_file(const std::string& path) {
  auto it = delta_files_.lower_bound(path);
  if (it != delta_files_.end() && it->first == path) {
    return it->second.data != nullptr ? &it->second : nullptr;
  }
  auto base_it = base_->files.find(path);
  if (base_it == base_->files.end()) return nullptr;
  return &delta_files_.emplace_hint(it, path, base_it->second)->second;
}

FileSystem::FileNode& FileSystem::own_file(const std::string& path, const FileNode& live) {
  // `live` is either this very delta entry or the base node to copy up.
  return delta_files_.try_emplace(path, live).first->second;
}

void FileSystem::create_file(const std::string& path, FileNode node) {
  delta_files_.insert_or_assign(path, std::move(node));  // over any tombstone
  ++file_count_;
}

void FileSystem::erase_file(const std::string& path) {
  if (base_->files.contains(path)) {
    delta_files_.insert_or_assign(path, FileNode{});
  } else {
    delta_files_.erase(path);
  }
  --file_count_;
}

template <typename Fn>
void FileSystem::for_each_file(const std::string& from, Fn&& fn) const {
  auto b = base_->files.lower_bound(from);
  auto d = delta_files_.lower_bound(from);
  const auto b_end = base_->files.end();
  const auto d_end = delta_files_.end();
  while (b != b_end || d != d_end) {
    if (d == d_end || (b != b_end && b->first < d->first)) {
      if (!fn(b->first, b->second)) return;
      ++b;
      continue;
    }
    // A delta entry overrides (or, as a tombstone, hides) its base file.
    if (b != b_end && b->first == d->first) ++b;
    if (d->second.data != nullptr && !fn(d->first, d->second)) return;
    ++d;
  }
}

bool FileSystem::has_dir(const std::string& path) const {
  return base_->dirs.contains(path) ||
         (!delta_dirs_.empty() && delta_dirs_.contains(path));
}

void FileSystem::add_dir(const std::string& path) {
  if (!base_->dirs.contains(path)) delta_dirs_.insert(path);
}

Status FileSystem::ensure_parents(const std::string& path) {
  const std::string parent = path_parent(path);
  if (has_dir(parent)) return Status::ok();
  if (find_file(parent) != nullptr) {
    return Status(Errc::not_a_directory, parent);
  }
  // Create missing ancestors top-down.
  std::string acc;
  for (const auto comp : path_components(parent)) {
    acc = path_join(acc, std::string(comp));
    if (find_file(acc) != nullptr) return Status(Errc::not_a_directory, acc);
    add_dir(acc);
  }
  return Status::ok();
}

// --------------------------------------------------------------------
// Filtered operations
// --------------------------------------------------------------------

Status FileSystem::mkdir(ProcessId pid, std::string_view raw_path) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const std::string path = std::move(checked).value();

  OperationEvent event;
  event.op = OpType::mkdir;
  event.pid = pid;
  event.path = path;
  return run_filtered(event, [&]() -> Status {
    if (find_file(path) != nullptr) return Status(Errc::already_exists, path);
    if (has_dir(path)) return Status(Errc::already_exists, path);
    if (Status s = ensure_parents(path_join(path, "x")); !s.is_ok()) return s;
    add_dir(path);
    return Status::ok();
  });
}

Result<Handle> FileSystem::open(ProcessId pid, std::string_view raw_path, unsigned mode) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const std::string path = std::move(checked).value();

  if ((mode & (kTruncate | kCreate)) != 0) mode |= kWrite;
  if ((mode & (kRead | kWrite)) == 0) {
    return Status(Errc::invalid_argument, "open without read or write");
  }
  if (path.empty() || has_dir(path)) {
    return Status(Errc::is_a_directory, path);
  }

  // Resolved once: pre callbacks only read the volume, so `node` still
  // names the path's live file inside the filtered section.
  const FileNode* node = find_file(path);
  if (node == nullptr && (mode & kCreate) == 0) {
    return Status(Errc::not_found, path);
  }
  if (node != nullptr && node->read_only && (mode & kWrite) != 0) {
    return Status(Errc::read_only, path);
  }

  OperationEvent event;
  event.op = OpType::open;
  event.pid = pid;
  event.path = path;
  event.file_id = node != nullptr ? node->id : kNoFile;
  event.open_mode = mode;

  Handle handle;
  Status outcome = run_filtered(event, [&]() -> Status {
    OpenHandle oh;
    if (node == nullptr) {
      if (Status s = ensure_parents(path); !s.is_ok()) return s;
      FileNode fresh;
      fresh.data = std::make_shared<Content>();
      fresh.id = next_file_id_++;
      oh.file_id = fresh.id;
      create_file(path, std::move(fresh));
    } else {
      oh.file_id = node->id;
      if ((mode & kTruncate) != 0) own_file(path, *node).data = std::make_shared<Content>();
    }
    oh.path = path;
    oh.pid = pid;
    oh.mode = mode;
    handle.id = next_handle_id_++;
    // The event is shared with post callbacks: recorders below see the
    // handle the open produced (pre callbacks ran before it existed).
    event.handle = handle.id;
    handles_.emplace(handle.id, std::move(oh));
    ++counters_.opens;
    return Status::ok();
  });
  if (!outcome.is_ok()) return outcome;
  return handle;
}

Result<Bytes> FileSystem::read(ProcessId pid, Handle h, std::size_t n) {
  auto it = handles_.find(h.id);
  if (it == handles_.end() || it->second.pid != pid) {
    return Status(Errc::invalid_argument, "bad handle");
  }
  OpenHandle& oh = it->second;
  if ((oh.mode & kRead) == 0) {
    return Status(Errc::access_denied, "handle not open for read");
  }
  const FileNode* node = find_file(oh.path);
  if (node == nullptr) return Status(Errc::not_found, oh.path);

  // Compute the bytes up front so the post event can carry them; the
  // content pointer is stable during the filtered section.
  const Bytes& content = *node->data;
  const std::uint64_t start = std::min<std::uint64_t>(oh.pos, content.size());
  const std::size_t take = static_cast<std::size_t>(
      std::min<std::uint64_t>(n, content.size() - start));
  Bytes out(content.begin() + static_cast<std::ptrdiff_t>(start),
            content.begin() + static_cast<std::ptrdiff_t>(start + take));

  OperationEvent event;
  event.op = OpType::read;
  event.pid = pid;
  event.path = oh.path;
  event.file_id = oh.file_id;
  event.handle = h.id;
  event.offset = start;
  event.length = n;
  event.data = ByteView(out);

  Status outcome = run_filtered(event, [&]() -> Status {
    oh.pos = start + take;
    ++counters_.reads;
    return Status::ok();
  });
  if (!outcome.is_ok()) return outcome;
  return out;
}

Status FileSystem::write(ProcessId pid, Handle h, ByteView data) {
  auto it = handles_.find(h.id);
  if (it == handles_.end() || it->second.pid != pid) {
    return Status(Errc::invalid_argument, "bad handle");
  }
  OpenHandle& oh = it->second;
  if ((oh.mode & kWrite) == 0) {
    return Status(Errc::access_denied, "handle not open for write");
  }

  OperationEvent event;
  event.op = OpType::write;
  event.pid = pid;
  event.path = oh.path;
  event.file_id = oh.file_id;
  event.handle = h.id;
  event.offset = oh.pos;
  event.length = data.size();
  event.data = data;

  return run_filtered(event, [&]() -> Status {
    FileNode* node = own_file(oh.path);
    if (node == nullptr) return Status(Errc::not_found, oh.path);
    // Apply event.data, not the caller's buffer: a pre-callback filter
    // may have shrunk the event to a prefix (short write), and only the
    // surviving bytes may reach the disk.
    const ByteView put = event.data;
    const std::uint64_t end = oh.pos + put.size();
    // Copy-on-write with an exclusive-ownership fast path: when this
    // node is the only holder of the buffer (no base layer, no snapshot
    // clones, no engine baselines referencing it), mutate in place. A
    // base file's buffer is also held by the base node own_file() copied
    // up from, so it never qualifies. The fast path is what
    // keeps streamed multi-gigabyte appends O(n) instead of O(n^2).
    // Buffers are always *created* as mutable Content, so the const_cast
    // below never touches a genuinely const object. The memo describes
    // the old bytes, so it goes before they change.
    if (node->data.use_count() == 1) {
      Content& buf = const_cast<Content&>(*node->data);
      buf.clear_memo();
      if (buf.size() < end) buf.resize(static_cast<std::size_t>(end), 0);
      std::copy(put.begin(), put.end(),
                buf.begin() + static_cast<std::ptrdiff_t>(oh.pos));
    } else {
      const Bytes& old = *node->data;
      auto fresh = std::make_shared<Content>();
      fresh->reserve(static_cast<std::size_t>(std::max<std::uint64_t>(end, old.size())));
      fresh->assign(old.begin(), old.end());
      if (fresh->size() < end) fresh->resize(static_cast<std::size_t>(end), 0);
      std::copy(put.begin(), put.end(),
                fresh->begin() + static_cast<std::ptrdiff_t>(oh.pos));
      node->data = std::move(fresh);
    }
    oh.pos = end;
    oh.wrote = true;
    oh.wrote_bytes += put.size();
    ++counters_.writes;
    return Status::ok();
  });
}

Status FileSystem::truncate(ProcessId pid, Handle h, std::uint64_t new_size) {
  auto it = handles_.find(h.id);
  if (it == handles_.end() || it->second.pid != pid) {
    return Status(Errc::invalid_argument, "bad handle");
  }
  OpenHandle& oh = it->second;
  if ((oh.mode & kWrite) == 0) {
    return Status(Errc::access_denied, "handle not open for write");
  }

  OperationEvent event;
  event.op = OpType::truncate;
  event.pid = pid;
  event.path = oh.path;
  event.file_id = oh.file_id;
  event.handle = h.id;
  event.length = new_size;

  return run_filtered(event, [&]() -> Status {
    FileNode* node = own_file(oh.path);
    if (node == nullptr) return Status(Errc::not_found, oh.path);
    auto fresh = std::make_shared<Content>(*node->data);
    fresh->resize(static_cast<std::size_t>(new_size), 0);
    node->data = std::move(fresh);
    oh.wrote = true;
    return Status::ok();
  });
}

Status FileSystem::seek(ProcessId pid, Handle h, std::uint64_t pos) {
  auto it = handles_.find(h.id);
  if (it == handles_.end() || it->second.pid != pid) {
    return Status(Errc::invalid_argument, "bad handle");
  }
  it->second.pos = pos;
  return Status::ok();
}

Status FileSystem::close(ProcessId pid, Handle h) {
  auto it = handles_.find(h.id);
  if (it == handles_.end() || it->second.pid != pid) {
    return Status(Errc::invalid_argument, "bad handle");
  }
  const OpenHandle oh = it->second;

  OperationEvent event;
  event.op = OpType::close;
  event.pid = pid;
  event.path = oh.path;
  event.file_id = oh.file_id;
  event.handle = h.id;
  event.wrote = oh.wrote;
  event.wrote_bytes = oh.wrote_bytes;

  // Close is never denied (a filter cannot keep a handle alive), but the
  // pre/post pair still fires so the engine can run its measurements.
  return run_filtered(event, [&]() -> Status {
    handles_.erase(h.id);
    ++counters_.closes;
    return Status::ok();
  });
}

Status FileSystem::remove(ProcessId pid, std::string_view raw_path) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const std::string path = std::move(checked).value();

  const FileNode* node = find_file(path);
  if (node == nullptr) {
    if (has_dir(path)) return Status(Errc::is_a_directory, path);
    return Status(Errc::not_found, path);
  }
  if (node->read_only) return Status(Errc::read_only, path);

  OperationEvent event;
  event.op = OpType::remove;
  event.pid = pid;
  event.path = path;
  event.file_id = node->id;

  return run_filtered(event, [&]() -> Status {
    erase_file(path);
    ++counters_.removes;
    return Status::ok();
  });
}

Status FileSystem::rename(ProcessId pid, std::string_view raw_from, std::string_view raw_to) {
  auto checked_from = check_path(raw_from);
  if (!checked_from) return checked_from.status();
  auto checked_to = check_path(raw_to);
  if (!checked_to) return checked_to.status();
  const std::string from = std::move(checked_from).value();
  const std::string to = std::move(checked_to).value();

  const FileNode* src = find_file(from);
  if (src == nullptr) {
    if (has_dir(from)) {
      return Status(Errc::invalid_argument, "directory rename unsupported");
    }
    return Status(Errc::not_found, from);
  }
  if (to.empty() || has_dir(to)) return Status(Errc::is_a_directory, to);
  const FileNode* dst = find_file(to);
  if (dst != nullptr && dst->read_only) return Status(Errc::read_only, to);

  OperationEvent event;
  event.op = OpType::rename;
  event.pid = pid;
  event.path = from;
  event.file_id = src->id;
  event.dest_path = to;
  event.dest_file_id = dst != nullptr ? dst->id : kNoFile;

  return run_filtered(event, [&]() -> Status {
    if (from == to) return Status::ok();
    if (Status s = ensure_parents(to); !s.is_ok()) return s;
    FileNode node = *src;  // erase_file() may free the entry `src` points at
    erase_file(from);
    if (dst != nullptr) {
      delta_files_.insert_or_assign(to, std::move(node));
    } else {
      create_file(to, std::move(node));
    }
    ++counters_.renames;
    return Status::ok();
  });
}

// --------------------------------------------------------------------
// Filtered conveniences
// --------------------------------------------------------------------

Result<Bytes> FileSystem::read_file(ProcessId pid, std::string_view raw_path) {
  auto handle = open(pid, raw_path, kRead);
  if (!handle) return handle.status();
  auto info = stat(raw_path);
  const std::size_t size = info ? static_cast<std::size_t>(info.value().size) : 0;
  auto data = read(pid, handle.value(), size);
  // Close regardless of the read outcome; report the first error.
  Status closed = close(pid, handle.value());
  if (!data) return data;
  if (!closed.is_ok()) return closed;
  return data;
}

Status FileSystem::write_file(ProcessId pid, std::string_view raw_path, ByteView data) {
  auto handle = open(pid, raw_path, kWrite | kCreate | kTruncate);
  if (!handle) return handle.status();
  Status wrote = write(pid, handle.value(), data);
  Status closed = close(pid, handle.value());
  if (!wrote.is_ok()) return wrote;
  return closed;
}

// --------------------------------------------------------------------
// Unfiltered inspection
// --------------------------------------------------------------------

bool FileSystem::exists(std::string_view raw_path) const {
  auto norm = normalize_path(raw_path);
  if (!norm) return false;
  return find_file(*norm) != nullptr || has_dir(*norm);
}

bool FileSystem::is_directory(std::string_view raw_path) const {
  auto norm = normalize_path(raw_path);
  return norm && has_dir(*norm);
}

Result<FileInfo> FileSystem::stat(std::string_view raw_path) const {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const FileNode* node = find_file(checked.value());
  if (node == nullptr) return Status(Errc::not_found, checked.value());
  FileInfo info;
  info.id = node->id;
  info.size = node->data->size();
  info.read_only = node->read_only;
  return info;
}

std::shared_ptr<const Content> FileSystem::read_unfiltered(std::string_view raw_path) const {
  auto norm = normalize_path(raw_path);
  if (!norm) return nullptr;
  const FileNode* node = find_file(*norm);
  return node != nullptr ? node->data : nullptr;
}

std::vector<DirEntry> FileSystem::list(std::string_view raw_path) const {
  std::vector<DirEntry> out;
  auto norm = normalize_path(raw_path);
  if (!norm || !has_dir(*norm)) return out;
  const std::string prefix = norm->empty() ? std::string() : *norm + "/";

  auto in_subtree = [&](const std::string& p) {
    return p.size() > prefix.size() && p.compare(0, prefix.size(), prefix) == 0;
  };
  auto is_immediate = [&](const std::string& p) {
    return p.find('/', prefix.size()) == std::string::npos;
  };

  for (const auto* dirs : {&base_->dirs, &delta_dirs_}) {
    for (auto it = dirs->upper_bound(prefix); it != dirs->end() && in_subtree(*it); ++it) {
      if (!is_immediate(*it)) continue;
      out.push_back(DirEntry{.name = it->substr(prefix.size()), .is_directory = true, .size = 0});
    }
  }
  for_each_file(prefix, [&](const std::string& path, const FileNode& node) {
    if (!in_subtree(path)) return false;
    if (is_immediate(path)) {
      out.push_back(DirEntry{.name = path.substr(prefix.size()),
                             .is_directory = false,
                             .size = node.data->size()});
    }
    return true;
  });
  std::sort(out.begin(), out.end(),
            [](const DirEntry& a, const DirEntry& b) { return a.name < b.name; });
  return out;
}

std::vector<std::string> FileSystem::list_files_recursive(std::string_view raw_path) const {
  std::vector<std::string> out;
  auto norm = normalize_path(raw_path);
  if (!norm) return out;
  // Every path under *norm starts with it, and such paths sort together.
  for_each_file(*norm, [&](const std::string& path, const FileNode&) {
    if (path.compare(0, norm->size(), *norm) != 0) return false;
    if (path_is_under(path, *norm)) out.push_back(path);
    return true;
  });
  return out;
}

std::vector<std::string> FileSystem::list_dirs_recursive(std::string_view raw_path) const {
  std::vector<std::string> out;
  auto norm = normalize_path(raw_path);
  if (!norm) return out;
  auto collect = [&](const std::set<std::string, std::less<>>& dirs) {
    for (auto it = dirs.lower_bound(*norm);
         it != dirs.end() && it->compare(0, norm->size(), *norm) == 0; ++it) {
      if (*it != *norm && path_is_under(*it, *norm)) out.push_back(*it);
    }
  };
  collect(base_->dirs);
  const auto from_base = static_cast<std::ptrdiff_t>(out.size());
  collect(delta_dirs_);
  // The layers hold disjoint directory sets; merge them into path order.
  std::inplace_merge(out.begin(), out.begin() + from_base, out.end());
  return out;
}

// --------------------------------------------------------------------
// Unfiltered mutation
// --------------------------------------------------------------------

Status FileSystem::put_file_raw(std::string_view raw_path, Bytes data, bool read_only) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const std::string path = std::move(checked).value();
  if (path.empty() || has_dir(path)) return Status(Errc::is_a_directory, path);
  if (Status s = ensure_parents(path); !s.is_ok()) return s;
  FileNode node;
  node.data = std::make_shared<Content>(std::move(data));
  node.read_only = read_only;
  if (const FileNode* live = find_file(path)) {
    node.id = live->id;
    delta_files_.insert_or_assign(path, std::move(node));
  } else {
    node.id = next_file_id_++;
    create_file(path, std::move(node));
  }
  return Status::ok();
}

Status FileSystem::mkdir_raw(std::string_view raw_path) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const std::string path = std::move(checked).value();
  if (find_file(path) != nullptr) return Status(Errc::not_a_directory, path);
  if (Status s = ensure_parents(path_join(path, "x")); !s.is_ok()) return s;
  add_dir(path);
  return Status::ok();
}

Status FileSystem::set_read_only(std::string_view raw_path, bool read_only) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  FileNode* node = own_file(checked.value());
  if (node == nullptr) return Status(Errc::not_found, checked.value());
  node->read_only = read_only;
  return Status::ok();
}

}  // namespace cryptodrop::vfs
