#include "daemon/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

namespace cryptodrop::daemon {
namespace {

/// Monotonic milliseconds for idle deadlines and frame cadence. This is
/// transport pacing, not a measurement — allowlisted for the wall-clock
/// lint (tools/lint/lint_allow.txt).
long long mono_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-connection transport state (input framing + watch stream).
struct Conn {
  LineFramer in;               ///< Request bytes and their framing.
  std::string out;             ///< Pending output (watch streams only).
  bool watching = false;       ///< Promoted to a push stream.
  std::string tenant_filter;   ///< Watch tenant filter ("" = all).
  std::uint64_t cursor = 0;    ///< Next journal cursor to stream.
  long long last_read_ms = 0;  ///< Idle-deadline bookkeeping.
};

/// Fills a sockaddr_un for `path`; false when the path does not fit.
bool make_address(const std::string& path, sockaddr_un& addr) {
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// Writes `line` and then '\n' to socket `fd`, gathering both into each
/// sendmsg() so the line is never copied to append its newline, and
/// retrying short writes. A peer that has gone away yields false, not
/// SIGPIPE.
bool write_line(int fd, std::string_view line) {
  static const char kNewline = '\n';
  iovec parts[2] = {{const_cast<char*>(line.data()), line.size()},
                    {const_cast<char*>(&kNewline), 1}};
  msghdr msg{};
  msg.msg_iov = parts;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    auto sent = static_cast<std::size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return true;
}

/// Writes what it can of `out` to a non-blocking `fd`, keeping the
/// rest buffered. False only on a fatal connection error; a peer that
/// hung up is one (EPIPE, with MSG_NOSIGNAL instead of SIGPIPE).
bool flush_some(int fd, std::string& out) {
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (n == 0) break;
    sent += static_cast<std::size_t>(n);
  }
  out.erase(0, sent);
  return true;
}

/// One `{"frame":"stats",...}` line for the watch stream: per-tenant
/// rows (optionally filtered) plus queue and health gauges.
std::string stats_frame(Daemon& daemon, const std::string& tenant_filter) {
  Json rows = Json::array();
  for (const TenantInfo& info : daemon.tenants()) {
    if (!tenant_filter.empty() && info.id != tenant_filter) continue;
    rows.push(Json::object()
                  .set("id", info.id)
                  .set("worker", info.worker)
                  .set("ingested", info.ingested)
                  .set("executed", info.executed)
                  .set("shed", info.shed));
  }
  std::size_t depth = 0;
  Json depths = Json::array();
  for (std::size_t d : daemon.queue_depths()) {
    depth += d;
    depths.push(static_cast<unsigned long long>(d));
  }
  const HealthReport health = daemon.health();
  return Json::object()
             .set("frame", "stats")
             .set("tenants", std::move(rows))
             .set("queue_depth", static_cast<unsigned long long>(depth))
             .set("queue_depths", std::move(depths))
             .set("health", std::string(health_level_name(health.level)))
      .to_string() + "\n";
}

/// One `{"frame":"event",...}` line wrapping a journal event.
std::string event_frame(const JournalEvent& event) {
  return Json::object()
             .set("frame", "event")
             .set("event", to_json(event))
             .to_string() + "\n";
}

}  // namespace

ssize_t LineFramer::fill(int fd) {
  if (begin_ > 0) {
    // Only an unfinished line is left; move it to the front so the
    // buffer grows only for a line that is itself long.
    std::memmove(buffer_.get(), buffer_.get() + begin_, end_ - begin_);
    scanned_ -= begin_;
    end_ -= begin_;
    begin_ = 0;
  }
  if (capacity_ - end_ < kReadChunk) {
    // Doubling keeps a long line's regrowth linear; the ceiling is the
    // most a line under the cap plus one read can occupy.
    const std::size_t grown = std::max(
        end_ + kReadChunk, std::min(2 * capacity_, kMaxLineBytes + kReadChunk));
    std::unique_ptr<char[]> bigger(new char[grown]);
    if (end_ > 0) std::memcpy(bigger.get(), buffer_.get(), end_);
    buffer_ = std::move(bigger);
    capacity_ = grown;
  }
  const ssize_t n = ::read(fd, buffer_.get() + end_, kReadChunk);
  if (n > 0) end_ += static_cast<std::size_t>(n);
  return n;
}

LineFramer::Next LineFramer::next(std::string_view* line) {
  const char* const data = buffer_.get();
  const void* const newline =
      scanned_ < end_ ? std::memchr(data + scanned_, '\n', end_ - scanned_)
                      : nullptr;
  if (newline == nullptr) {
    scanned_ = end_;
    return end_ - begin_ > kMaxLineBytes ? Next::overflow : Next::partial;
  }
  const auto stop = static_cast<std::size_t>(
      static_cast<const char*>(newline) - data);
  if (stop - begin_ > kMaxLineBytes) return Next::overflow;
  *line = std::string_view(data + begin_, stop - begin_);
  begin_ = stop + 1;
  scanned_ = begin_;
  return Next::line;
}

SocketServer::~SocketServer() { stop(); }

Status SocketServer::start() {
  sockaddr_un addr{};
  if (!make_address(socket_path_, addr)) {
    return Status(Errc::invalid_argument,
                  "socket path too long: " + socket_path_);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status(Errc::io_error,
                  std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(socket_path_.c_str());  // Replace any stale socket file.
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status(Errc::io_error, "bind " + socket_path_ + ": " +
                                      std::strerror(err));
  }
  if (::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    ::unlink(socket_path_.c_str());
    listen_fd_ = -1;
    return Status(Errc::io_error,
                  std::string("listen: ") + std::strerror(err));
  }
  thread_ = std::thread([this] { serve_loop(); });
  return Status::ok();
}

void SocketServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(socket_path_.c_str());
}

void SocketServer::wait() {
  if (thread_.joinable()) thread_.join();
}

void SocketServer::serve_loop() {
  std::map<int, Conn> clients;
  long long last_frame = mono_ms();
  std::size_t watchers = 0;
  DaemonMetrics& metrics = daemon_->daemon_metrics();
  // Closing a watcher settles its conservation ledger: every journal
  // event past its cursor — plus event frames still buffered but never
  // written to the socket — counts as shed, so `emitted == delivered +
  // shed` holds exactly per stream at the transport boundary.
  constexpr std::string_view kEventMarker = "{\"frame\":\"event\"";
  const auto settle_watcher = [&](Conn& conn) {
    if (!conn.watching) return;
    const std::uint64_t end = daemon_->telemetry().journal().emitted();
    std::uint64_t undelivered = end > conn.cursor ? end - conn.cursor : 0;
    for (std::size_t pos = conn.out.find(kEventMarker);
         pos != std::string::npos;
         pos = conn.out.find(kEventMarker, pos + 1)) {
      ++undelivered;
    }
    if (undelivered > 0) metrics.watch_events_shed().add(undelivered);
    --watchers;
    metrics.watch_clients().set(static_cast<double>(watchers));
  };
  const auto close_conn = [&](int fd) {
    const auto it = clients.find(fd);
    if (it == clients.end()) return;
    settle_watcher(it->second);
    ::close(fd);
    clients.erase(it);
  };
  while (true) {
    if (daemon_->shutdown_complete() ||
        stop_requested_.load(std::memory_order_acquire)) {
      break;
    }
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : clients) {
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const long long now = mono_ms();
    if (ready > 0 && (fds[0].revents & POLLIN) != 0) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client >= 0) {
        Conn conn;
        conn.last_read_ms = now;
        clients.emplace(client, std::move(conn));
      }
    }
    for (std::size_t i = 1; ready > 0 && i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const int fd = fds[i].fd;
      Conn& conn = clients[fd];
      if ((fds[i].revents & POLLOUT) != 0 && !flush_some(fd, conn.out)) {
        close_conn(fd);
        continue;
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = conn.in.fill(fd);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n <= 0) {
        close_conn(fd);
        continue;
      }
      conn.last_read_ms = now;
      bool dead = false;
      std::string_view line;
      LineFramer::Next next = LineFramer::Next::partial;
      while (!dead && (next = conn.in.next(&line)) != LineFramer::Next::partial) {
        WatchSubscription sub;
        std::string response;
        if (next == LineFramer::Next::line) {
          response = dispatcher_.handle_line(line, &sub);
        } else {
          // Over the cap: answer, then drop the connection rather than
          // buffer or skip an unbounded line.
          response = dispatcher_.reject(Status(
              Errc::invalid_argument, "request line exceeds " +
                                          std::to_string(kMaxLineBytes) +
                                          " bytes"));
          dead = true;
        }
        if (sub.requested && !conn.watching) {
          // Promote to a push stream: non-blocking fd, bounded output
          // buffer, frames from the subscription cursor onward.
          conn.watching = true;
          conn.tenant_filter = sub.tenant;
          conn.cursor = sub.cursor;
          ++watchers;
          metrics.watch_clients().set(static_cast<double>(watchers));
          const int flags = ::fcntl(fd, F_GETFL, 0);
          if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        }
        if (conn.watching) {
          conn.out += response;
          conn.out += '\n';
          if (dead) (void)flush_some(fd, conn.out);
        } else if (!write_line(fd, response)) {
          dead = true;
        }
      }
      if (dead) {
        close_conn(fd);
        continue;
      }
      if (!conn.out.empty() && !flush_some(fd, conn.out)) close_conn(fd);
    }
    if (options_.idle_timeout_ms > 0) {
      for (auto it = clients.begin(); it != clients.end();) {
        const int fd = it->first;
        const Conn& conn = it->second;
        ++it;
        if (conn.watching) continue;
        if (now - conn.last_read_ms < options_.idle_timeout_ms) continue;
        metrics.conns_idle_closed().add();
        close_conn(fd);
      }
    }
    if (watchers == 0) {
      last_frame = now;
    } else if (now - last_frame >= options_.frame_interval_ms) {
      last_frame = now;
      for (auto it = clients.begin(); it != clients.end();) {
        const int fd = it->first;
        Conn& conn = it->second;
        ++it;
        if (!conn.watching) continue;
        EventJournal::Drain drain = daemon_->telemetry().journal().since(
            conn.cursor, conn.tenant_filter, /*max=*/128);
        conn.cursor = drain.next_cursor;
        // Ring overwrites the subscriber never saw count as shed too.
        if (drain.dropped > 0) metrics.watch_events_shed().add(drain.dropped);
        for (JournalEvent& event : drain.events) {
          if (conn.out.size() >= options_.watch_buffer_limit) {
            metrics.watch_events_shed().add();
            continue;
          }
          conn.out += event_frame(event);
          metrics.watch_frames().add();
        }
        // A stats frame that does not fit is simply skipped — the next
        // tick regenerates it, and daemon_watch_events_shed_total stays
        // an *event* ledger (conservation: emitted == delivered + shed).
        if (conn.out.size() < options_.watch_buffer_limit) {
          conn.out += stats_frame(*daemon_, conn.tenant_filter);
          metrics.watch_frames().add();
        }
        if (!flush_some(fd, conn.out)) close_conn(fd);
      }
    }
  }
  for (auto& [fd, conn] : clients) {
    settle_watcher(conn);
    ::close(fd);
  }
  metrics.watch_clients().set(0.0);
}

DaemonClient::~DaemonClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> DaemonClient::request(std::string_view line) {
  if (fd_ < 0) {
    sockaddr_un addr{};
    if (!make_address(socket_path_, addr)) {
      return Status(Errc::invalid_argument,
                    "socket path too long: " + socket_path_);
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return Status(Errc::io_error,
                    std::string("socket: ") + std::strerror(errno));
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      return Status(Errc::io_error, "connect " + socket_path_ + ": " +
                                        std::strerror(err));
    }
  }
  if (!write_line(fd_, line)) {
    return Status(Errc::io_error,
                  std::string("write: ") + std::strerror(errno));
  }
  for (;;) {
    std::string_view response;
    const LineFramer::Next next = framer_.next(&response);
    if (next == LineFramer::Next::line) return std::string(response);
    if (next == LineFramer::Next::overflow) {
      return Status(Errc::io_error, "response line exceeds " +
                                        std::to_string(kMaxLineBytes) +
                                        " bytes");
    }
    const ssize_t n = framer_.fill(fd_);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status(Errc::io_error, "connection closed mid-response");
    }
  }
}

}  // namespace cryptodrop::daemon
