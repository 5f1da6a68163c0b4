// cryptodropd control API — request dispatch (docs/DAEMON.md).
//
// The protocol is line-delimited JSON: each request is one object with a
// `type` field; each response is one object with an `ok` field (`true`
// plus a payload, or `false` plus `error`). The dispatcher is transport
// agnostic: the AF_UNIX socket server (daemon/server.hpp) and the
// in-process parity harness (harness/daemon_runner.hpp) both drive
// handle_line(), so the parity gate exercises the full request/response
// round-trip, not just the Daemon methods.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "daemon/daemon.hpp"

namespace cryptodrop::daemon {

/// Every request `type` the dispatcher accepts, in docs order —
/// tools/docs_check cross-checks this list against the control-schema
/// table in docs/DAEMON.md, so adding a request here without documenting
/// it (or vice versa) fails tier-1.
std::vector<std::string_view> known_request_types();

/// Outcome of a `watch` request: the dispatcher cannot stream by itself
/// (it is one-line-in / one-line-out), so it acks the subscription and
/// hands the transport what it needs to start pushing frames
/// (docs/DAEMON.md "watch").
struct WatchSubscription {
  /// True once a well-formed `watch` request was handled; the ack
  /// response line must still be written before any frame.
  bool requested = false;
  /// Optional tenant filter (empty = all tenants).
  std::string tenant;
  /// Journal cursor to stream from (defaults to "now": events emitted
  /// before the request are not replayed).
  std::uint64_t cursor = 0;
};

/// Translates control-API lines into Daemon calls (see the file
/// comment). Thread-safe: state lives in the Daemon, which is itself
/// thread-safe, so one dispatcher may serve many client connections.
class ControlDispatcher {
 public:
  /// Dispatches for `daemon` (non-owning; must outlive the dispatcher).
  explicit ControlDispatcher(Daemon& daemon) : daemon_(&daemon) {}

  /// Handles one request line, returning one response line (no trailing
  /// newline). Malformed input yields an `ok:false` response, never an
  /// exception. `line` is only read during the call, so it may view a
  /// transport buffer that changes afterwards.
  std::string handle_line(std::string_view line);

  /// Like handle_line(), but a `watch` request additionally fills
  /// `*watch` so a streaming transport can promote the connection.
  /// Transports that cannot stream (the in-process harness) use the
  /// one-argument overload, where `watch` degrades to a plain ack.
  std::string handle_line(std::string_view line, WatchSubscription* watch);

  /// Answers a request the transport refused before dispatch (one over
  /// the size cap): counts it as a failed request and returns the
  /// `code` error envelope for `status`.
  std::string reject(const Status& status);

 private:
  Daemon* daemon_;
};

}  // namespace cryptodrop::daemon
