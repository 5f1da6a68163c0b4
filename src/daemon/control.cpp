#include "daemon/control.hpp"

#include <cstdint>
#include <utility>

#include "daemon/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_export.hpp"
#include "vfs/trace.hpp"

namespace cryptodrop::daemon {
namespace {

/// A response plus its envelope verdict (drives the error counter
/// without re-parsing the serialized line).
struct Response {
  Json body;
  bool ok = false;
};

Json ok_response() { return Json::object().set("ok", true); }

Response ok_with(Json body) { return {std::move(body), true}; }

Response error_response(std::string message) {
  return {Json::object().set("ok", false).set("error", std::move(message)),
          false};
}

Response error_response(const Status& status) {
  // Structured `code` rides along with the human-readable message so
  // clients can branch on Errc without parsing prose.
  return {Json::object()
              .set("ok", false)
              .set("error", status.to_string())
              .set("code", std::string(errc_name(status.code()))),
          false};
}

/// Applies the documented `config` overrides (docs/DAEMON.md `attach`)
/// on top of the daemon's default scoring config.
core::ScoringConfig config_from_json(core::ScoringConfig base,
                                     const JsonValue* overrides) {
  if (overrides == nullptr || overrides->kind != JsonValue::Kind::object) {
    return base;
  }
  base.score_threshold = static_cast<int>(overrides->number_or(
      "score_threshold", base.score_threshold));
  base.union_threshold = static_cast<int>(overrides->number_or(
      "union_threshold", base.union_threshold));
  base.union_bonus =
      static_cast<int>(overrides->number_or("union_bonus", base.union_bonus));
  base.enable_union = overrides->bool_or("enable_union", base.enable_union);
  base.enable_family_scoring = overrides->bool_or("enable_family_scoring",
                                                  base.enable_family_scoring);
  base.protected_root =
      overrides->string_or("protected_root", base.protected_root);
  return base;
}

Response handle_request(Daemon& daemon, const JsonValue& request,
                        WatchSubscription* watch) {
  const std::string type = request.string_or("type", "");
  if (type == "ping") {
    return ok_with(ok_response().set("pong", true));
  }
  if (type == "attach") {
    const std::string tenant = request.string_or("tenant", "");
    const Status status = daemon.attach(
        tenant, config_from_json(daemon.default_config(),
                                 request.find("config")));
    if (!status) return error_response(status);
    return ok_with(ok_response().set("tenant", tenant));
  }
  if (type == "detach") {
    const Status status = daemon.detach(request.string_or("tenant", ""));
    if (!status) return error_response(status);
    return ok_with(ok_response());
  }
  if (type == "spawn") {
    const Status status = daemon.spawn(
        request.string_or("tenant", ""),
        static_cast<vfs::ProcessId>(request.number_or("pid", 0)),
        request.string_or("name", "process"),
        static_cast<vfs::ProcessId>(request.number_or("parent", 0)));
    if (!status) return error_response(status);
    return ok_with(ok_response());
  }
  if (type == "submit") {
    const JsonValue* ops = request.find("ops");
    if (ops == nullptr || ops->kind != JsonValue::Kind::array) {
      return error_response("submit requires an `ops` array");
    }
    std::vector<vfs::TraceEntry> entries;
    entries.reserve(ops->items.size());
    for (const JsonValue& op : ops->items) {
      if (op.kind != JsonValue::Kind::string) {
        return error_response("each op must be a serialized trace-entry string");
      }
      std::optional<vfs::TraceEntry> entry = vfs::parse_trace_entry(op.str);
      if (!entry.has_value()) {
        return error_response("malformed trace entry: " + op.str);
      }
      entries.push_back(std::move(*entry));
    }
    Result<SubmitResult> result =
        daemon.submit(request.string_or("tenant", ""), std::move(entries));
    if (!result) return error_response(result.status());
    return ok_with(ok_response()
        .set("accepted", result.value().accepted)
        .set("shed", result.value().shed));
  }
  if (type == "drain") {
    const JsonValue* tenant = request.find("tenant");
    if (tenant != nullptr && tenant->kind == JsonValue::Kind::string) {
      const Status status = daemon.drain(tenant->str);
      if (!status) return error_response(status);
    } else {
      daemon.drain();
    }
    return ok_with(ok_response().set("drained", true));
  }
  if (type == "verdicts") {
    Result<core::EngineSnapshot> snapshot =
        daemon.verdicts(request.string_or("tenant", ""));
    if (!snapshot) return error_response(snapshot.status());
    return ok_with(ok_response().set("scoreboard",
                             scoreboard_to_json(snapshot.value())));
  }
  if (type == "explain") {
    Result<obs::ForensicTimeline> timeline =
        daemon.explain(request.string_or("tenant", ""),
                       static_cast<vfs::ProcessId>(request.number_or("pid", 0)));
    if (!timeline) return error_response(timeline.status());
    return ok_with(ok_response().set("forensic", obs::to_json(timeline.value())));
  }
  if (type == "metrics") {
    const JsonValue* tenant = request.find("tenant");
    if (tenant != nullptr && tenant->kind == JsonValue::Kind::string) {
      Result<obs::MetricsSnapshot> snapshot = daemon.tenant_metrics(tenant->str);
      if (!snapshot) return error_response(snapshot.status());
      return ok_with(ok_response().set("metrics", obs::to_json(snapshot.value())));
    }
    return ok_with(ok_response().set("metrics", obs::to_json(daemon.metrics())));
  }
  if (type == "events") {
    const auto cursor =
        static_cast<std::uint64_t>(request.number_or("cursor", 0));
    const std::string tenant = request.string_or("tenant", "");
    const auto max = static_cast<std::size_t>(request.number_or("max", 256));
    const EventJournal::Drain drain =
        daemon.telemetry().journal().since(cursor, tenant, max);
    Json rows = Json::array();
    for (const JournalEvent& event : drain.events) rows.push(to_json(event));
    return ok_with(ok_response()
                       .set("events", std::move(rows))
                       .set("next_cursor",
                            static_cast<unsigned long long>(drain.next_cursor))
                       .set("dropped",
                            static_cast<unsigned long long>(drain.dropped)));
  }
  if (type == "watch") {
    const JsonValue* cursor = request.find("cursor");
    const std::uint64_t start =
        cursor != nullptr && cursor->kind == JsonValue::Kind::number
            ? static_cast<std::uint64_t>(cursor->num)
            : daemon.telemetry().journal().emitted();
    if (watch != nullptr) {
      watch->requested = true;
      watch->tenant = request.string_or("tenant", "");
      watch->cursor = start;
    }
    return ok_with(ok_response().set(
        "watch", Json::object()
                     .set("cursor", static_cast<unsigned long long>(start))
                     .set("streaming", watch != nullptr)));
  }
  if (type == "health") {
    return ok_with(ok_response().set("health", to_json(daemon.health())));
  }
  if (type == "trace") {
    return ok_with(ok_response().set("trace", obs::to_trace_json(daemon.trace_snapshot())));
  }
  if (type == "tenants") {
    Json rows = Json::array();
    for (const TenantInfo& info : daemon.tenants()) {
      rows.push(Json::object()
                    .set("id", info.id)
                    .set("worker", info.worker)
                    .set("ingested", info.ingested)
                    .set("executed", info.executed)
                    .set("shed", info.shed));
    }
    return ok_with(ok_response().set("tenants", std::move(rows)));
  }
  if (type == "shutdown") {
    daemon.shutdown(request.bool_or("drain", true));
    return ok_with(ok_response().set("stopped", true));
  }
  return error_response("unknown request type: `" + type + "`");
}

}  // namespace

std::vector<std::string_view> known_request_types() {
  return {"ping",     "attach",  "detach",  "spawn",  "submit",
          "drain",    "verdicts", "explain", "metrics", "events",
          "watch",    "health",  "trace",   "tenants", "shutdown"};
}

std::string ControlDispatcher::handle_line(std::string_view line) {
  return handle_line(line, nullptr);
}

std::string ControlDispatcher::handle_line(std::string_view line,
                                           WatchSubscription* watch) {
  daemon_->daemon_metrics().control_requests().add();
  std::optional<JsonValue> request = parse_json(line);
  Response response =
      (!request.has_value() || request->kind != JsonValue::Kind::object)
          ? error_response("request is not a JSON object")
          : handle_request(*daemon_, *request, watch);
  if (!response.ok) daemon_->daemon_metrics().control_errors().add();
  return response.body.to_string();
}

std::string ControlDispatcher::reject(const Status& status) {
  daemon_->daemon_metrics().control_requests().add();
  daemon_->daemon_metrics().control_errors().add();
  return error_response(status).body.to_string();
}

}  // namespace cryptodrop::daemon
