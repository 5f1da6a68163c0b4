// MonitorSession — one monitored volume, RAII-style.
//
// The library's primitive objects (FileSystem, AnalysisEngine) compose
// manually: clone a volume, construct an engine, attach, remember to
// detach before either dies. Every call site in the harness, benches,
// CLI and examples repeated that dance. A session bundles it:
//
//   core::MonitorSession session(base_fs, config);   // clone + attach
//   vfs::ProcessId pid = session.spawn("sample.exe");
//   ... drive operations through session.fs() ...
//   core::EngineSnapshot snap = session.snapshot();  // consistent view
//
// The engine is heap-allocated so the session is movable, and detached
// on destruction, so neither order of death dangles. A session is the
// unit of parallelism in the experiment runner: each trial owns one, and
// sessions never share mutable state (file content is shared
// copy-on-write, which is immutable).
#pragma once

#include <memory>
#include <string>

#include "core/engine.hpp"
#include "obs/span.hpp"
#include "vfs/filesystem.hpp"

namespace cryptodrop::core {

/// One monitored volume with its engine attached, RAII-style (see the
/// file comment). Movable, not copyable; detaches on destruction. One
/// thread drives the session's operations (the volume has no lock);
/// other threads may query the engine concurrently, since engine
/// queries take the engine lock and never read the volume.
class MonitorSession {
 public:
  /// A session over a pristine clone of `base` (the VM-snapshot-revert
  /// analogue: every trial starts from the same bytes). Throws
  /// std::invalid_argument when the config does not validate.
  MonitorSession(const vfs::FileSystem& base, ScoringConfig config);

  /// A session over a fresh empty volume.
  explicit MonitorSession(ScoringConfig config);

  /// Traced variants: when `trace.enabled`, the session owns an
  /// obs::SpanTracer wired into the volume *before* the engine attaches,
  /// so every operation's dispatch→filter→indicator chain is recorded
  /// (docs/OBSERVABILITY.md "Span tracing").
  MonitorSession(const vfs::FileSystem& base, ScoringConfig config,
                 const obs::TraceOptions& trace);
  /// Traced session over a fresh empty volume.
  MonitorSession(ScoringConfig config, const obs::TraceOptions& trace);

  MonitorSession(MonitorSession&&) = default;
  MonitorSession& operator=(MonitorSession&&) = default;
  MonitorSession(const MonitorSession&) = delete;
  MonitorSession& operator=(const MonitorSession&) = delete;

  ~MonitorSession();

  /// The session's private volume (drive operations through this).
  [[nodiscard]] vfs::FileSystem& fs() { return fs_; }
  /// Const view of the session's volume.
  [[nodiscard]] const vfs::FileSystem& fs() const { return fs_; }
  /// The attached engine (valid for the session's lifetime).
  [[nodiscard]] AnalysisEngine& engine() { return *engine_; }
  /// Const view of the attached engine.
  [[nodiscard]] const AnalysisEngine& engine() const { return *engine_; }

  /// Registers a process on the session's volume.
  vfs::ProcessId spawn(std::string name, vfs::ProcessId parent = 0) {
    return fs_.register_process(std::move(name), parent);
  }

  /// One consistent view of everything the engine has measured.
  [[nodiscard]] EngineSnapshot snapshot() const { return engine_->snapshot(); }

  /// "Why was pid X suspended?" — the process's forensic timeline
  /// (forwards to AnalysisEngine::explain; takes the engine lock).
  [[nodiscard]] obs::ForensicTimeline explain(vfs::ProcessId pid) const {
    return engine_->explain(pid);
  }

  /// Current value of every engine metric, gauges refreshed (forwards to
  /// AnalysisEngine::metrics_snapshot). Cheaper than snapshot() when the
  /// process reports are not needed.
  [[nodiscard]] obs::MetricsSnapshot metrics() const {
    return engine_->metrics_snapshot();
  }

  /// Whether this session records spans (constructed with enabled
  /// TraceOptions, on a metrics-enabled build).
  [[nodiscard]] bool tracing() const { return tracer_ != nullptr; }

  /// Everything the tracer retained so far (empty when not tracing).
  /// Export with obs::to_trace_json / harness::trace_report.
  [[nodiscard]] obs::SpanSnapshot trace_snapshot() const {
    return tracer_ != nullptr ? tracer_->snapshot() : obs::SpanSnapshot{};
  }

 private:
  vfs::FileSystem fs_;
  std::unique_ptr<obs::SpanTracer> tracer_;  ///< Null when not tracing.
  std::unique_ptr<AnalysisEngine> engine_;
};

}  // namespace cryptodrop::core
