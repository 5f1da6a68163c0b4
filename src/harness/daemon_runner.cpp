#include "harness/daemon_runner.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "daemon/wire.hpp"
#include "vfs/trace.hpp"

namespace cryptodrop::harness {
namespace {

/// Everything one trial needs to replay through a daemon tenant.
struct GoldenTrial {
  std::string label;
  std::string tenant;
  bool detected = false;
  std::string golden_line;  ///< Expected `verdicts` response, serialized.
  std::vector<vfs::TraceEntry> entries;
  std::vector<ProcessRosterEntry> spawns;  ///< Roster beyond the base volume.
};

/// The byte-exact response a parity-clean daemon must send for
/// `verdicts`: the same serializer (daemon/wire.hpp) over the golden
/// scoreboard, wrapped in the same envelope the dispatcher emits.
std::string expected_verdicts_line(const core::EngineSnapshot& scoreboard) {
  return Json::object()
      .set("ok", true)
      .set("scoreboard", daemon::scoreboard_to_json(scoreboard))
      .to_string();
}

/// Roster entries the daemon must replay: processes the trial created on
/// top of the base volume (base pids exist in every tenant clone already).
std::vector<ProcessRosterEntry> trial_spawns(
    const std::vector<ProcessRosterEntry>& roster, std::size_t base_count) {
  std::vector<ProcessRosterEntry> out;
  for (const ProcessRosterEntry& entry : roster) {
    if (entry.pid > base_count) out.push_back(entry);
  }
  return out;
}

GoldenTrial make_golden(std::size_t index, std::string label, bool detected,
                        const core::EngineSnapshot& scoreboard,
                        std::vector<ProcessRosterEntry> roster,
                        std::size_t base_count,
                        std::vector<vfs::TraceEntry> entries) {
  GoldenTrial trial;
  trial.label = std::move(label);
  trial.tenant = "parity_" + std::to_string(index) + "_" + trial.label;
  trial.detected = detected;
  trial.golden_line = expected_verdicts_line(scoreboard);
  trial.entries = std::move(entries);
  trial.spawns = trial_spawns(roster, base_count);
  return trial;
}

/// Replays one golden trial through the control API and records whether
/// the daemon's scoreboard matched byte for byte.
DaemonParityTrial replay_trial(const GoldenTrial& golden,
                               const Transport& transport,
                               std::size_t ops_per_submit) {
  DaemonParityTrial out;
  out.label = golden.label;
  out.tenant = golden.tenant;
  out.golden_detected = golden.detected;
  out.ops = golden.entries.size();
  out.golden_line = golden.golden_line;

  transport(Json::object()
                .set("type", "attach")
                .set("tenant", golden.tenant)
                .to_string());
  for (const ProcessRosterEntry& spawn : golden.spawns) {
    transport(Json::object()
                  .set("type", "spawn")
                  .set("tenant", golden.tenant)
                  .set("pid", spawn.pid)
                  .set("name", spawn.name)
                  .set("parent", spawn.parent)
                  .to_string());
  }
  for (std::size_t start = 0; start < golden.entries.size();
       start += ops_per_submit) {
    const std::size_t end =
        std::min(start + ops_per_submit, golden.entries.size());
    Json ops = Json::array();
    for (std::size_t i = start; i < end; ++i) {
      ops.push(vfs::serialize_trace_entry(golden.entries[i]));
    }
    transport(Json::object()
                  .set("type", "submit")
                  .set("tenant", golden.tenant)
                  .set("ops", std::move(ops))
                  .to_string());
  }
  transport(Json::object()
                .set("type", "drain")
                .set("tenant", golden.tenant)
                .to_string());
  out.daemon_line = transport(Json::object()
                                  .set("type", "verdicts")
                                  .set("tenant", golden.tenant)
                                  .to_string());
  out.match = out.daemon_line == out.golden_line;
  transport(Json::object()
                .set("type", "detach")
                .set("tenant", golden.tenant)
                .to_string());
  return out;
}

}  // namespace

DaemonParityReport run_daemon_parity(
    const Environment& env, const std::vector<sim::SampleSpec>& samples,
    const std::vector<sim::BenignWorkload>& benign, std::uint64_t benign_seed,
    const core::ScoringConfig& config,
    const TransportFactory& transport_factory,
    const DaemonParityOptions& options) {
  const std::size_t base_count = env.base_fs.process_count();
  std::vector<GoldenTrial> goldens;
  goldens.reserve(samples.size() + benign.size());

  // Golden phase (serial): each trial records the exact op stream its
  // volume applied — a content-carrying trace below the engine, so ops
  // the engine denied never appear.
  for (const sim::SampleSpec& spec : samples) {
    vfs::TraceRecorder recorder(/*capture_content=*/true);
    RansomwareRunResult result = run_trial(env, spec, config, {}, &recorder);
    goldens.push_back(make_golden(goldens.size(), result.family,
                                  result.detected, result.scoreboard,
                                  std::move(result.roster), base_count,
                                  recorder.entries()));
  }
  for (const sim::BenignWorkload& workload : benign) {
    vfs::TraceRecorder recorder(/*capture_content=*/true);
    BenignRunResult result = run_trial(env, workload, config, benign_seed, {}, &recorder);
    goldens.push_back(make_golden(goldens.size(), result.app, result.detected,
                                  result.scoreboard, std::move(result.roster),
                                  base_count, recorder.entries()));
  }

  // Replay phase (parallel): one tenant per trial, `concurrent_tenants`
  // client threads pulling trials from a shared cursor.
  DaemonParityReport report;
  report.trials.resize(goldens.size());
  std::atomic<std::size_t> cursor{0};
  const std::size_t clients =
      std::max<std::size_t>(1, options.concurrent_tenants);
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      const Transport transport = transport_factory();
      for (std::size_t idx = cursor.fetch_add(1); idx < goldens.size();
           idx = cursor.fetch_add(1)) {
        report.trials[idx] =
            replay_trial(goldens[idx], transport, options.ops_per_submit);
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  return report;
}

}  // namespace cryptodrop::harness
