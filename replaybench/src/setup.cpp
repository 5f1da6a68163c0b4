#include "setup.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "common/json.hpp"
#include "core/config.hpp"
#include "measure.hpp"
#include "sim/benign/benign.hpp"
#include "sim/ransomware/families.hpp"
#include "vfs/path.hpp"

namespace replaybench {
namespace cd = cryptodrop;
namespace {

/// Records one trial on a pristine clone with no engine attached.
Trial record_trial(const cd::harness::Environment& env, std::string label,
                   const std::function<void(cd::vfs::FileSystem&, cd::vfs::ProcessId)>& run) {
  cd::vfs::FileSystem fs = env.base_fs.clone();
  cd::vfs::TraceRecorder recorder(/*capture_content=*/true);
  fs.attach_filter(&recorder);
  const cd::vfs::ProcessId pid = fs.register_process(label);
  run(fs, pid);
  fs.detach_filter(&recorder);

  Trial trial;
  trial.label = std::move(label);
  for (cd::vfs::ProcessId p = 1; p <= fs.process_count(); ++p) {
    trial.roster.push_back({p, std::string(fs.process_name(p)), fs.process_parent(p)});
  }
  trial.entries = recorder.entries();
  return trial;
}

Trial record_sample(const cd::harness::Environment& env, const cd::sim::SampleSpec& spec) {
  cd::sim::RansomwareProfile profile = spec.profile;
  profile.max_files = kSampleFileCap;
  Trial trial = record_trial(env, spec.family,
                             [&](cd::vfs::FileSystem& fs, cd::vfs::ProcessId pid) {
                               cd::sim::RansomwareSample sample(profile, spec.seed);
                               (void)sample.run(fs, pid, env.corpus.root);
                             });
  trial.ransomware = true;
  return trial;
}

Trial record_benign(const cd::harness::Environment& env,
                    const cd::sim::BenignWorkload& workload, std::uint64_t seed) {
  Trial trial = record_trial(env, workload.name,
                             [&](cd::vfs::FileSystem& fs, cd::vfs::ProcessId pid) {
                               cd::sim::WorkloadContext ctx{fs, pid, env.corpus.root,
                                                            cd::Rng(seed)};
                               workload.run(ctx);
                             });
  trial.expected_fp = workload.expected_false_positive;
  return trial;
}

/// The first sample of each Table I family/class row (25 rows).
std::vector<cd::sim::SampleSpec> first_of_each_row(std::vector<cd::sim::SampleSpec> all) {
  std::vector<cd::sim::SampleSpec> out;
  std::set<std::pair<std::string, int>> seen;
  for (cd::sim::SampleSpec& spec : all) {
    if (seen.insert({spec.family, static_cast<int>(spec.behavior)}).second) {
      out.push_back(std::move(spec));
    }
  }
  return out;
}

std::string request(const std::string& type, const std::string& tenant) {
  return cd::Json::object().set("type", type).set("tenant", tenant).to_string();
}

TrialRequests serialize_requests(const Trial& trial, std::size_t index) {
  TrialRequests out;
  out.tenant = "replay-" + std::to_string(index);
  out.attach = request("attach", out.tenant);
  for (const cd::harness::ProcessRosterEntry& p : trial.roster) {
    out.spawns.push_back(cd::Json::object()
                             .set("type", "spawn")
                             .set("tenant", out.tenant)
                             .set("pid", p.pid)
                             .set("name", p.name)
                             .set("parent", p.parent)
                             .to_string());
  }
  std::size_t submit_bytes = 0;
  for (std::size_t start = 0;
       start < trial.entries.size() && submit_bytes < kTrialRequestCapBytes;
       start += kOpsPerSubmit) {
    const std::size_t end = std::min(start + kOpsPerSubmit, trial.entries.size());
    cd::Json ops = cd::Json::array();
    std::uint64_t payload = 0;
    for (std::size_t i = start; i < end; ++i) {
      ops.push(cd::vfs::serialize_trace_entry(trial.entries[i]));
      payload += trial.entries[i].data.size();
    }
    out.submits.push_back(cd::Json::object()
                              .set("type", "submit")
                              .set("tenant", out.tenant)
                              .set("ops", std::move(ops))
                              .to_string());
    submit_bytes += out.submits.back().size();
    out.submit_payload.push_back(payload);
  }
  out.drain = request("drain", out.tenant);
  out.verdicts = request("verdicts", out.tenant);
  out.tenants = cd::Json::object().set("type", "tenants").to_string();
  out.metrics = request("metrics", out.tenant);
  out.detach = request("detach", out.tenant);
  return out;
}

}  // namespace

bool under_protected_root(const std::string& path) {
  static const std::string root = cd::core::ScoringConfig{}.protected_root;
  return cd::vfs::path_is_under(path, root);
}

std::map<cd::vfs::ProcessId, cd::vfs::ProcessId> spawn_roster(
    const Trial& trial, cd::vfs::FileSystem& fs, cd::vfs::ExactReplayer& replayer) {
  std::map<cd::vfs::ProcessId, cd::vfs::ProcessId> live;
  for (const cd::harness::ProcessRosterEntry& p : trial.roster) {
    const auto parent = live.find(p.parent);
    live[p.pid] = fs.register_process(p.name, parent == live.end() ? 0 : parent->second);
    replayer.map_pid(p.pid, live[p.pid]);
  }
  return live;
}

Inputs build_inputs(const SetupOptions& options) {
  Inputs in;
  HostCalibration host(kInProcessTrackingShare);
  NormalisedTimer total;
  NormalisedTimer phase;

  // Corpus.
  host.calibrate();
  total.start(host.factor());
  phase.start(host.factor());
  Clock::time_point t0 = Clock::now();
  in.env = options.tiny
               ? cd::harness::make_environment(cd::harness::small_corpus_spec(400, 40),
                                               kCorpusSeed)
               : cd::harness::make_default_environment(kCorpusSeed);
  in.corpus_s = seconds_between(t0, Clock::now());
  phase.stop();
  total.stop();
  in.corpus_norm_s = phase.norm_s();

  // Recording: calibrate before every trial; only recording is timed.
  NormalisedTimer record;
  const auto timed = [&](auto&& record_one) {
    host.calibrate();
    total.start(host.factor());
    record.start(host.factor());
    in.trials.push_back(record_one());
    record.stop();
    total.stop();
  };
  std::vector<cd::sim::SampleSpec> samples = cd::sim::table1_samples(options.seed);
  if (options.set == TrialSet::daemon_mix) {
    samples = first_of_each_row(std::move(samples));
    if (options.tiny) samples.resize(std::min<std::size_t>(samples.size(), 6));
  } else if (options.set == TrialSet::table1 && options.tiny) {
    samples = first_of_each_row(std::move(samples));
  }
  if (options.set != TrialSet::benign) {
    for (const cd::sim::SampleSpec& spec : samples) {
      timed([&] { return record_sample(in.env, spec); });
    }
  }
  if (options.set != TrialSet::table1) {
    for (const cd::sim::BenignWorkload& app : cd::sim::all_benign_workloads()) {
      timed([&] { return record_benign(in.env, app, options.seed); });
    }
  }
  in.record_s = record.raw_s();
  in.record_norm_s = record.norm_s();

  // Daemon request lines.
  if (options.set == TrialSet::daemon_mix) {
    host.calibrate();
    total.start(host.factor());
    t0 = Clock::now();
    for (std::size_t i = 0; i < in.trials.size(); ++i) {
      in.requests.push_back(serialize_requests(in.trials[i], i));
    }
    in.serialize_s = seconds_between(t0, Clock::now());
    total.stop();
    // The client sends the request lines; keep only the metadata of the
    // entries they carry.
    for (std::size_t i = 0; i < in.trials.size(); ++i) {
      std::vector<cd::vfs::TraceEntry>& entries = in.trials[i].entries;
      entries.resize(std::min(entries.size(), in.requests[i].submits.size() * kOpsPerSubmit));
      for (cd::vfs::TraceEntry& entry : entries) cd::Bytes().swap(entry.data);
    }
  }
  in.setup_raw_s = total.raw_s();
  in.setup_norm_s = total.norm_s();
  return in;
}

}  // namespace replaybench
