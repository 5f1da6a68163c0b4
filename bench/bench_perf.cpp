// §V-H reproduction: per-operation overhead of the CryptoDrop engine,
// measured with google-benchmark.
//
// Paper reference (unoptimized research prototype): open/read < 1 ms,
// close +1.58 ms, write +9 ms, rename +16 ms — write and rename are the
// most expensive because that is where measurement happens. Our absolute
// numbers are micro-seconds (in-memory FS, no disk), but the *ordering*
// should match: rename/close-after-write carry the measurement cost.
// With --perf-out PATH the non-google-benchmark sections (engine
// per-op latency, stage self-times, tracing overhead, per-backend
// scoring cost) are also written as JSON — the format checked in as
// BENCH_PERF.json, the repo's perf baseline.
#include <benchmark/benchmark.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/engine.hpp"
#include "crypto/sha256.hpp"
#include "daemon/daemon.hpp"
#include "daemon/server.hpp"
#include "entropy/backend.hpp"
#include "entropy/entropy.hpp"
#include "obs/span.hpp"
#include "vfs/filesystem.hpp"
#include "vfs/trace.hpp"

using namespace cryptodrop;

namespace {

constexpr const char* kRoot = "users/victim/documents";

struct PerfFixture {
  vfs::FileSystem fs;
  std::unique_ptr<core::AnalysisEngine> engine;
  vfs::ProcessId pid = 0;
  Rng rng{99};

  explicit PerfFixture(bool with_engine, obs::SpanTracer* tracer = nullptr) {
    // A modest protected tree with realistic content.
    for (int i = 0; i < 64; ++i) {
      const std::string path =
          std::string(kRoot) + "/dir" + std::to_string(i % 8) + "/doc" +
          std::to_string(i) + ".txt";
      Bytes content = to_bytes(synth_prose(rng, 64 * 1024));
      (void)fs.put_file_raw(path, std::move(content));
    }
    // Tracer before the engine attaches (the engine caches it on attach).
    if (tracer != nullptr) fs.set_span_tracer(tracer);
    if (with_engine) {
      core::ScoringConfig config;
      config.score_threshold = 1 << 30;  // measure, never suspend
      config.union_threshold = 1 << 30;
      engine = std::make_unique<core::AnalysisEngine>(config);
      fs.attach_filter(engine.get());
    }
    pid = fs.register_process("bench");
  }

  std::string doc(int i) {
    return std::string(kRoot) + "/dir" + std::to_string(i % 8) + "/doc" +
           std::to_string(i % 64) + ".txt";
  }
};

void BM_OpenClose(benchmark::State& state) {
  PerfFixture fx(state.range(0) != 0);
  int i = 0;
  for (auto _ : state) {
    auto h = fx.fs.open(fx.pid, fx.doc(i++), vfs::kRead);
    benchmark::DoNotOptimize(h);
    (void)fx.fs.close(fx.pid, h.value());
  }
}
BENCHMARK(BM_OpenClose)->Arg(0)->Arg(1)->ArgNames({"engine"});

void BM_Read64K(benchmark::State& state) {
  PerfFixture fx(state.range(0) != 0);
  int i = 0;
  for (auto _ : state) {
    auto h = fx.fs.open(fx.pid, fx.doc(i++), vfs::kRead);
    auto data = fx.fs.read(fx.pid, h.value(), 64 * 1024);
    benchmark::DoNotOptimize(data);
    (void)fx.fs.close(fx.pid, h.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 1024);
}
BENCHMARK(BM_Read64K)->Arg(0)->Arg(1)->ArgNames({"engine"});

void BM_Write64K(benchmark::State& state) {
  PerfFixture fx(state.range(0) != 0);
  const Bytes payload = fx.rng.bytes(64 * 1024);
  int i = 0;
  for (auto _ : state) {
    auto h = fx.fs.open(fx.pid, fx.doc(i++), vfs::kRead | vfs::kWrite);
    (void)fx.fs.write(fx.pid, h.value(), ByteView(payload));
    (void)fx.fs.close(fx.pid, h.value());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 1024);
}
BENCHMARK(BM_Write64K)->Arg(0)->Arg(1)->ArgNames({"engine"});

void BM_WriteCloseMeasured(benchmark::State& state) {
  // The expensive path the paper calls out: a modified file's close is
  // where type + similarity measurement runs.
  PerfFixture fx(state.range(0) != 0);
  int i = 0;
  for (auto _ : state) {
    const std::string path = fx.doc(i++);
    auto h = fx.fs.open(fx.pid, path, vfs::kRead | vfs::kWrite);
    Bytes fresh = to_bytes(synth_prose(fx.rng, 64 * 1024));
    (void)fx.fs.write(fx.pid, h.value(), ByteView(fresh));
    (void)fx.fs.close(fx.pid, h.value());
  }
}
BENCHMARK(BM_WriteCloseMeasured)->Arg(0)->Arg(1)->ArgNames({"engine"});

void BM_Rename(benchmark::State& state) {
  PerfFixture fx(state.range(0) != 0);
  int i = 0;
  std::string current = fx.doc(0);
  for (auto _ : state) {
    const std::string next =
        std::string(kRoot) + "/renamed_" + std::to_string(i++ % 2) + ".txt";
    (void)fx.fs.rename(fx.pid, current, next);
    current = next;
  }
}
BENCHMARK(BM_Rename)->Arg(0)->Arg(1)->ArgNames({"engine"});

void BM_RenameReplace(benchmark::State& state) {
  // Rename-over-existing: the engine must snapshot + compare pre-images
  // (the paper's most expensive operation at 16 ms).
  PerfFixture fx(state.range(0) != 0);
  int i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string src = std::string(kRoot) + "/incoming.tmp";
    (void)fx.fs.write_file(fx.pid, src, fx.rng.bytes(64 * 1024));
    const std::string dst = fx.doc(i++);
    state.ResumeTiming();
    (void)fx.fs.rename(fx.pid, src, dst);
  }
}
BENCHMARK(BM_RenameReplace)->Arg(0)->Arg(1)->ArgNames({"engine"});

void BM_Remove(benchmark::State& state) {
  PerfFixture fx(state.range(0) != 0);
  int i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string path = std::string(kRoot) + "/victim" + std::to_string(i++) + ".txt";
    (void)fx.fs.put_file_raw(path, to_bytes("to be deleted"));
    state.ResumeTiming();
    (void)fx.fs.remove(fx.pid, path);
  }
}
BENCHMARK(BM_Remove)->Arg(0)->Arg(1)->ArgNames({"engine"});

void BM_UnmonitoredDirectoryOps(benchmark::State& state) {
  // §V-H: "CryptoDrop does not inspect files outside of the user's
  // documents directory" — engine on/off must be indistinguishable here.
  PerfFixture fx(state.range(0) != 0);
  const Bytes payload = fx.rng.bytes(16 * 1024);
  int i = 0;
  for (auto _ : state) {
    const std::string path = "programdata/cache/blob" + std::to_string(i++ % 16);
    (void)fx.fs.write_file(fx.pid, path, ByteView(payload));
    auto data = fx.fs.read_file(fx.pid, path);
    benchmark::DoNotOptimize(data);
  }
}
BENCHMARK(BM_UnmonitoredDirectoryOps)->Arg(0)->Arg(1)->ArgNames({"engine"});

/// The paper's own methodology ("we traced our code while performing
/// modifications to protected files"): run a realistic mixed workload
/// and print the engine's internal per-callback cost per op type, read
/// from its `filter_dispatch_us.<op>` histograms. Returns the same
/// numbers as JSON for --perf-out, or nullopt when the close-path gate
/// (close mean within 3x of write mean) is violated — the regression
/// that motivated digest retention + cache routing — or, in a metrics
/// build, when the write or close histogram is empty.
std::optional<Json> print_engine_internal_latency() {
  PerfFixture fx(/*with_engine=*/true);
  Rng rng(7);
  // A mixed workload with *repeated* modification: 8 hot documents each
  // saved 8 times, alternating between two buffer states (the autosave /
  // undo-toggle pattern real editors produce — and the pattern the
  // paper's per-file baseline machinery is exercised hardest by). Reads
  // outnumber writes 2:1; renames and deletes ride along. Before the
  // digest-retention fix, every one of these closes recomputed the
  // baseline digest from scratch, which is exactly what the close-path
  // outlier in the perf baseline was.
  constexpr int kRounds = 64;
  constexpr int kHotDocs = 8;
  std::vector<std::array<Bytes, 2>> versions(kHotDocs);
  for (int f = 0; f < kHotDocs; ++f) {
    versions[static_cast<std::size_t>(f)][0] = to_bytes(synth_prose(rng, 64 * 1024));
    // The "edited" state: same document with a rewritten middle section.
    Bytes edited = versions[static_cast<std::size_t>(f)][0];
    const Bytes patch = to_bytes(synth_prose(rng, 8 * 1024));
    std::copy(patch.begin(), patch.end(), edited.begin() + 16 * 1024);
    versions[static_cast<std::size_t>(f)][1] = std::move(edited);
  }
  for (int round = 0; round < kRounds; ++round) {
    const int hot = round % kHotDocs;
    const std::string path = fx.doc(hot);
    (void)fx.fs.read_file(fx.pid, path);
    (void)fx.fs.read_file(fx.pid, fx.doc(16 + (round * 7 + 3) % 32));
    auto h = fx.fs.open(fx.pid, path, vfs::kRead | vfs::kWrite);
    if (h) {
      const Bytes& fresh =
          versions[static_cast<std::size_t>(hot)][(round / kHotDocs) % 2];
      (void)fx.fs.write(fx.pid, h.value(), ByteView(fresh));
      (void)fx.fs.close(fx.pid, h.value());
    }
    if (round % 8 == 0) {
      (void)fx.fs.rename(fx.pid, fx.doc(48 + round / 8),
                         std::string(kRoot) + "/renamed" + std::to_string(round));
    }
    if (round % 16 == 0) {
      const std::string victim = std::string(kRoot) + "/tmp" + std::to_string(round);
      (void)fx.fs.put_file_raw(victim, to_bytes("bye"));
      (void)fx.fs.remove(fx.pid, victim);
    }
  }
  const obs::MetricsSnapshot metrics = fx.engine->metrics_snapshot();
  const auto dispatch = [&](vfs::OpType op) {
    const obs::HistogramSnapshot* h =
        metrics.histogram("filter_dispatch_us." + std::string(vfs::op_name(op)));
    return h != nullptr ? *h : obs::HistogramSnapshot{};
  };
  std::printf("\n== engine-internal measurement cost per op (paper §V-H style) ==\n");
  std::printf("%-10s %10s %14s\n", "op", "count", "mean (us)");
  Json ops = Json::object();
  for (vfs::OpType op : {vfs::OpType::open, vfs::OpType::read, vfs::OpType::write,
                         vfs::OpType::close, vfs::OpType::rename,
                         vfs::OpType::remove}) {
    const obs::HistogramSnapshot h = dispatch(op);
    const std::string name(vfs::op_name(op));
    std::printf("%-10s %10llu %14.1f\n", name.c_str(),
                static_cast<unsigned long long>(h.count), h.mean());
    Json row = Json::object();
    row.set("count", h.count);
    row.set("mean_us", h.mean());
    ops.set(name, std::move(row));
  }
  std::printf("[paper's unoptimized prototype: open/read < 1 ms, close +1.58 ms,\n"
              " write +9 ms, rename +16 ms — write/rename/close carry the\n"
              " measurement, opens and reads are nearly free]\n");

  // The same cost, stage by stage: which part of the measurement
  // (digest, entropy, type sniff) the per-op latency above is spent in.
  std::printf("\n== stage latency (obs histograms) ==\n");
  std::printf("%-34s %10s %14s\n", "stage", "samples", "mean (us)");
  Json stages = Json::object();
  for (const obs::HistogramSnapshot& h : metrics.histograms) {
    if (h.name.rfind("stage_latency_us.", 0) != 0) continue;
    std::printf("%-34s %10llu %14.2f\n", h.name.c_str(),
                static_cast<unsigned long long>(h.count), h.mean());
    Json stage = Json::object();
    stage.set("samples", h.count);
    stage.set("mean_us", h.mean());
    stages.set(h.name, std::move(stage));
  }
  // The repaired close-path ratio, pinned. Close is where the engine
  // re-measures a modified file; with digest retention + the digest
  // memo on each content buffer it must sit within 3x of the write mean
  // (the perf baseline shipped with a 12x outlier: 192.5us close vs
  // 15.9us write).
  const obs::HistogramSnapshot write = dispatch(vfs::OpType::write);
  const obs::HistogramSnapshot close = dispatch(vfs::OpType::close);
  const double ratio = write.mean() > 0.0 ? close.mean() / write.mean() : 0.0;

  Json out = Json::object();
  out.set("per_op", std::move(ops));
  out.set("stage_self_time", std::move(stages));
  out.set("close_to_write_ratio", ratio);
  if (!obs::kMetricsEnabled) {
    std::printf("close/write gate skipped: metrics compiled out "
                "(CRYPTODROP_NO_METRICS)\n");
    return out;
  }
  if (write.count == 0 || close.count == 0) {
    std::fprintf(stderr,
                 "FAIL: the close/write gate has no samples (write %llu, "
                 "close %llu) — the workload no longer reaches the engine\n",
                 static_cast<unsigned long long>(write.count),
                 static_cast<unsigned long long>(close.count));
    return std::nullopt;
  }
  std::printf("close/write mean ratio: %.2f (budget: <= 3.0)\n", ratio);
  if (ratio > 3.0) {
    std::fprintf(stderr,
                 "FAIL: close mean %.1fus is %.2fx the write mean %.1fus "
                 "(budget: within 3x) — the close-path digest work is "
                 "being recomputed\n",
                 close.mean(), ratio, write.mean());
    return std::nullopt;
  }
  return out;
}

/// Daemon ingestion throughput under contention: 8 tenants submitting a
/// recorded open/write/close workload from 8 producer threads at worker
/// counts 1 and 8 (the --jobs axis). Reports end-to-end ops/sec (submit
/// through drained execution) and the batched-drain amortisation
/// (ops per queue-lock acquisition).
///
/// Guardrail: an 8-worker run with one live `watch` subscriber streaming
/// frames over a real AF_UNIX server must stay within 5% of the plain
/// 8-worker throughput — the telemetry plane may observe the hot path,
/// never tax it. One retry (best ratio kept) absorbs scheduler noise.
/// Returns nullopt on violation.
std::optional<Json> run_daemon_ingestion() {
  constexpr int kTenants = 8;
  constexpr std::size_t kSlice = 32;  // ops per submit() call

  // A small protected base volume every tenant clones.
  vfs::FileSystem base;
  Rng rng(55);
  for (int i = 0; i < 16; ++i) {
    (void)base.put_file_raw(
        std::string(kRoot) + "/doc" + std::to_string(i) + ".txt",
        to_bytes(synth_prose(rng, 16 * 1024)));
  }

  // Record one writer's workload against a clone of the base.
  vfs::FileSystem recorded_fs = base.clone();
  vfs::TraceRecorder recorder(/*capture_content=*/true);
  recorded_fs.attach_filter(&recorder);
  const vfs::ProcessId writer = recorded_fs.register_process("writer");
  Rng workload(56);
  for (int round = 0; round < 96; ++round) {
    const std::string path =
        std::string(kRoot) + "/doc" + std::to_string(round % 16) + ".txt";
    auto h = recorded_fs.open(writer, path, vfs::kRead | vfs::kWrite);
    if (h) {
      const Bytes fresh = to_bytes(synth_prose(workload, 16 * 1024));
      (void)recorded_fs.write(writer, h.value(), ByteView(fresh));
      (void)recorded_fs.close(writer, h.value());
    }
  }
  const std::vector<vfs::TraceEntry>& entries = recorder.entries();

  std::printf("\n== daemon ingestion under contention (%d tenants, %zu ops each) ==\n",
              kTenants, entries.size());
  std::printf("%-12s %14s %14s %14s\n", "workers", "ops/sec", "batches",
              "ops/batch");

  struct IngestionRun {
    double ops_per_sec = 0.0;
    double batches = 0.0;
    double ops_per_batch = 0.0;
  };
  /// One full ingestion pass. With `with_watch` a SocketServer fronts
  /// the same daemon and a subscriber thread drains the `watch` stream
  /// for the whole run (frames counted, never inspected).
  const auto measure = [&](std::size_t workers,
                           bool with_watch) -> std::optional<IngestionRun> {
    daemon::DaemonOptions options;
    options.workers = workers;
    options.queue_capacity = 1 << 16;  // hold the full burst; measure
                                       // throughput, not shedding
    options.default_config.score_threshold = 1 << 30;  // measure, never
    options.default_config.union_threshold = 1 << 30;  // suspend
    daemon::Daemon daemon(base, options);
    std::unique_ptr<daemon::SocketServer> server;
    std::thread subscriber;
    std::atomic<std::uint64_t> frames{0};
    if (with_watch) {
      const std::string path =
          "/tmp/cryptodrop_bench_watch_" + std::to_string(::getpid()) +
          ".sock";
      daemon::ServerOptions server_options;
      server_options.frame_interval_ms = 20;
      server = std::make_unique<daemon::SocketServer>(daemon, path,
                                                      server_options);
      if (!server->start().is_ok()) {
        std::fprintf(stderr, "watch server failed to start\n");
        return std::nullopt;
      }
      subscriber = std::thread([path, &frames] {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) return;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
          ::close(fd);
          return;
        }
        const char request[] = "{\"type\":\"watch\",\"cursor\":0}\n";
        if (::write(fd, request, sizeof(request) - 1) <= 0) {
          ::close(fd);
          return;
        }
        char chunk[4096];
        for (ssize_t n = ::read(fd, chunk, sizeof(chunk)); n > 0;
             n = ::read(fd, chunk, sizeof(chunk))) {
          for (ssize_t i = 0; i < n; ++i) {
            if (chunk[i] == '\n') frames.fetch_add(1);
          }
        }
        ::close(fd);
      });
    }
    std::vector<std::string> tenants;
    for (int t = 0; t < kTenants; ++t) {
      tenants.push_back("tenant" + std::to_string(t));
      if (!daemon.attach(tenants.back()).is_ok() ||
          !daemon.spawn(tenants.back(), writer, "writer", 0).is_ok()) {
        std::fprintf(stderr, "daemon setup failed\n");
        daemon.shutdown(/*drain_first=*/false);
        if (subscriber.joinable()) subscriber.join();
        return std::nullopt;
      }
    }
    const auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> producers;
    for (const std::string& tenant : tenants) {
      producers.emplace_back([&, tenant] {
        for (std::size_t off = 0; off < entries.size(); off += kSlice) {
          const std::size_t take = std::min(kSlice, entries.size() - off);
          std::vector<vfs::TraceEntry> slice(entries.begin() + static_cast<std::ptrdiff_t>(off),
                                             entries.begin() + static_cast<std::ptrdiff_t>(off + take));
          (void)daemon.submit(tenant, std::move(slice));
        }
      });
    }
    for (std::thread& t : producers) t.join();
    daemon.drain();
    const auto end = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(end - begin).count();
    const double total_ops =
        static_cast<double>(entries.size()) * static_cast<double>(kTenants);
    IngestionRun run;
    run.ops_per_sec = secs > 0.0 ? total_ops / secs : 0.0;
    for (const obs::CounterSnapshot& c : daemon.metrics().counters) {
      if (c.name == "daemon_batches_drained_total") {
        run.batches = static_cast<double>(c.value);
      }
    }
    daemon.shutdown(/*drain_first=*/true);
    if (server != nullptr) {
      server->stop();  // Serve loop already exiting (daemon is down).
      subscriber.join();
      if (frames.load() == 0) {
        std::fprintf(stderr,
                     "FAIL: the watch subscriber received no frames — the "
                     "overhead run measured nothing\n");
        return std::nullopt;
      }
    }
    run.ops_per_batch = run.batches > 0.0 ? total_ops / run.batches : 0.0;
    return run;
  };

  Json out = Json::object();
  double base_8 = 0.0;
  for (std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    const std::optional<IngestionRun> run = measure(workers, /*with_watch=*/false);
    if (!run.has_value()) return std::nullopt;
    std::printf("%-12zu %14.0f %14.0f %14.1f\n", workers, run->ops_per_sec,
                run->batches, run->ops_per_batch);
    if (workers == 8) base_8 = run->ops_per_sec;
    const std::string prefix = "workers_" + std::to_string(workers);
    out.set(prefix + "_ops_per_sec", run->ops_per_sec);
    out.set(prefix + "_batches_drained", run->batches);
    out.set(prefix + "_ops_per_batch", run->ops_per_batch);
  }

  // The watch-overhead gate: 8 workers + 1 streaming subscriber, best
  // of two attempts against the plain 8-worker baseline.
  IngestionRun best;
  double best_ratio = 0.0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const std::optional<IngestionRun> run = measure(8, /*with_watch=*/true);
    if (!run.has_value()) return std::nullopt;
    const double ratio = base_8 > 0.0 ? run->ops_per_sec / base_8 : 0.0;
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best = *run;
    }
    if (best_ratio >= 0.95) break;
  }
  const double overhead_pct = (1.0 - best_ratio) * 100.0;
  std::printf("%-12s %14.0f %14.0f %14.1f   (overhead %.1f%%)\n", "8+watch",
              best.ops_per_sec, best.batches, best.ops_per_batch,
              overhead_pct);
  out.set("workers_8_watch_ops_per_sec", best.ops_per_sec);
  out.set("watch_overhead_pct", overhead_pct);
  if (best_ratio < 0.95) {
    std::fprintf(stderr,
                 "FAIL: one watch subscriber costs %.1f%% of 8-worker "
                 "ingestion throughput (budget: 5%%) — the telemetry plane "
                 "is taxing the hot path\n",
                 overhead_pct);
    return std::nullopt;
  }
  return out;
}

/// Per-backend scoring cost over a fixed 64 KiB buffer, plus the direct
/// `entropy::shannon` call the engine made before the Backend interface
/// existed. Guardrail: the shannon backend (the default config's hot
/// path) must stay within 5% of the direct call — the interface may not
/// tax the path every deployment runs. Returns nullopt on violation.
std::optional<Json> run_backend_scoring_costs() {
  constexpr std::size_t kBufBytes = 64 * 1024;
  constexpr int kCalls = 64;
  constexpr int kReps = 9;  // best-of, same policy as the tracing gate
  // The gated pair runs many short reps instead: on a shared host a
  // short rep is likelier to land in a quiet stretch.
  constexpr int kGateCalls = 4;
  constexpr int kGateReps = 401;
  Rng rng(41);
  const Bytes prose = to_bytes(synth_prose(rng, kBufBytes));
  const Bytes random = rng.bytes(kBufBytes);

  // Nanoseconds per call over `calls` passes across both buffers.
  const auto pass_ns = [&](int calls, auto&& fn) {
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) {
      benchmark::DoNotOptimize(fn(ByteView(prose)));
      benchmark::DoNotOptimize(fn(ByteView(random)));
    }
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(end - begin).count() / (2.0 * calls);
  };

  // The gated pair alternates rep by rep (direct, interface, direct,
  // ...) and keeps each side's best, so a change in host speed during
  // the run reaches both sides alike instead of reading as overhead.
  const auto shannon = entropy::make_backend(entropy::BackendKind::shannon);
  double direct_ns = 1e18;
  double shannon_backend_ns = 1e18;
  for (int rep = 0; rep < kGateReps; ++rep) {
    direct_ns = std::min(
        direct_ns, pass_ns(kGateCalls, [](ByteView data) { return entropy::shannon(data); }));
    shannon_backend_ns =
        std::min(shannon_backend_ns,
                 pass_ns(kGateCalls, [&](ByteView data) { return shannon->score(data); }));
  }

  std::printf("\n== entropy-backend scoring cost (64 KiB buffer) ==\n");
  std::printf("%-22s %14s\n", "backend", "ns / call");
  std::printf("%-22s %14.0f\n", "(direct shannon)", direct_ns);

  Json costs = Json::object();
  costs.set("direct_shannon_ns", direct_ns);
  for (entropy::BackendKind kind : entropy::all_backend_kinds()) {
    const auto backend = entropy::make_backend(kind);
    double ns = shannon_backend_ns;
    if (kind != entropy::BackendKind::shannon) {
      ns = 1e18;
      for (int rep = 0; rep < kReps; ++rep) {
        ns = std::min(ns, pass_ns(kCalls, [&](ByteView data) { return backend->score(data); }));
      }
    }
    std::printf("%-22s %14.0f\n", std::string(backend->name()).c_str(), ns);
    costs.set(std::string(backend->name()) + "_ns", ns);
  }

  const double overhead_pct =
      direct_ns > 0.0 ? 100.0 * (shannon_backend_ns - direct_ns) / direct_ns
                      : 0.0;
  costs.set("shannon_interface_overhead_pct", overhead_pct);
  std::printf("shannon via Backend interface: %+.1f%% vs direct call\n",
              overhead_pct);
  if (overhead_pct >= 5.0) {
    std::fprintf(stderr,
                 "FAIL: the Backend interface costs %.1f%% on the default "
                 "shannon path (budget: <5%% over the direct call)\n",
                 overhead_pct);
    return std::nullopt;
  }
  return costs;
}

/// Tracing-overhead guardrail: the same data-carrying workload (the
/// write+measured-close path, where every engine stage span opens) timed
/// with the tracer off, sampled at the bench default (1-in-16), and
/// keeping everything. Sampled tracing is the always-on configuration we
/// recommend, so it must stay under 5% over the untraced baseline —
/// returns nullopt (and bench_perf exits nonzero) when it doesn't,
/// otherwise the batch timings plus the untraced write+close throughput.
std::optional<Json> run_tracing_overhead_guardrail() {
  constexpr int kOpsPerRep = 192;
  constexpr int kReps = 7;  // best-of: the quietest rep, per config

  // Payloads generated once, outside the timed region; every config and
  // rep writes the same ones.
  Rng payload_rng(17);
  std::vector<Bytes> payloads;
  payloads.reserve(kOpsPerRep);
  for (int i = 0; i < kOpsPerRep; ++i) {
    payloads.push_back(to_bytes(synth_prose(payload_rng, 64 * 1024)));
  }
  const auto run_rep = [&](obs::SpanTracer* tracer) {
    PerfFixture fx(/*with_engine=*/true, tracer);
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < kOpsPerRep; ++i) {
      auto h = fx.fs.open(fx.pid, fx.doc(i), vfs::kRead | vfs::kWrite);
      (void)fx.fs.write(fx.pid, h.value(), ByteView(payloads[static_cast<std::size_t>(i)]));
      (void)fx.fs.close(fx.pid, h.value());
    }
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(end - begin).count();
  };

  obs::TraceOptions sampled_options;
  sampled_options.enabled = true;
  sampled_options.sample_every = 16;  // the bench default
  obs::TraceOptions full_options;
  full_options.enabled = true;
  full_options.sample_every = 1;
  obs::SpanTracer sampled_tracer(sampled_options);
  obs::SpanTracer full_tracer(full_options);

  // The configs alternate rep by rep, each round in a rotated order, and
  // each keeps its best, so a change in host speed during the run, or a
  // rep's cost left to the one after it, reaches all three alike.
  std::array<obs::SpanTracer*, 3> tracers{nullptr, &sampled_tracer, &full_tracer};
  std::array<double, 3> best_us{1e18, 1e18, 1e18};
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t k = 0; k < tracers.size(); ++k) {
      const std::size_t config = (k + static_cast<std::size_t>(rep)) % tracers.size();
      best_us[config] = std::min(best_us[config], run_rep(tracers[config]));
    }
  }
  const double off_us = best_us[0];
  const double sampled_us = best_us[1];
  const double full_us = best_us[2];

  const auto overhead = [&](double us) {
    return off_us > 0.0 ? 100.0 * (us - off_us) / off_us : 0.0;
  };
  std::printf("\n== span-tracing overhead (%d write+close ops, best of %d) ==\n",
              kOpsPerRep, kReps);
  std::printf("%-22s %14s %10s\n", "config", "batch (us)", "overhead");
  std::printf("%-22s %14.1f %10s\n", "tracer off", off_us, "-");
  std::printf("%-22s %14.1f %+9.1f%%\n", "sampled (1-in-16)", sampled_us,
              overhead(sampled_us));
  std::printf("%-22s %14.1f %+9.1f%%\n", "full (every op)", full_us,
              overhead(full_us));

  if (!obs::kMetricsEnabled) {
    std::printf("tracing gate skipped: metrics compiled out "
                "(CRYPTODROP_NO_METRICS)\n");
  } else if (overhead(sampled_us) >= 5.0) {
    std::fprintf(stderr,
                 "FAIL: sampled span tracing costs %.1f%% (budget: <5%% over "
                 "the untraced baseline)\n",
                 overhead(sampled_us));
    return std::nullopt;
  } else {
    std::printf("sampled tracing within the <5%% budget\n");
  }
  Json out = Json::object();
  out.set("write_close_ops_per_sec",
          off_us > 0.0 ? 1e6 * kOpsPerRep / off_us : 0.0);
  out.set("tracer_off_batch_us", off_us);
  out.set("sampled_batch_us", sampled_us);
  out.set("full_batch_us", full_us);
  out.set("sampled_overhead_pct", overhead(sampled_us));
  out.set("full_overhead_pct", overhead(full_us));
  return out;
}

/// Schema check for the --perf-out document: every consumer-visible key
/// must exist with the right shape *before* the file ships (the CI
/// bench-perf-smoke job runs with --perf-out and trusts this). Returns
/// false (after printing what is missing) on any violation.
bool validate_perf_schema(const Json& doc) {
  bool ok = true;
  const auto require = [&](const Json* node, const char* what,
                           bool (Json::*pred)() const) {
    if (node == nullptr || !(node->*pred)()) {
      std::fprintf(stderr, "perf schema: missing or mistyped `%s`\n", what);
      ok = false;
    }
  };
  require(doc.find("schema_version"), "schema_version", &Json::is_number);
  require(doc.find("simd_backend"), "simd_backend", &Json::is_string);
  require(doc.find("sha256_backend"), "sha256_backend", &Json::is_string);
  const Json* engine = doc.find("engine_internal");
  require(engine, "engine_internal", &Json::is_object);
  if (engine != nullptr) {
    const Json* per_op = engine->find("per_op");
    require(per_op, "engine_internal.per_op", &Json::is_object);
    if (per_op != nullptr) {
      for (const char* op : {"open", "read", "write", "close", "rename", "remove"}) {
        const Json* row = per_op->find(op);
        require(row, op, &Json::is_object);
        if (row != nullptr) {
          require(row->find("mean_us"), "per_op mean_us", &Json::is_number);
          require(row->find("count"), "per_op count", &Json::is_number);
        }
      }
    }
    require(engine->find("stage_self_time"), "engine_internal.stage_self_time",
            &Json::is_object);
    require(engine->find("close_to_write_ratio"), "close_to_write_ratio",
            &Json::is_number);
  }
  const Json* tracing = doc.find("throughput_and_tracing");
  require(tracing, "throughput_and_tracing", &Json::is_object);
  if (tracing != nullptr) {
    require(tracing->find("write_close_ops_per_sec"), "write_close_ops_per_sec",
            &Json::is_number);
    require(tracing->find("sampled_overhead_pct"), "sampled_overhead_pct",
            &Json::is_number);
  }
  const Json* backends = doc.find("entropy_backend_scoring");
  require(backends, "entropy_backend_scoring", &Json::is_object);
  if (backends != nullptr) {
    require(backends->find("shannon_interface_overhead_pct"),
            "shannon_interface_overhead_pct", &Json::is_number);
  }
  const Json* ingestion = doc.find("daemon_ingestion");
  require(ingestion, "daemon_ingestion", &Json::is_object);
  if (ingestion != nullptr) {
    for (const char* key : {"workers_1_ops_per_sec", "workers_8_ops_per_sec",
                            "workers_8_ops_per_batch",
                            "workers_8_watch_ops_per_sec",
                            "watch_overhead_pct"}) {
      require(ingestion->find(key), key, &Json::is_number);
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --perf-out before google-benchmark sees (and rejects) it.
  std::string perf_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--perf-out") == 0 && i + 1 < argc) {
      perf_out = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("kernel dispatch: simd=%s sha256=%s\n",
              std::string(kernels::simd_backend_name()).c_str(),
              std::string(crypto::sha256_backend_name()).c_str());
  std::optional<Json> engine_latency = print_engine_internal_latency();
  std::optional<Json> ingestion = run_daemon_ingestion();
  const std::optional<Json> backend_costs = run_backend_scoring_costs();
  const std::optional<Json> tracing = run_tracing_overhead_guardrail();
  if (!engine_latency.has_value() || !ingestion.has_value() ||
      !backend_costs.has_value() || !tracing.has_value()) {
    return 1;
  }

  if (!perf_out.empty()) {
    Json doc = Json::object();
    doc.set("schema_version", 2);
    doc.set("generated_by", "bench_perf --perf-out");
    doc.set("note",
            "single-machine baseline; compare ratios and orderings, not "
            "absolute wall times, across hosts");
    doc.set("simd_backend", kernels::simd_backend_name());
    doc.set("sha256_backend", crypto::sha256_backend_name());
    doc.set("engine_internal", std::move(*engine_latency));
    doc.set("daemon_ingestion", std::move(*ingestion));
    doc.set("throughput_and_tracing", *tracing);
    doc.set("entropy_backend_scoring", *backend_costs);
    if (!validate_perf_schema(doc)) return 1;
    std::FILE* f = std::fopen(perf_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", perf_out.c_str());
      return 1;
    }
    const std::string text = doc.to_pretty_string();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("perf summary written to %s (schema validated)\n",
                perf_out.c_str());
  }
  return 0;
}
