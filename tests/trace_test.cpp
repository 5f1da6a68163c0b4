// Tests for trace record/replay, including the §V-F demonstration that a
// metadata-only activity log cannot drive CryptoDrop's measurements.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/engine.hpp"
#include "harness/experiment.hpp"
#include "vfs/trace.hpp"

namespace cryptodrop::vfs {
namespace {

TEST(TraceFormat, RoundTripsAllOps) {
  FileSystem fs;
  TraceRecorder recorder(/*capture_content=*/true);
  fs.attach_filter(&recorder);
  const ProcessId pid = fs.register_process("traced");
  ASSERT_TRUE(fs.mkdir(pid, "dir").is_ok());
  ASSERT_TRUE(fs.write_file(pid, "dir/a.txt", to_bytes("hello world")).is_ok());
  ASSERT_TRUE(fs.read_file(pid, "dir/a.txt").is_ok());
  ASSERT_TRUE(fs.rename(pid, "dir/a.txt", "dir/b.txt").is_ok());
  ASSERT_TRUE(fs.remove(pid, "dir/b.txt").is_ok());

  const std::string text = serialize_trace(recorder.entries());
  const auto parsed = parse_trace(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), recorder.entries().size());
  for (std::size_t i = 0; i < parsed->size(); ++i) {
    const TraceEntry& a = recorder.entries()[i];
    const TraceEntry& b = (*parsed)[i];
    EXPECT_EQ(a.op, b.op) << i;
    EXPECT_EQ(a.pid, b.pid) << i;
    EXPECT_EQ(a.path, b.path) << i;
    EXPECT_EQ(a.dest_path, b.dest_path) << i;
    EXPECT_EQ(a.offset, b.offset) << i;
    EXPECT_EQ(a.length, b.length) << i;
    EXPECT_EQ(a.data, b.data) << i;
    EXPECT_EQ(a.timestamp, b.timestamp) << i;
  }
  fs.detach_filter(&recorder);
}

TEST(TraceFormat, EscapesAwkwardPaths) {
  FileSystem fs;
  TraceRecorder recorder(true);
  fs.attach_filter(&recorder);
  const ProcessId pid = fs.register_process("p");
  ASSERT_TRUE(fs.write_file(pid, "dir/we|ird\\name.txt", to_bytes("x")).is_ok());
  const auto parsed = parse_trace(serialize_trace(recorder.entries()));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ((*parsed)[0].path, "dir/we|ird\\name.txt");
  fs.detach_filter(&recorder);
}

TEST(TraceFormat, RejectsMalformedInput) {
  EXPECT_FALSE(parse_trace("write|not-enough-fields").has_value());
  EXPECT_FALSE(parse_trace("nosuchop|1|0|p||0|0|0|").has_value());
  EXPECT_FALSE(parse_trace("write|xx|0|p||0|0|0|").has_value());
  EXPECT_FALSE(parse_trace("write|1|0|p||0|0|0|zz").has_value());
  // Comments and blank lines are fine.
  const auto ok = parse_trace("# comment\n\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->empty());
}

TEST(TraceFormat, EntryLinesRoundTripAwkwardFieldsAndV1) {
  TraceEntry renamed;
  renamed.op = OpType::rename;
  renamed.pid = 7;
  renamed.timestamp = 123456789;
  renamed.path = "|lead\\ing|\nnew\\line|";
  renamed.dest_path = "a|b\\c\nd";
  TraceEntry empty_write;
  empty_write.op = OpType::write;
  empty_write.pid = 3;
  empty_write.path = "docs/empty.txt";
  empty_write.handle = 42;
  TraceEntry full_write = empty_write;
  full_write.offset = 4096;
  full_write.data = {0x00, 0x7f, 0x80, 0xff, 0x10};
  full_write.length = full_write.data.size();
  full_write.open_mode = kWrite | kCreate;
  for (const TraceEntry& entry : {renamed, empty_write, full_write}) {
    const std::string line = serialize_trace_entry(entry);
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    const std::optional<TraceEntry> parsed = parse_trace_entry(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_TRUE(*parsed == entry) << line;
  }
  // v1 lines have no handle field; it reads as 0.
  const std::optional<TraceEntry> v1 =
      parse_trace_entry("write|3|9|docs/a\\pb.txt||0|16|3|00ff7F");
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->path, "docs/a|b.txt");
  EXPECT_EQ(v1->offset, 16u);
  EXPECT_EQ(v1->handle, 0u);
  EXPECT_EQ(v1->data, (Bytes{0x00, 0xff, 0x7f}));
  const std::optional<TraceEntry> v1_empty =
      parse_trace_entry("close|3|9|docs/a.txt||0|0|0|");
  ASSERT_TRUE(v1_empty.has_value());
  EXPECT_TRUE(v1_empty->data.empty());
}

TEST(TraceFormat, EntryLinesRejectWrongFieldCountsAndBadPayloads) {
  // 8 and 11 fields.
  EXPECT_FALSE(parse_trace_entry("write|1|0|p||0|0|0").has_value());
  EXPECT_FALSE(parse_trace_entry("write|1|0|p||0|0|0|0|00|").has_value());
  EXPECT_FALSE(parse_trace_entry("write|1|0|p||0|0|0|0|00|00").has_value());
  EXPECT_FALSE(parse_trace_entry("").has_value());
  // Non-hex and odd-length payloads, v1 and v2.
  EXPECT_FALSE(parse_trace_entry("write|1|0|p||0|0|1|0g").has_value());
  EXPECT_FALSE(parse_trace_entry("write|1|0|p||0|0|1|7|0g").has_value());
  EXPECT_FALSE(parse_trace_entry("write|1|0|p||0|0|1|7|abc").has_value());
  EXPECT_FALSE(parse_trace_entry("write|1|0|p||0|0|1|7|ab\\").has_value());
  // A dangling or unknown escape in a path.
  EXPECT_FALSE(parse_trace_entry("write|1|0|p\\||0|0|1|7|ab").has_value());
  EXPECT_FALSE(parse_trace_entry("write|1|0|p\\x||0|0|1|7|ab").has_value());
  EXPECT_TRUE(parse_trace_entry("write|1|0|p||0|0|1|7|ab").has_value());
}

TEST(TraceFormat, MetadataOnlyOmitsPayload) {
  FileSystem fs;
  TraceRecorder recorder(/*capture_content=*/false);
  fs.attach_filter(&recorder);
  const ProcessId pid = fs.register_process("p");
  ASSERT_TRUE(fs.write_file(pid, "a.bin", to_bytes("secret payload")).is_ok());
  for (const TraceEntry& entry : recorder.entries()) {
    EXPECT_TRUE(entry.data.empty());
    if (entry.op == OpType::write) {
      EXPECT_EQ(entry.length, 14u);
    }
  }
  fs.detach_filter(&recorder);
}

/// Replays `entries` onto `fs` through one ExactReplayer; returns how
/// many entries did not apply.
std::size_t replay(FileSystem& fs, const std::vector<TraceEntry>& entries) {
  ExactReplayer replayer(fs);
  std::size_t not_applied = 0;
  for (const TraceEntry& entry : entries) {
    if (replayer.apply(entry) != ExactReplayer::Outcome::applied) ++not_applied;
  }
  return not_applied;
}

TEST(TraceReplay, ContentTraceReproducesTheVolume) {
  FileSystem fs;
  TraceRecorder recorder(true);
  fs.attach_filter(&recorder);
  const ProcessId pid = fs.register_process("p");
  Rng rng(1);
  ASSERT_TRUE(fs.write_file(pid, "docs/report.txt",
                            to_bytes(synth_prose(rng, 3000))).is_ok());
  ASSERT_TRUE(fs.write_file(pid, "docs/data.bin", rng.bytes(4096)).is_ok());
  ASSERT_TRUE(fs.rename(pid, "docs/report.txt", "docs/final.txt").is_ok());
  fs.detach_filter(&recorder);

  FileSystem replayed;
  EXPECT_EQ(replay(replayed, recorder.entries()), 0u);
  ASSERT_TRUE(replayed.exists("docs/final.txt"));
  ASSERT_TRUE(replayed.exists("docs/data.bin"));
  EXPECT_EQ(*replayed.read_unfiltered("docs/final.txt"),
            *fs.read_unfiltered("docs/final.txt"));
  EXPECT_EQ(*replayed.read_unfiltered("docs/data.bin"),
            *fs.read_unfiltered("docs/data.bin"));
}

TEST(TraceReplay, PreservesVirtualPacing) {
  FileSystem fs;
  TraceRecorder recorder(true);
  fs.attach_filter(&recorder);
  const ProcessId pid = fs.register_process("p");
  ASSERT_TRUE(fs.write_file(pid, "a", to_bytes("1")).is_ok());
  fs.advance_time(5'000'000);
  ASSERT_TRUE(fs.write_file(pid, "b", to_bytes("2")).is_ok());
  fs.detach_filter(&recorder);

  FileSystem replayed;
  (void)replay(replayed, recorder.entries());
  EXPECT_GE(replayed.now_micros(), 5'000'000u);
}

TEST(TraceReplay, EntriesPastTheFileBoundFailInsteadOfAllocating) {
  // ExactReplayer sizes a write by its payload, so the write that ends
  // past the bound starts just short of it instead of carrying 2^40
  // bytes.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  auto entry = [](OpType op, std::uint64_t offset, std::uint64_t length) {
    TraceEntry e;
    e.op = op;
    e.pid = 1;
    e.path = "a.bin";
    e.handle = 1;
    e.offset = offset;
    e.length = length;
    if (op == OpType::write) e.data.assign(static_cast<std::size_t>(length), 0x42);
    return e;
  };
  TraceEntry open = entry(OpType::open, 0, 0);
  open.open_mode = kWrite | kCreate;
  FileSystem fs;
  ExactReplayer replayer(fs);
  using Outcome = ExactReplayer::Outcome;
  EXPECT_EQ(replayer.apply(open), Outcome::applied);
  EXPECT_EQ(replayer.apply(entry(OpType::write, 0, 4)), Outcome::applied);
  EXPECT_EQ(replayer.apply(entry(OpType::write, ExactReplayer::kMaxFileBytes - 2, 4)),
            Outcome::failed);
  EXPECT_EQ(replayer.apply(entry(OpType::write, kHuge, 4)), Outcome::failed);
  EXPECT_EQ(replayer.apply(entry(OpType::truncate, 0, kHuge)), Outcome::failed);
  EXPECT_EQ(replayer.apply(entry(OpType::close, 0, 0)), Outcome::applied);
  EXPECT_EQ(fs.read_unfiltered("a.bin")->size(), 4u);
}

// --- the §V-F demonstration ---------------------------------------------

class TraceAnalysisTest : public ::testing::Test {
 protected:
  static harness::Environment* env;

  static void SetUpTestSuite() {
    corpus::CorpusSpec spec;
    spec.total_files = 300;
    spec.total_dirs = 30;
    spec.compute_hashes = false;
    env = new harness::Environment(harness::make_environment(spec, 909));
  }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }

  /// Records a ransomware run (no engine attached — passive observation).
  std::vector<TraceEntry> record_attack(bool capture_content) {
    FileSystem fs = env->base_fs.clone();
    TraceRecorder recorder(capture_content);
    fs.attach_filter(&recorder);
    const ProcessId pid = fs.register_process("malware");
    sim::RansomwareProfile profile =
        sim::family_profile("TeslaCrypt", sim::BehaviorClass::A);
    profile.max_files = 25;
    sim::RansomwareSample sample(profile, 42);
    (void)sample.run(fs, pid, env->corpus.root);
    fs.detach_filter(&recorder);
    return recorder.entries();
  }

  /// Replays a trace into a fresh clone with the engine attached. A
  /// write without its payload (a metadata-only trace) replays as zeros
  /// of the recorded length: all a content-free log can reconstruct.
  core::ProcessReport analyze_replay(std::vector<TraceEntry> trace) {
    for (TraceEntry& entry : trace) {
      if (entry.op == OpType::write && entry.data.size() != entry.length) {
        entry.data.assign(static_cast<std::size_t>(entry.length), 0);
      }
    }
    FileSystem fs = env->base_fs.clone();
    core::ScoringConfig config;
    config.score_threshold = 1000000;  // observe everything
    config.union_threshold = 1000000;
    core::AnalysisEngine engine(config);
    fs.attach_filter(&engine);
    (void)replay(fs, trace);
    // All replayer pids map to one family-less process each; aggregate
    // the report of the busiest one.
    core::ProcessReport best;
    for (const core::ProcessReport& report : engine.snapshot().processes) {
      if (report.score >= best.score) best = report;
    }
    fs.detach_filter(&engine);
    return best;
  }
};

harness::Environment* TraceAnalysisTest::env = nullptr;

TEST_F(TraceAnalysisTest, ContentCarryingReplayReproducesDetection) {
  const auto report = analyze_replay(record_attack(/*capture_content=*/true));
  EXPECT_GT(report.type_change_events, 0u);
  EXPECT_GT(report.similarity_drop_events, 0u);
  EXPECT_GT(report.entropy_events, 0u);
  EXPECT_TRUE(report.union_triggered);
}

TEST_F(TraceAnalysisTest, MetadataOnlyReplayLosesTheIndicators) {
  // The paper's point: a content-free activity log (what conventional
  // dynamic analysis keeps) cannot reproduce CryptoDrop's measurements —
  // the replay writes zeros, so entropy collapses and similarity becomes
  // unavailable, and union indication never forms.
  const auto full = analyze_replay(record_attack(true));
  const auto metadata_only = analyze_replay(record_attack(false));
  EXPECT_EQ(metadata_only.entropy_events, 0u);
  EXPECT_EQ(metadata_only.similarity_drop_events, 0u);
  EXPECT_FALSE(metadata_only.union_triggered);
  EXPECT_LT(metadata_only.score, full.score);
}

}  // namespace
}  // namespace cryptodrop::vfs
