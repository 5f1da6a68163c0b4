// Seeded mutation fuzzer for the cryptodropd wire layer and the span
// trace reader (ctest label: fuzz). Targets parse_json,
// obs::parse_trace_events, vfs::parse_trace_entry, hex_decode and
// ControlDispatcher::handle_line on a live Daemon, starting from valid
// attach, submit and verdicts lines and exported trace documents, and
// mutating them by bit flips, insertions, truncation, splices and deep
// nesting. The seed and the iteration counts are fixed, so every run
// replays the same inputs and a failure reproduces from the test name
// alone. CI runs this binary with the full suite under ASan and UBSan;
// `ctest -L fuzz` runs it alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/hex.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "daemon/control.hpp"
#include "daemon/daemon.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "vfs/filesystem.hpp"
#include "vfs/trace.hpp"

namespace cryptodrop::daemon {
namespace {

constexpr std::uint64_t kSeed = 0x5eedc0de13;
constexpr int kIterations = 20000;

constexpr std::string_view kDocument = "users/victim/documents/report.txt";

/// Bytes the insertion mutator favours: the JSON and trace-line
/// metacharacters, hex digits and the line terminator.
constexpr std::string_view kMetaBytes = "\"\\|[]{}:,-.0123456789abcdefABCDEFpnu\n";

/// A small protected volume for the live daemon's tenants.
vfs::FileSystem make_volume() {
  vfs::FileSystem fs;
  const vfs::ProcessId setup = fs.register_process("setup");
  Rng rng(kSeed);
  EXPECT_TRUE(fs.write_file(setup, kDocument,
                            ByteView(to_bytes(std::string(512, 'q'))))
                  .is_ok());
  EXPECT_TRUE(fs.write_file(setup, "users/victim/documents/photo.jpg",
                            ByteView(rng.bytes(2048)))
                  .is_ok());
  return fs;
}

vfs::TraceEntry make_entry(vfs::OpType op, std::uint64_t timestamp,
                           std::string path, vfs::HandleId handle) {
  vfs::TraceEntry entry;
  entry.op = op;
  entry.pid = 100;
  entry.timestamp = timestamp;
  entry.path = std::move(path);
  entry.handle = handle;
  return entry;
}

/// An encryptor's worth of ops on kDocument: every op type, handles
/// that pair up, a payload, and a rename target with awkward bytes.
std::vector<vfs::TraceEntry> seed_entries() {
  const std::string doc(kDocument);
  std::vector<vfs::TraceEntry> entries;
  entries.push_back(make_entry(vfs::OpType::open, 10, doc, 1));
  entries.back().open_mode = vfs::kRead;
  entries.push_back(make_entry(vfs::OpType::read, 20, doc, 1));
  entries.back().length = 512;
  entries.push_back(make_entry(vfs::OpType::close, 30, doc, 1));
  entries.push_back(make_entry(vfs::OpType::open, 40, doc, 2));
  entries.back().open_mode = vfs::kWrite | vfs::kTruncate;
  entries.push_back(make_entry(vfs::OpType::write, 50, doc, 2));
  entries.back().data = Rng(kSeed + 1).bytes(96);
  entries.back().length = entries.back().data.size();
  entries.push_back(make_entry(vfs::OpType::truncate, 60, doc, 2));
  entries.back().length = 64;
  entries.push_back(make_entry(vfs::OpType::close, 70, doc, 2));
  entries.push_back(make_entry(vfs::OpType::rename, 80, doc, 0));
  entries.back().dest_path = doc + ".locked|\\odd\nname";
  entries.push_back(make_entry(vfs::OpType::mkdir, 90,
                               "users/victim/documents/new", 0));
  entries.push_back(make_entry(vfs::OpType::remove, 100,
                               "users/victim/documents/photo.jpg", 0));
  return entries;
}

std::string submit_line(const std::string& tenant,
                        const std::vector<vfs::TraceEntry>& entries) {
  Json ops = Json::array();
  for (const vfs::TraceEntry& entry : entries) {
    ops.push(vfs::serialize_trace_entry(entry));
  }
  return Json::object()
      .set("type", "submit")
      .set("tenant", tenant)
      .set("ops", std::move(ops))
      .to_string();
}

/// The valid control lines the mutators start from.
std::vector<std::string> seed_lines() {
  const std::vector<vfs::TraceEntry> entries = seed_entries();
  return {
      Json::object().set("type", "attach").set("tenant", "fuzz").to_string(),
      Json::object()
          .set("type", "attach")
          .set("tenant", "tuned")
          .set("config", Json::object()
                             .set("score_threshold", 150)
                             .set("enable_union", false))
          .to_string(),
      submit_line("fuzz", entries),
      submit_line("fuzz", {entries.begin() + 3, entries.begin() + 7}),
      Json::object().set("type", "verdicts").set("tenant", "fuzz").to_string(),
      // The largest finite double must survive re-serialization.
      Json::object()
          .set("type", "events")
          .set("cursor", DBL_MAX)
          .set("max", -DBL_MAX)
          .to_string(),
  };
}

/// One mutation of `input`, at times two to four.
std::string mutate(Rng& rng, std::string input,
                   const std::vector<std::string>& seeds) {
  const std::uint64_t rounds = rng.chance(0.75) ? 1 : rng.uniform(2, 4);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    switch (rng.uniform(0, 4)) {
      case 0: {  // Flip one bit.
        if (input.empty()) break;
        char& byte = input[rng.uniform(0, input.size() - 1)];
        byte = static_cast<char>(byte ^ (1 << rng.uniform(0, 7)));
        break;
      }
      case 1: {  // Insert 1-8 bytes.
        std::string bytes;
        for (std::uint64_t n = rng.uniform(1, 8); n > 0; --n) {
          bytes += rng.chance(0.5)
                       ? kMetaBytes[rng.uniform(0, kMetaBytes.size() - 1)]
                       : static_cast<char>(rng.uniform(0, 255));
        }
        input.insert(rng.uniform(0, input.size()), bytes);
        break;
      }
      case 2:  // Truncate.
        input.resize(rng.uniform(0, input.size()));
        break;
      case 3: {  // Splice this prefix onto another seed's suffix.
        const std::string& other = seeds[rng.uniform(0, seeds.size() - 1)];
        input = input.substr(0, rng.uniform(0, input.size())) +
                other.substr(rng.uniform(0, other.size()));
        break;
      }
      default: {  // Wrap in arrays or objects, at times past the cap.
        const std::size_t depth = rng.chance(0.1)
                                      ? rng.uniform(1000, 100000)
                                      : rng.uniform(1, 2 * kMaxJsonDepth);
        const bool arrays = rng.chance(0.5);
        std::string open;
        for (std::size_t i = 0; i < depth; ++i) open += arrays ? "[" : "{\"k\":";
        input = open + input + std::string(depth, arrays ? ']' : '}');
        break;
      }
    }
  }
  return input;
}

std::size_t nesting_depth(const Json& value) {
  std::size_t deepest = 0;
  for (const Json& item : value.items) {
    deepest = std::max(deepest, nesting_depth(item));
  }
  for (const auto& field : value.fields) {
    deepest = std::max(deepest, nesting_depth(field.second));
  }
  const bool container = value.is_array() || value.is_object();
  return deepest + (container ? 1 : 0);
}

/// Scalar hex decoder the table-driven one must agree with.
std::optional<Bytes> reference_hex_decode(std::string_view hex) {
  const auto nibble = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out;
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>(hi * 16 + lo));
  }
  return out;
}

TEST(WireFuzz, ParseJsonAcceptsOnlyDocumentsWithinTheDepthCap) {
  Rng rng(kSeed);
  const std::vector<std::string> seeds = seed_lines();
  std::size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input =
        mutate(rng, seeds[rng.uniform(0, seeds.size() - 1)], seeds);
    const std::optional<Json> value = parse_json(input);
    if (!value.has_value()) continue;
    ++accepted;
    ASSERT_LE(nesting_depth(*value), kMaxJsonDepth) << i;
    // The reader and the writer share one type, so whatever the reader
    // accepts, the writer's output reads back and writes out unchanged.
    const std::string written = value->to_string();
    const std::optional<Json> again = parse_json(written);
    ASSERT_TRUE(again.has_value()) << i << ": " << written;
    ASSERT_EQ(again->to_string(), written) << i;
  }
  // Both outcomes must be exercised for the run to mean anything.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kIterations));
}

TEST(WireFuzz, TraceParserRejectsOrYieldsAnalyzableEvents) {
  // Two ops on two threads: a write with its engine stages nested
  // under it, then a close, carrying numeric and string args.
  const auto span = [](std::uint64_t id, std::uint64_t parent, std::uint32_t tid,
                       std::string_view name, std::uint64_t start_ns,
                       std::uint64_t dur_ns) {
    obs::SpanRecord record;
    record.span_id = id;
    record.parent_id = parent;
    record.pid = 100;
    record.tid = tid;
    record.name = name;
    record.start_ns = start_ns;
    record.dur_ns = dur_ns;
    return record;
  };
  obs::SpanSnapshot snapshot;
  snapshot.spans = {span(1, 0, 0, obs::span_name::kDispatch, 1000, 9000),
                    span(2, 1, 0, obs::span_name::kEntropy, 2000, 2500),
                    span(3, 1, 0, obs::span_name::kScoreUpdate, 5000, 1500),
                    span(4, 0, 1, obs::span_name::kDispatch, 1500, 4000)};
  snapshot.spans[0].args = {{"op", false, 0.0, "write"}, {"path", false, 0.0, std::string(kDocument)}};
  snapshot.spans[1].args = {{"bytes", true, 4096.0, ""}};
  snapshot.spans[2].args = {{"indicator", false, 0.0, "entropy_delta"}};
  snapshot.spans[3].args = {{"op", false, 0.0, "close"}};
  snapshot.recorded = snapshot.spans.size();
  obs::TraceExportOptions offsets;
  offsets.pid_offset = 1000;
  offsets.tid_offset = 7;
  offsets.process_label = "trial \"7\"";
  const std::vector<std::string> seeds = {
      obs::to_trace_json(snapshot).to_string(),
      obs::to_trace_json(snapshot, offsets).to_pretty_string()};
  for (const std::string& seed : seeds) {
    const Result<std::vector<obs::TraceEvent>> parsed = obs::parse_trace_events(seed);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    ASSERT_TRUE(obs::validate_trace_events(parsed.value()).is_ok());
  }

  Rng rng(kSeed + 5);
  std::size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input =
        mutate(rng, seeds[rng.uniform(0, seeds.size() - 1)], seeds);
    const Result<std::vector<obs::TraceEvent>> parsed = obs::parse_trace_events(input);
    if (!parsed.is_ok()) {
      ASSERT_EQ(parsed.code(), Errc::invalid_argument) << i;
      continue;
    }
    ++accepted;
    // Whatever parses, valid or not, folds into a report without
    // tripping a sanitizer, counting only its B and E events.
    (void)obs::validate_trace_events(parsed.value());
    const obs::TraceReport report = obs::analyze_trace(parsed.value(), 3);
    ASSERT_LE(report.events, parsed.value().size()) << i;
    ASSERT_LE(report.slowest.size(), 3u) << i;
    ASSERT_FALSE(obs::format_trace_report(report).empty()) << i;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kIterations));
}

TEST(WireFuzz, AcceptedTraceEntriesReserializeToThemselves) {
  Rng rng(kSeed + 2);
  std::vector<std::string> seeds;
  for (const vfs::TraceEntry& entry : seed_entries()) {
    seeds.push_back(vfs::serialize_trace_entry(entry));
  }
  std::size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input =
        mutate(rng, seeds[rng.uniform(0, seeds.size() - 1)], seeds);
    const std::optional<vfs::TraceEntry> entry = vfs::parse_trace_entry(input);
    if (!entry.has_value()) continue;
    ++accepted;
    const std::string line = vfs::serialize_trace_entry(*entry);
    const std::optional<vfs::TraceEntry> again = vfs::parse_trace_entry(line);
    ASSERT_TRUE(again.has_value()) << i << ": " << line;
    ASSERT_TRUE(*entry == *again) << i << ": " << line;
    ASSERT_EQ(vfs::serialize_trace_entry(*again), line) << i;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kIterations));
}

TEST(WireFuzz, HexDecodeInvertsEncodeAndMatchesTheReference) {
  Rng rng(kSeed + 3);
  for (int i = 0; i < kIterations; ++i) {
    const Bytes bytes = rng.bytes(rng.uniform(0, 300));
    const std::string hex = hex_encode(ByteView(bytes));
    const std::optional<Bytes> decoded = hex_decode(hex);
    ASSERT_TRUE(decoded.has_value()) << i;
    ASSERT_EQ(*decoded, bytes) << i;
    const std::string mutated = mutate(rng, hex, {hex});
    ASSERT_EQ(hex_decode(mutated), reference_hex_decode(mutated)) << i;
  }
}

TEST(WireFuzz, DispatcherAnswersEveryMutatedLineWithAnEnvelope) {
  const vfs::FileSystem volume = make_volume();
  DaemonOptions options;
  options.workers = 1;
  Daemon daemon(volume, options);
  ControlDispatcher dispatcher(daemon);
  Rng rng(kSeed + 4);
  const std::vector<std::string> seeds = seed_lines();
  for (int i = 0; i < kIterations; ++i) {
    if (i % 256 == 0) {
      // Start each stretch from one fresh tenant, so tenants and their
      // volumes do not pile up across the run.
      daemon.drain();
      for (const TenantInfo& tenant : daemon.tenants()) {
        ASSERT_TRUE(daemon.detach(tenant.id).is_ok());
      }
      ASSERT_TRUE(daemon.attach("fuzz").is_ok());
    }
    const std::string input =
        mutate(rng, seeds[rng.uniform(0, seeds.size() - 1)], seeds);
    const std::string reply = dispatcher.handle_line(input);
    const std::optional<Json> parsed = parse_json(reply);
    ASSERT_TRUE(parsed.has_value()) << i << ": " << reply;
    const Json* ok = parsed->find("ok");
    ASSERT_NE(ok, nullptr) << i << ": " << reply;
    ASSERT_TRUE(ok->is_bool()) << i << ": " << reply;
  }
  daemon.shutdown(/*drain_first=*/true);
  EXPECT_TRUE(daemon.shutdown_complete());
}

}  // namespace
}  // namespace cryptodrop::daemon
