// Tests for the JSON builder, the machine-readable reports, multi-root
// protection, and the engine's per-op dispatch histograms.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "harness/report.hpp"

namespace cryptodrop {
namespace {

// --- Json builder -----------------------------------------------------------

TEST(Json, Scalars) {
  EXPECT_EQ(Json(nullptr).to_string(), "null");
  EXPECT_EQ(Json(true).to_string(), "true");
  EXPECT_EQ(Json(false).to_string(), "false");
  EXPECT_EQ(Json(42).to_string(), "42");
  EXPECT_EQ(Json(2.5).to_string(), "2.5");
  EXPECT_EQ(Json("hi").to_string(), "\"hi\"");
}

TEST(Json, IntegersPrintWithoutFraction) {
  EXPECT_EQ(Json(std::size_t{5099}).to_string(), "5099");
  EXPECT_EQ(Json(std::uint64_t{0}).to_string(), "0");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b").to_string(), "\"a\\\"b\"");
  EXPECT_EQ(Json("a\\b").to_string(), "\"a\\\\b\"");
  EXPECT_EQ(Json("line\nbreak\t!").to_string(), "\"line\\nbreak\\t!\"");
  EXPECT_EQ(Json(std::string("ctl\x01", 4)).to_string(), "\"ctl\\u0001\"");
}

/// The per-character escaping rule the writer must reproduce.
std::string escape_reference(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// `n` bytes that need no escaping, including the neighbours of the
/// escaped ranges and bytes >= 0x80.
std::string plain_string(std::size_t n) {
  const std::string plain = " !#[]/aZ~\x7f\x80\xc3\xa9\xff";
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(plain[i % plain.size()]);
  return out;
}

TEST(Json, EscapesEachSpecialByteAtEveryOffset) {
  std::string escaped = "\"\\";
  for (int c = 0; c < 0x20; ++c) escaped.push_back(static_cast<char>(c));
  ASSERT_EQ(escaped.size(), 34u);
  const std::string plain = plain_string(48);
  for (const char c : escaped) {
    for (std::size_t off = 0; off < plain.size(); ++off) {
      std::string s = plain;
      s[off] = c;
      EXPECT_EQ(Json(s).to_string(), escape_reference(s))
          << "byte " << static_cast<int>(c) << " @" << off;
    }
  }
  // Every byte value in order: runs of consecutive escapes.
  std::string all(256, '\0');
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<char>(i);
  EXPECT_EQ(Json(all).to_string(), escape_reference(all));
}

TEST(Json, LongPlainStringIsWrittenVerbatim) {
  const std::string s = plain_string(std::size_t{1} << 20);
  EXPECT_EQ(Json(s).to_string(), "\"" + s + "\"");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j.set("z", 1).set("a", 2);
  EXPECT_EQ(j.to_string(), "{\"z\":1,\"a\":2}");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.is_object());
}

TEST(Json, ArrayAndNesting) {
  Json arr = Json::array();
  arr.push(1).push("two").push(Json::object().set("three", 3.0));
  EXPECT_EQ(arr.to_string(), "[1,\"two\",{\"three\":3}]");
  EXPECT_TRUE(arr.is_array());
  EXPECT_EQ(arr.size(), 3u);
}

TEST(Json, DblMaxRoundTrips) {
  // %.10g rounds DBL_MAX up past the double range; the writer must pick
  // digits the reader accepts and that read back to the same value.
  for (const double v : {DBL_MAX, -DBL_MAX}) {
    const std::string written = Json::object().set("v", v).to_string();
    const std::optional<Json> back = parse_json(written);
    ASSERT_TRUE(back.has_value()) << written;
    EXPECT_EQ(back->number_or("v", 0.0), v) << written;
    EXPECT_EQ(back->to_string(), written);
  }
}

TEST(Json, NonFiniteNumbersWriteAsNull) {
  EXPECT_EQ(Json(std::nan("")).to_string(), "null");
  EXPECT_EQ(Json(HUGE_VAL).to_string(), "null");
  EXPECT_EQ(Json(-HUGE_VAL).to_string(), "null");
  const std::string written =
      Json::object().set("inf", HUGE_VAL).set("nan", std::nan("")).to_string();
  EXPECT_EQ(written, "{\"inf\":null,\"nan\":null}");
  EXPECT_TRUE(parse_json(written).has_value());
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::object().to_string(), "{}");
  EXPECT_EQ(Json::array().to_string(), "[]");
}

TEST(Json, PrettyPrintingIndents) {
  Json j = Json::object();
  j.set("k", Json::array().push(1).push(2));
  const std::string pretty = j.to_pretty_string();
  EXPECT_NE(pretty.find("{\n  \"k\": [\n    1,\n    2\n  ]\n}"), std::string::npos);
}

// --- harness reports ---------------------------------------------------------

class ReportTest : public ::testing::Test {
 protected:
  static harness::Environment* env;

  static void SetUpTestSuite() {
    corpus::CorpusSpec spec;
    spec.total_files = 300;
    spec.total_dirs = 30;
    spec.compute_hashes = false;
    env = new harness::Environment(harness::make_environment(spec, 66));
  }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }
};

harness::Environment* ReportTest::env = nullptr;

TEST_F(ReportTest, SampleJsonHasExpectedFields) {
  sim::SampleSpec spec;
  spec.family = "Xorist";
  spec.behavior = sim::BehaviorClass::A;
  spec.profile = sim::family_profile("Xorist", sim::BehaviorClass::A);
  spec.seed = 3;
  const auto r = harness::run_trial(*env, spec, core::ScoringConfig{});
  const std::string json = harness::to_json(r).to_string();
  EXPECT_NE(json.find("\"family\":\"Xorist\""), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"A\""), std::string::npos);
  EXPECT_NE(json.find("\"detected\":true"), std::string::npos);
  EXPECT_NE(json.find("\"indicators\":{"), std::string::npos);
}

TEST_F(ReportTest, CampaignReportAggregates) {
  std::vector<sim::SampleSpec> specs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::SampleSpec spec;
    spec.family = "Virlock";
    spec.behavior = sim::BehaviorClass::C;
    spec.profile = sim::family_profile("Virlock", sim::BehaviorClass::C);
    spec.seed = seed;
    specs.push_back(spec);
  }
  const auto results = harness::run_campaign(*env, specs, core::ScoringConfig{});
  const Json report = harness::campaign_report(*env, results);
  const std::string json = report.to_string();
  EXPECT_NE(json.find("\"samples\":4"), std::string::npos);
  EXPECT_NE(json.find("\"detection_rate\":1"), std::string::npos);
  EXPECT_NE(json.find("\"family\":\"Virlock\""), std::string::npos);
  // Per-sample records only with the flag.
  EXPECT_EQ(json.find("\"files_attacked\""), std::string::npos);
  const std::string with_samples =
      harness::campaign_report(*env, results, /*include_samples=*/true).to_string();
  EXPECT_NE(with_samples.find("\"files_attacked\""), std::string::npos);
}

TEST_F(ReportTest, BenignReportCountsFalsePositives) {
  std::vector<harness::BenignRunResult> results(3);
  results[0].app = "A";
  results[1].app = "B";
  results[1].detected = true;
  results[2].app = "C";
  const std::string json = harness::benign_report(results).to_string();
  EXPECT_NE(json.find("\"false_positives\":1"), std::string::npos);
  EXPECT_NE(json.find("\"applications\":3"), std::string::npos);
}

// --- multi-root protection -----------------------------------------------

TEST(MultiRoot, AdditionalRootsAreMonitored) {
  vfs::FileSystem fs;
  core::ScoringConfig config;
  config.protected_root = "users/victim/documents";
  config.additional_roots = {"users/victim/desktop", "users/victim/pictures"};
  config.score_threshold = 1000000;
  config.union_threshold = 1000000;
  core::AnalysisEngine engine(config);
  fs.attach_filter(&engine);
  const vfs::ProcessId pid = fs.register_process("p");
  Rng rng(4);

  ASSERT_TRUE(fs.put_file_raw("users/victim/desktop/todo.txt",
                              to_bytes(synth_prose(rng, 2000))).is_ok());
  ASSERT_TRUE(fs.put_file_raw("users/victim/music/song.txt",
                              to_bytes(synth_prose(rng, 2000))).is_ok());

  // Deleting under an additional root scores; an unlisted sibling doesn't.
  ASSERT_TRUE(fs.remove(pid, "users/victim/desktop/todo.txt").is_ok());
  const int after_desktop = engine.score(pid);
  EXPECT_GT(after_desktop, 0);
  ASSERT_TRUE(fs.remove(pid, "users/victim/music/song.txt").is_ok());
  EXPECT_EQ(engine.score(pid), after_desktop);
  fs.detach_filter(&engine);
}

// --- per-op dispatch histograms (§V-H analogue) ---------------------------

/// The `filter_dispatch_us.<op>` histogram of `snap`; fails the test
/// when the engine did not register it.
const obs::HistogramSnapshot& dispatch(const obs::MetricsSnapshot& snap,
                                       vfs::OpType op) {
  const obs::HistogramSnapshot* h =
      snap.histogram("filter_dispatch_us." + std::string(vfs::op_name(op)));
  EXPECT_NE(h, nullptr) << vfs::op_name(op);
  static const obs::HistogramSnapshot kEmpty;
  return h != nullptr ? *h : kEmpty;
}

TEST(FilterDispatchLatency, BucketsAccumulatePerOpType) {
  vfs::FileSystem fs;
  core::AnalysisEngine engine{core::ScoringConfig{}};
  fs.attach_filter(&engine);
  const vfs::ProcessId pid = fs.register_process("p");
  Rng rng(5);
  ASSERT_TRUE(fs.put_file_raw("users/victim/documents/a.txt",
                              to_bytes(synth_prose(rng, 20000))).is_ok());
  ASSERT_TRUE(fs.read_file(pid, "users/victim/documents/a.txt").is_ok());
  ASSERT_TRUE(fs.write_file(pid, "users/victim/documents/a.txt",
                            rng.bytes(20000)).is_ok());
  EXPECT_GT(engine.observed_ops(), 0u);

  const obs::MetricsSnapshot snap = engine.metrics_snapshot();
  // All eight op types are registered up front, monitored or not.
  for (vfs::OpType op : vfs::kOpTypes) (void)dispatch(snap, op);
  if constexpr (obs::kMetricsEnabled) {
    const obs::HistogramSnapshot& open = dispatch(snap, vfs::OpType::open);
    const obs::HistogramSnapshot& close = dispatch(snap, vfs::OpType::close);
    EXPECT_GT(open.count, 0u);
    EXPECT_GT(dispatch(snap, vfs::OpType::read).count, 0u);
    EXPECT_GT(dispatch(snap, vfs::OpType::write).count, 0u);
    EXPECT_GT(close.count, 0u);
    // A modified file's close runs the digest comparison — the expensive
    // path (paper §V-H: write/rename/close carry the measurement).
    EXPECT_GT(close.sum, open.sum);
    EXPECT_LE(open.mean(), 1000.0);  // far under the paper's 1 ms
  }
  fs.detach_filter(&engine);
}

TEST(FilterDispatchLatency, UnmonitoredOpsCostNothing) {
  vfs::FileSystem fs;
  core::AnalysisEngine engine{core::ScoringConfig{}};
  fs.attach_filter(&engine);
  const vfs::ProcessId pid = fs.register_process("p");
  ASSERT_TRUE(fs.write_file(pid, "elsewhere/x.bin", to_bytes("data")).is_ok());
  EXPECT_EQ(engine.observed_ops(), 0u);
  const obs::MetricsSnapshot snap = engine.metrics_snapshot();
  std::uint64_t timed = 0;
  for (vfs::OpType op : vfs::kOpTypes) timed += dispatch(snap, op).count;
  EXPECT_EQ(timed, 0u);
  fs.detach_filter(&engine);
}

}  // namespace
}  // namespace cryptodrop
