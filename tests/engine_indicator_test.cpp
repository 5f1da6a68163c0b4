// Per-indicator unit tests for the analysis engine: each of the three
// primary and two secondary indicators in isolation, plus union logic.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/engine.hpp"
#include "crypto/chacha20.hpp"
#include "daemon/wire.hpp"
#include "vfs/filesystem.hpp"

namespace cryptodrop::core {
namespace {

constexpr const char* kRoot = "users/victim/documents";

class EngineTest : public ::testing::Test {
 protected:
  vfs::FileSystem fs;
  ScoringConfig config;
  std::unique_ptr<AnalysisEngine> engine;
  vfs::ProcessId pid = 0;
  Rng rng{42};

  void SetUp() override {
    config.protected_root = kRoot;
    config.score_threshold = 1000000;  // indicators only; no suspension
    config.union_threshold = 1000000;
  }

  void attach() {
    engine = std::make_unique<AnalysisEngine>(config);
    fs.attach_filter(engine.get());
    pid = fs.register_process("subject");
  }

  std::string doc(const std::string& name) { return std::string(kRoot) + "/" + name; }

  void put_prose(const std::string& path, std::size_t n) {
    ASSERT_TRUE(fs.put_file_raw(path, to_bytes(synth_prose(rng, n))).is_ok());
  }

  void put_random(const std::string& path, std::size_t n) {
    ASSERT_TRUE(fs.put_file_raw(path, rng.bytes(n)).is_ok());
  }

  Bytes encrypted_copy(const std::string& path) {
    auto data = fs.read_unfiltered(path);
    return crypto::chacha20_encrypt(rng.bytes(32), rng.bytes(12), ByteView(*data));
  }

  /// Filtered whole-file read/write through the subject process.
  void subject_reads(const std::string& path) {
    ASSERT_TRUE(fs.read_file(pid, path).is_ok());
  }
  void subject_writes(const std::string& path, ByteView data) {
    ASSERT_TRUE(fs.write_file(pid, path, data).is_ok());
  }
  /// Class-A style in-place overwrite (read+write handle, no truncate).
  void subject_overwrites(const std::string& path, ByteView data) {
    auto h = fs.open(pid, path, vfs::kRead | vfs::kWrite);
    ASSERT_TRUE(h.is_ok());
    ASSERT_TRUE(fs.write(pid, h.value(), data).is_ok());
    ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  }
};

// --- entropy delta -------------------------------------------------------

TEST_F(EngineTest, EntropyDeltaFiresOnHighEntropyWriteAfterLowEntropyRead) {
  attach();
  put_prose(doc("a.txt"), 20000);
  subject_reads(doc("a.txt"));
  subject_writes(doc("out.bin"), rng.bytes(20000));
  const ProcessReport report = engine->process_report(pid);
  EXPECT_EQ(report.entropy_events, 1u);
  EXPECT_EQ(report.score, config.entropy.points_write);
  EXPECT_GT(report.write_entropy_mean, report.read_entropy_mean);
}

TEST_F(EngineTest, EntropyDeltaNeedsAtLeastOneRead) {
  // Pure writers (downloads, installers) can never trip the delta: the
  // comparison requires both means to exist (§IV-C.1).
  attach();
  subject_writes(doc("out.bin"), rng.bytes(50000));
  subject_writes(doc("out2.bin"), rng.bytes(50000));
  EXPECT_EQ(engine->process_report(pid).entropy_events, 0u);
  EXPECT_EQ(engine->score(pid), 0);
}

TEST_F(EngineTest, EntropyDeltaSilentWhenWritesMatchReads) {
  attach();
  put_random(doc("in.bin"), 30000);
  subject_reads(doc("in.bin"));
  subject_writes(doc("copy.bin"), ByteView(*fs.read_unfiltered(doc("in.bin"))));
  EXPECT_EQ(engine->process_report(pid).entropy_events, 0u);
}

TEST_F(EngineTest, EntropyDeltaSilentForLowEntropyWrites) {
  attach();
  put_prose(doc("a.txt"), 20000);
  subject_reads(doc("a.txt"));
  subject_writes(doc("notes.txt"), to_bytes(synth_prose(rng, 20000)));
  EXPECT_EQ(engine->process_report(pid).entropy_events, 0u);
}

TEST_F(EngineTest, EntropyDeltaScoresPerOperation) {
  attach();
  put_prose(doc("a.txt"), 20000);
  subject_reads(doc("a.txt"));
  auto h = fs.open(pid, doc("out.bin"), vfs::kCreate);
  ASSERT_TRUE(h.is_ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fs.write(pid, h.value(), rng.bytes(8192)).is_ok());
  }
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  EXPECT_EQ(engine->process_report(pid).entropy_events, 5u);
  EXPECT_EQ(engine->score(pid), 5 * config.entropy.points_write);
}

TEST_F(EngineTest, EntropyPointsScaleWithOperationSize) {
  attach();
  put_prose(doc("a.txt"), 20000);
  subject_reads(doc("a.txt"));
  // A 400-byte suspicious write scores ~1/10 of a >=4 KiB one.
  subject_writes(doc("tiny.bin"), rng.bytes(400));
  const int small_score = engine->score(pid);
  EXPECT_GE(small_score, 1);
  EXPECT_LT(small_score, config.entropy.points_write / 2);
  subject_writes(doc("big.bin"), rng.bytes(8192));
  EXPECT_EQ(engine->score(pid) - small_score, config.entropy.points_write);
}

TEST_F(EngineTest, RansomNotesDoNotMaskEntropyDelta) {
  // §IV-C.1's motivating case: low-entropy note writes must not drag
  // Pwrite down enough to hide the encryption signal.
  attach();
  for (int i = 0; i < 5; ++i) put_prose(doc("f" + std::to_string(i) + ".txt"), 30000);
  for (int i = 0; i < 5; ++i) {
    subject_writes(doc("NOTE" + std::to_string(i) + ".txt"),
                   to_bytes(synth_prose(rng, 1200)));
    subject_reads(doc("f" + std::to_string(i) + ".txt"));
    subject_writes(doc("f" + std::to_string(i) + ".txt.enc"), rng.bytes(30000));
  }
  EXPECT_GE(engine->process_report(pid).entropy_events, 3u);
}

TEST_F(EngineTest, EntropyDisabledByAblationFlag) {
  config.entropy.enabled = false;
  attach();
  put_prose(doc("a.txt"), 20000);
  subject_reads(doc("a.txt"));
  subject_writes(doc("out.bin"), rng.bytes(20000));
  EXPECT_EQ(engine->process_report(pid).entropy_events, 0u);
  EXPECT_EQ(engine->score(pid), 0);
}

// --- file type change -------------------------------------------------------

TEST_F(EngineTest, TypeChangeFiresOnEncryptedOverwrite) {
  attach();
  put_prose(doc("report.txt"), 10000);
  subject_overwrites(doc("report.txt"), encrypted_copy(doc("report.txt")));
  const ProcessReport report = engine->process_report(pid);
  EXPECT_EQ(report.type_change_events, 1u);
}

TEST_F(EngineTest, NoTypeChangeOnSameTypeRewrite) {
  attach();
  put_prose(doc("report.txt"), 10000);
  subject_overwrites(doc("report.txt"), to_bytes(synth_prose(rng, 10000)));
  EXPECT_EQ(engine->process_report(pid).type_change_events, 0u);
}

TEST_F(EngineTest, TypeChangeWorksOnSub512ByteFiles) {
  // Small files evade the similarity indicator but not this one.
  attach();
  put_prose(doc("tiny.txt"), 200);
  subject_overwrites(doc("tiny.txt"), rng.bytes(200));
  const ProcessReport report = engine->process_report(pid);
  EXPECT_EQ(report.type_change_events, 1u);
  EXPECT_EQ(report.similarity_drop_events, 0u);
}

TEST_F(EngineTest, TypeChangeDetectedThroughTruncatingRewrite) {
  // kTruncate destroys the old content at open; the baseline must have
  // been captured before that.
  attach();
  put_prose(doc("a.txt"), 8000);
  auto h = fs.open(pid, doc("a.txt"), vfs::kWrite | vfs::kTruncate);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.write(pid, h.value(), rng.bytes(8000)).is_ok());
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  EXPECT_EQ(engine->process_report(pid).type_change_events, 1u);
}

TEST_F(EngineTest, NewFileCreationIsNotATypeChange) {
  attach();
  subject_writes(doc("brand_new.bin"), rng.bytes(5000));
  EXPECT_EQ(engine->process_report(pid).type_change_events, 0u);
}

TEST_F(EngineTest, TypeChangeDisabledByAblationFlag) {
  config.enable_type_change = false;
  attach();
  put_prose(doc("a.txt"), 10000);
  subject_overwrites(doc("a.txt"), encrypted_copy(doc("a.txt")));
  EXPECT_EQ(engine->process_report(pid).type_change_events, 0u);
}

// --- similarity --------------------------------------------------------------

TEST_F(EngineTest, SimilarityDropFiresOnEncryption) {
  attach();
  put_prose(doc("a.txt"), 30000);
  subject_overwrites(doc("a.txt"), encrypted_copy(doc("a.txt")));
  EXPECT_EQ(engine->process_report(pid).similarity_drop_events, 1u);
}

TEST_F(EngineTest, SimilarityKeptOnIncrementalEdit) {
  attach();
  put_prose(doc("a.txt"), 30000);
  Bytes edited = *fs.read_unfiltered(doc("a.txt"));
  // Change 10% in the middle, keep the rest.
  const Bytes patch = to_bytes(synth_prose(rng, 3000));
  std::copy(patch.begin(), patch.end(), edited.begin() + 10000);
  subject_overwrites(doc("a.txt"), ByteView(edited));
  EXPECT_EQ(engine->process_report(pid).similarity_drop_events, 0u);
}

TEST_F(EngineTest, SimilarityUnavailableForSmallFiles) {
  attach();
  put_prose(doc("small.txt"), 300);
  subject_overwrites(doc("small.txt"), rng.bytes(300));
  EXPECT_EQ(engine->process_report(pid).similarity_drop_events, 0u);
}

TEST_F(EngineTest, BaselineAdvancesAcrossSaves) {
  // Save 1 (high overlap), save 2 (high overlap vs save 1): each compare
  // is against the previous version, not the original.
  attach();
  put_prose(doc("a.txt"), 30000);
  Bytes v2 = *fs.read_unfiltered(doc("a.txt"));
  append(v2, to_bytes(synth_prose(rng, 3000)));
  subject_overwrites(doc("a.txt"), ByteView(v2));
  Bytes v3 = v2;
  append(v3, to_bytes(synth_prose(rng, 3000)));
  subject_overwrites(doc("a.txt"), ByteView(v3));
  EXPECT_EQ(engine->process_report(pid).similarity_drop_events, 0u);
  // Now encrypt: compared against v3, not the original.
  subject_overwrites(doc("a.txt"),
                     crypto::chacha20_encrypt(rng.bytes(32), rng.bytes(12), ByteView(v3)));
  EXPECT_EQ(engine->process_report(pid).similarity_drop_events, 1u);
}

TEST_F(EngineTest, SimilarityDisabledByAblationFlag) {
  config.enable_similarity = false;
  attach();
  put_prose(doc("a.txt"), 30000);
  subject_overwrites(doc("a.txt"), encrypted_copy(doc("a.txt")));
  EXPECT_EQ(engine->process_report(pid).similarity_drop_events, 0u);
}

// --- deletion -----------------------------------------------------------------

TEST_F(EngineTest, DeletionScoresPerRemove) {
  attach();
  for (int i = 0; i < 4; ++i) put_prose(doc("f" + std::to_string(i)), 1000);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fs.remove(pid, doc("f" + std::to_string(i))).is_ok());
  }
  const ProcessReport report = engine->process_report(pid);
  EXPECT_EQ(report.deletion_events, 4u);
  EXPECT_EQ(report.score, 4 * config.points_deletion);
}

TEST_F(EngineTest, DeletionOutsideRootIgnored) {
  attach();
  ASSERT_TRUE(fs.put_file_raw("tmp/x", to_bytes("x")).is_ok());
  ASSERT_TRUE(fs.remove(pid, "tmp/x").is_ok());
  EXPECT_EQ(engine->process_report(pid).deletion_events, 0u);
}

TEST_F(EngineTest, FailedDeleteDoesNotScore) {
  attach();
  ASSERT_TRUE(fs.put_file_raw(doc("locked"), to_bytes("x"), /*read_only=*/true).is_ok());
  EXPECT_EQ(fs.remove(pid, doc("locked")).code(), Errc::read_only);
  EXPECT_EQ(engine->process_report(pid).deletion_events, 0u);
}

TEST_F(EngineTest, DeletionDisabledByAblationFlag) {
  config.enable_deletion = false;
  attach();
  put_prose(doc("f"), 1000);
  ASSERT_TRUE(fs.remove(pid, doc("f")).is_ok());
  EXPECT_EQ(engine->score(pid), 0);
}

// --- funneling ---------------------------------------------------------------

TEST_F(EngineTest, FunnelingFiresOnManyReadTypesOneWriteType) {
  attach();
  // Six distinct read types, one write type.
  put_prose(doc("a.txt"), 2000);
  ASSERT_TRUE(fs.put_file_raw(doc("b.pdf"), to_bytes("%PDF-1.5 body")).is_ok());
  ASSERT_TRUE(fs.put_file_raw(doc("c.html"),
                              to_bytes("<!DOCTYPE html><html></html>")).is_ok());
  ASSERT_TRUE(fs.put_file_raw(doc("d.xml"), to_bytes("<?xml version=\"1.0\"?><r/>")).is_ok());
  Bytes jpeg = {0xff, 0xd8, 0xff, 0xe0};
  jpeg.resize(600, 0x11);
  ASSERT_TRUE(fs.put_file_raw(doc("e.jpg"), std::move(jpeg)).is_ok());
  ASSERT_TRUE(fs.put_file_raw(doc("f.rtf"), to_bytes("{\\rtf1 body}")).is_ok());

  subject_writes(doc("archive.bin"), rng.bytes(2000));  // one write type
  for (const char* name : {"a.txt", "b.pdf", "c.html", "d.xml", "e.jpg", "f.rtf"}) {
    subject_reads(doc(name));
  }
  const ProcessReport report = engine->process_report(pid);
  EXPECT_EQ(report.funneling_events, 1u);
}

TEST_F(EngineTest, FunnelingNeedsAtLeastOneWrite) {
  // A pure scanner (anti-virus) reads everything and writes nothing: the
  // funnel never forms.
  attach();
  for (int i = 0; i < 6; ++i) put_prose(doc("t" + std::to_string(i) + ".txt"), 2000);
  ASSERT_TRUE(fs.put_file_raw(doc("b.pdf"), to_bytes("%PDF-1.5 body")).is_ok());
  subject_reads(doc("b.pdf"));
  for (int i = 0; i < 6; ++i) subject_reads(doc("t" + std::to_string(i) + ".txt"));
  EXPECT_EQ(engine->process_report(pid).funneling_events, 0u);
}

TEST_F(EngineTest, FunnelingSilentForFewReadTypes) {
  attach();
  put_prose(doc("a.txt"), 2000);
  subject_reads(doc("a.txt"));
  subject_writes(doc("out.bin"), rng.bytes(2000));
  EXPECT_EQ(engine->process_report(pid).funneling_events, 0u);
}

TEST_F(EngineTest, FunnelingFiresAtMostOncePerProcess) {
  attach();
  // Trip it, then keep reading more types: still one event.
  ASSERT_TRUE(fs.put_file_raw(doc("b.pdf"), to_bytes("%PDF-1.5 body")).is_ok());
  ASSERT_TRUE(fs.put_file_raw(doc("c.html"),
                              to_bytes("<!DOCTYPE html><html></html>")).is_ok());
  ASSERT_TRUE(fs.put_file_raw(doc("d.xml"), to_bytes("<?xml version=\"1.0\"?><r/>")).is_ok());
  ASSERT_TRUE(fs.put_file_raw(doc("f.rtf"), to_bytes("{\\rtf1 body}")).is_ok());
  put_prose(doc("a.txt"), 2000);
  subject_writes(doc("out.bin"), rng.bytes(2000));
  for (const char* name : {"a.txt", "b.pdf", "c.html", "d.xml", "f.rtf"}) {
    subject_reads(doc(name));
  }
  Bytes gif = to_bytes("GIF89a");
  gif.resize(400, 3);
  ASSERT_TRUE(fs.put_file_raw(doc("g.gif"), std::move(gif)).is_ok());
  subject_reads(doc("g.gif"));
  EXPECT_EQ(engine->process_report(pid).funneling_events, 1u);
}

// --- union indication -------------------------------------------------------

TEST_F(EngineTest, UnionRequiresAllThreePrimaries) {
  attach();
  put_prose(doc("a.txt"), 20000);
  // type + similarity only: overwrite with same-entropy garbage... use
  // encrypted overwrite but no prior read -> no entropy indicator.
  subject_overwrites(doc("a.txt"), encrypted_copy(doc("a.txt")));
  ProcessReport report = engine->process_report(pid);
  // The in-place overwrite includes a read via the same handle? No — the
  // subject never read, so entropy can't have fired.
  EXPECT_EQ(report.entropy_events, 0u);
  EXPECT_GE(report.type_change_events, 1u);
  EXPECT_GE(report.similarity_drop_events, 1u);
  EXPECT_FALSE(report.union_triggered);
}

TEST_F(EngineTest, UnionBonusAndThresholdDrop) {
  config.score_threshold = 100000;  // keep suspension out of the picture
  config.union_threshold = 99999;
  attach();
  put_prose(doc("a.txt"), 20000);
  put_prose(doc("b.txt"), 20000);
  subject_reads(doc("a.txt"));
  subject_overwrites(doc("b.txt"), encrypted_copy(doc("b.txt")));
  const ProcessReport report = engine->process_report(pid);
  EXPECT_TRUE(report.union_triggered);
  EXPECT_GE(report.union_count, 1u);
  EXPECT_EQ(report.threshold, 99999);
  // Score includes the union bonus.
  EXPECT_GE(report.score, config.union_bonus);
}

TEST_F(EngineTest, UnionDisabledByAblationFlag) {
  config.enable_union = false;
  attach();
  put_prose(doc("a.txt"), 20000);
  put_prose(doc("b.txt"), 20000);
  subject_reads(doc("a.txt"));
  subject_overwrites(doc("b.txt"), encrypted_copy(doc("b.txt")));
  const ProcessReport report = engine->process_report(pid);
  EXPECT_FALSE(report.union_triggered);
  EXPECT_EQ(report.threshold, config.score_threshold);
}

TEST_F(EngineTest, UnionBonusAppliedOnlyOnce) {
  attach();
  put_prose(doc("a.txt"), 20000);
  for (int i = 0; i < 4; ++i) put_prose(doc("v" + std::to_string(i) + ".txt"), 20000);
  subject_reads(doc("a.txt"));
  int union_events = 0;
  for (int i = 0; i < 4; ++i) {
    const std::string path = doc("v" + std::to_string(i) + ".txt");
    subject_overwrites(path, encrypted_copy(path));
  }
  for (const obs::TimelineEvent& ev : engine->process_report(pid).forensic.events) {
    if (ev.kind == obs::TimelineEventKind::union_indication) ++union_events;
  }
  EXPECT_EQ(union_events, 1);
}

// --- scope: the protected root ------------------------------------------------

TEST_F(EngineTest, ActivityOutsideRootIsInvisible) {
  attach();
  ASSERT_TRUE(fs.put_file_raw("elsewhere/data.txt",
                              to_bytes(synth_prose(rng, 20000))).is_ok());
  subject_reads("elsewhere/data.txt");
  subject_writes("elsewhere/out.bin", rng.bytes(50000));
  auto h = fs.open(pid, "elsewhere/data.txt", vfs::kRead | vfs::kWrite);
  ASSERT_TRUE(h.is_ok());
  ASSERT_TRUE(fs.write(pid, h.value(), rng.bytes(20000)).is_ok());
  ASSERT_TRUE(fs.close(pid, h.value()).is_ok());
  ASSERT_TRUE(fs.remove(pid, "elsewhere/out.bin").is_ok());

  const ProcessReport report = engine->process_report(pid);
  EXPECT_EQ(report.score, 0);
  EXPECT_EQ(engine->observed_ops(), 0u);
  EXPECT_TRUE(report.read_extensions.empty());
}

TEST_F(EngineTest, ExtensionBookkeepingForFigure5) {
  attach();
  put_prose(doc("report.txt"), 2000);
  ASSERT_TRUE(fs.put_file_raw(doc("paper.pdf"), to_bytes("%PDF-1.5 body")).is_ok());
  subject_reads(doc("report.txt"));
  subject_reads(doc("paper.pdf"));
  subject_writes(doc("out.enc"), rng.bytes(1000));
  const ProcessReport report = engine->process_report(pid);
  EXPECT_TRUE(report.read_extensions.contains("txt"));
  EXPECT_TRUE(report.read_extensions.contains("pdf"));
  EXPECT_TRUE(report.write_extensions.contains("enc"));
}

TEST_F(EngineTest, TimelineRecordsIndicatorsInOrder) {
  attach();
  put_prose(doc("a.txt"), 20000);
  subject_reads(doc("a.txt"));
  subject_writes(doc("x.bin"), rng.bytes(20000));  // entropy
  ASSERT_TRUE(fs.remove(pid, doc("a.txt")).is_ok());  // deletion
  const std::vector<obs::TimelineEvent>& events =
      engine->process_report(pid).forensic.events;
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].kind, obs::TimelineEventKind::entropy_delta);
  EXPECT_EQ(events.back().kind, obs::TimelineEventKind::deletion);
  EXPECT_LE(events[0].op_seq, events.back().op_seq);
}

TEST_F(EngineTest, TimelineDisabledWhenNotRecorded) {
  config.timeline_capacity = 0;
  attach();
  put_prose(doc("a.txt"), 1000);
  ASSERT_TRUE(fs.remove(pid, doc("a.txt")).is_ok());
  EXPECT_GT(engine->score(pid), 0);
  EXPECT_TRUE(engine->process_report(pid).forensic.events.empty());
}

TEST_F(EngineTest, SnapshotAndProcessReportAgree) {
  attach();
  const vfs::ProcessId child = fs.register_process("worker", pid);
  put_prose(doc("a.txt"), 20000);
  put_prose(doc("b.txt"), 20000);
  subject_reads(doc("a.txt"));
  subject_overwrites(doc("b.txt"), encrypted_copy(doc("b.txt")));
  ASSERT_TRUE(fs.remove(child, doc("a.txt")).is_ok());

  // The serialized report covers every ProcessReport field.
  const auto text = [](const ProcessReport& report) {
    return daemon::report_to_json(report).to_string();
  };
  const EngineSnapshot snap = engine->snapshot();
  ASSERT_EQ(snap.processes.size(), 1u);  // family scoring: one entry
  const ProcessReport* root = snap.find(pid);
  ASSERT_NE(root, nullptr);
  EXPECT_GT(root->deletion_events, 0u);
  EXPECT_EQ(text(engine->process_report(pid)), text(*root));
  // A child's report is its family root's entry under the child's pid.
  ProcessReport as_child = *root;
  as_child.pid = child;
  EXPECT_EQ(text(engine->process_report(child)), text(as_child));
}

TEST_F(EngineTest, EnsembleEntropyEventNamesItsVoters) {
  config.entropy.ensemble.members = {
      EnsembleMember{entropy::BackendKind::shannon, 1.0},
      EnsembleMember{entropy::BackendKind::chi_square, 1.0}};
  config.entropy.ensemble.min_vote_weight = 0.5;
  attach();
  put_prose(doc("a.txt"), 20000);
  subject_reads(doc("a.txt"));
  subject_writes(doc("x.bin"), rng.bytes(20000));
  const obs::ForensicTimeline timeline = engine->process_report(pid).forensic;
  std::size_t entropy_events = 0;
  for (const obs::TimelineEvent& ev : timeline.events) {
    if (ev.kind != obs::TimelineEventKind::entropy_delta) {
      EXPECT_TRUE(ev.backend.empty());
      continue;
    }
    ++entropy_events;
    EXPECT_EQ(ev.backend, "shannon,chi_square");
  }
  EXPECT_EQ(entropy_events, 1u);
  // Only entropy events carry the key in JSON.
  const std::string json = obs::to_json(timeline).to_string();
  EXPECT_NE(json.find("\"backend\":\"shannon,chi_square\""), std::string::npos);
}

TEST_F(EngineTest, IndicatorNamesAreStable) {
  EXPECT_EQ(indicator_name(Indicator::entropy_delta), "entropy_delta");
  EXPECT_EQ(indicator_name(Indicator::union_indication), "union");
}

}  // namespace
}  // namespace cryptodrop::core
