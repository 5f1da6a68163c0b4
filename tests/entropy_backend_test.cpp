// Entropy backend API (DESIGN.md §14): golden scores per backend on the
// three canonical content kinds, streamed-accumulator equivalence with
// one-shot scoring, name round-trips, the documented DAA evasion, and
// ensemble-vote determinism across worker counts.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "crypto/chacha20.hpp"
#include "entropy/backend.hpp"
#include "entropy/entropy.hpp"
#include "harness/runner.hpp"

namespace cryptodrop::entropy {
namespace {

// Deterministic fixtures mirroring the corpus generator's content kinds:
// prose (plaintext), keystream with a structured ASCII header
// (compressed container), raw keystream (ciphertext).
Bytes plaintext_fixture() {
  Rng rng(123);
  return to_bytes(synth_prose(rng, 8192));
}

Bytes encrypted_fixture() {
  const Bytes key = to_bytes("entropy-backend-golden-test-key!");
  return crypto::ChaCha20(ByteView(key), ByteView()).keystream(8192);
}

Bytes compressed_fixture() {
  // 512-byte PK header with repeating member metadata, then keystream —
  // the shape arXiv 2210.13376 says plain Shannon confuses with
  // ciphertext.
  Bytes out = to_bytes("PK\x03\x04");
  while (out.size() < 512) {
    const Bytes entry = to_bytes("word/document" + std::to_string(out.size()) +
                                 ".xml deflate 1033 ");
    out.insert(out.end(), entry.begin(), entry.end());
  }
  out.resize(512);
  const Bytes key = to_bytes("entropy-backend-golden-test-key!");
  const Bytes body = crypto::ChaCha20(ByteView(key), ByteView(), 7).keystream(7680);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

TEST(EntropyBackend, NameRoundTrip) {
  for (BackendKind kind : all_backend_kinds()) {
    const auto parsed = backend_from_name(backend_name(kind));
    ASSERT_TRUE(parsed.has_value()) << backend_name(kind);
    EXPECT_EQ(*parsed, kind);
    EXPECT_EQ(make_backend(kind)->kind(), kind);
    EXPECT_EQ(make_backend(kind)->name(), backend_name(kind));
  }
  EXPECT_FALSE(backend_from_name("entropy").has_value());
  EXPECT_FALSE(backend_from_name("").has_value());
  EXPECT_FALSE(backend_from_name("Shannon").has_value());
}

TEST(EntropyBackend, ShannonBackendIsBitIdenticalToFreeFunction) {
  const auto backend = make_backend(BackendKind::shannon);
  for (const Bytes& data :
       {plaintext_fixture(), compressed_fixture(), encrypted_fixture()}) {
    EXPECT_EQ(backend->score(ByteView(data)), shannon(ByteView(data)));
  }
  EXPECT_EQ(backend->score(ByteView()), 0.0);
}

// Golden scores: every backend maps content onto the shared [0, 8]
// suspicion scale — prose low, ciphertext high. Values pinned from the
// deterministic fixtures; loose-ish tolerance absorbs libm variation.
struct Golden {
  BackendKind kind;
  double plaintext;
  double compressed;
  double encrypted;
};

TEST(EntropyBackend, GoldenScoresPerContentKind) {
  const Golden kGolden[] = {
      {BackendKind::shannon, 4.229704, 7.948327, 7.976218},
      {BackendKind::chi_square, 0.419853, 7.404361, 7.745370},
      {BackendKind::serial_correlation, 3.147954, 7.647985, 7.637359},
      {BackendKind::daa, 0.871094, 6.042969, 6.851563},
  };
  for (const Golden& g : kGolden) {
    const auto backend = make_backend(g.kind);
    EXPECT_NEAR(backend->score(ByteView(plaintext_fixture())), g.plaintext, 1e-4)
        << backend->name();
    EXPECT_NEAR(backend->score(ByteView(compressed_fixture())), g.compressed, 1e-4)
        << backend->name();
    EXPECT_NEAR(backend->score(ByteView(encrypted_fixture())), g.encrypted, 1e-4)
        << backend->name();
    // The ordering every backend must share, exact values aside. (Serial
    // correlation is exempt from the compressed < encrypted leg: byte
    // adjacency is near-zero for both, so the two land within noise of
    // each other — the backend discriminates structure, not density.)
    EXPECT_LT(g.plaintext, g.compressed);
    if (g.kind != BackendKind::serial_correlation) {
      EXPECT_LT(g.compressed, g.encrypted);
    }
    EXPECT_GE(g.plaintext, 0.0);
    EXPECT_LE(g.encrypted, 8.0);
  }
}

TEST(EntropyBackend, ChiSquareSeparatesCompressedFromEncryptedBetterThanShannon) {
  // The reason the backend exists: per-byte X² grows quadratically in
  // the structured fraction, so a container header costs far more score
  // than it costs Shannon entropy.
  const auto shannon_backend = make_backend(BackendKind::shannon);
  const auto chi = make_backend(BackendKind::chi_square);
  const Bytes compressed = compressed_fixture();
  const Bytes encrypted = encrypted_fixture();
  const double shannon_gap = shannon_backend->score(ByteView(encrypted)) -
                             shannon_backend->score(ByteView(compressed));
  const double chi_gap =
      chi->score(ByteView(encrypted)) - chi->score(ByteView(compressed));
  EXPECT_GT(chi_gap, 2.0 * shannon_gap);
}

TEST(EntropyBackend, AccumulatorMatchesOneShotAcrossChunkings) {
  // Streamed scoring must not depend on write sizes: feeding the same
  // bytes in any chunking yields exactly the one-shot score (the serial
  // backend's circular wrap term exists for this).
  const Bytes data = compressed_fixture();
  for (BackendKind kind : all_backend_kinds()) {
    const auto backend = make_backend(kind);
    const double one_shot = backend->score(ByteView(data));
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{600},
                              std::size_t{4096}, data.size()}) {
      const auto acc = backend->make_accumulator();
      for (std::size_t off = 0; off < data.size(); off += chunk) {
        acc->add(ByteView(data).subspan(off, std::min(chunk, data.size() - off)));
      }
      EXPECT_EQ(acc->total(), data.size()) << backend->name();
      EXPECT_DOUBLE_EQ(acc->score(), one_shot)
          << backend->name() << " chunk=" << chunk;
    }
  }
}

TEST(EntropyBackend, AccumulatorMatchesOneShotAtAdversarialSplits) {
  // The DAA tail ring is where chunk boundaries can go wrong: a split
  // exactly at, one before, or one after a window edge; writes smaller
  // than the window; chunks that straddle the head/tail boundary; and
  // degenerate windows of 1 and 2 bytes. Every backend must still score
  // the stream identically to the one-shot form at all of them.
  const Bytes data = compressed_fixture();
  for (std::size_t window : {std::size_t{1}, std::size_t{2}, std::size_t{256},
                             std::size_t{2048}, std::size_t{4096}}) {
    BackendOptions options;
    options.daa_window_bytes = window;
    for (BackendKind kind : all_backend_kinds()) {
      const auto backend = make_backend(kind, options);
      const double one_shot = backend->score(ByteView(data));
      // Split points chosen adversarially around the window edges and
      // the buffer ends; each defines a three-chunk feed.
      std::vector<std::size_t> cuts = {1,
                                       window > 1 ? window - 1 : 1,
                                       window,
                                       window + 1,
                                       2 * window - 1,
                                       2 * window + 1,
                                       data.size() - 1,
                                       data.size() - window,
                                       data.size() - window - 1};
      for (std::size_t a : cuts) {
        for (std::size_t b : cuts) {
          if (a > b || b > data.size()) continue;
          const auto acc = backend->make_accumulator();
          acc->add(ByteView(data).subspan(0, a));
          acc->add(ByteView(data).subspan(a, b - a));
          acc->add(ByteView(data).subspan(b, data.size() - b));
          ASSERT_EQ(acc->total(), data.size()) << backend->name();
          ASSERT_DOUBLE_EQ(acc->score(), one_shot)
              << backend->name() << " window=" << window << " cuts=" << a
              << "," << b;
        }
      }
      // Sub-window drip: every write smaller than the window, sized so
      // chunks continually straddle ring wrap points.
      if (window > 2) {
        const auto acc = backend->make_accumulator();
        const std::size_t step = window / 2 + 1;
        for (std::size_t off = 0; off < data.size(); off += step) {
          acc->add(ByteView(data).subspan(off, std::min(step, data.size() - off)));
        }
        ASSERT_DOUBLE_EQ(acc->score(), one_shot)
            << backend->name() << " window=" << window << " drip=" << step;
      }
    }
  }
}

TEST(EntropyBackend, DaaWindowOptionChangesScore) {
  const Bytes data = compressed_fixture();  // header only inside small windows
  BackendOptions narrow;
  narrow.daa_window_bytes = 256;
  BackendOptions wide;
  wide.daa_window_bytes = 4096;
  const double narrow_score =
      make_backend(BackendKind::daa, narrow)->score(ByteView(data));
  const double wide_score =
      make_backend(BackendKind::daa, wide)->score(ByteView(data));
  // The 256-byte head window is pure header (very structured); the
  // 4096-byte head window is mostly keystream.
  EXPECT_LT(narrow_score, wide_score);
}

TEST(EntropyBackend, DaaPrependHeaderEvasion) {
  // arXiv 2303.17351's attack on differential area analysis: prepend a
  // low-entropy header to every ciphertext so the head window looks like
  // plaintext. min(head, tail) then reports the header's score — DAA is
  // blind by design, shannon still flags the blob, which is exactly why
  // the ensemble exists.
  Bytes attack = to_bytes(std::string(2048, 'A'));
  const Bytes body = encrypted_fixture();
  attack.insert(attack.end(), body.begin(), body.end());

  const double daa_score = make_backend(BackendKind::daa)->score(ByteView(attack));
  const double shannon_score =
      make_backend(BackendKind::shannon)->score(ByteView(attack));
  EXPECT_LT(daa_score, 1.0);     // head window = constant bytes, near zero
  EXPECT_GT(shannon_score, 6.0); // the blob is still 80% ciphertext

  // Streamed form agrees: chunked adds reproduce the evasion verdict.
  const auto acc = make_backend(BackendKind::daa)->make_accumulator();
  for (std::size_t off = 0; off < attack.size(); off += 512) {
    acc->add(ByteView(attack).subspan(off, 512));
  }
  EXPECT_DOUBLE_EQ(acc->score(), daa_score);
}

TEST(EntropyBackend, EnsembleVoteDeterministicAcrossJobs) {
  // The engine contract extends to ensembles: per-member means are
  // per-process state, so worker count cannot change a single verdict,
  // score, or vote. Run the same mini-campaign at 1 and 16 workers.
  corpus::CorpusSpec spec;
  spec.total_files = 200;
  spec.total_dirs = 20;
  spec.compute_hashes = false;
  const harness::Environment env = harness::make_environment(spec, 4242);

  std::vector<sim::SampleSpec> specs;
  for (const char* family : {"CryptoWall", "Filecoder", "Xorist"}) {
    sim::SampleSpec sample;
    sample.family = family;
    sample.behavior = sim::BehaviorClass::A;
    sample.profile = sim::family_profile(family, sim::BehaviorClass::A);
    sample.seed = 77;
    specs.push_back(std::move(sample));
  }

  core::ScoringConfig config;
  for (BackendKind kind : all_backend_kinds()) {
    config.entropy.ensemble.members.push_back(core::EnsembleMember{kind, 1.0});
  }
  config.entropy.ensemble.min_vote_weight = 0.5;

  harness::TrialOptions serial;
  serial.jobs = 1;
  harness::TrialOptions wide;
  wide.jobs = 16;
  const auto a = harness::run_campaign(env, specs, config, serial);
  const auto b = harness::run_campaign(env, specs, config, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].detected, b[i].detected) << a[i].family;
    EXPECT_EQ(a[i].final_score, b[i].final_score) << a[i].family;
    EXPECT_EQ(a[i].files_lost, b[i].files_lost) << a[i].family;
    EXPECT_EQ(a[i].report.write_entropy_mean, b[i].report.write_entropy_mean)
        << a[i].family;
  }
  // And the ensemble is not a no-op on this campaign: something fired.
  EXPECT_TRUE(a[0].detected || a[1].detected || a[2].detected);
}

}  // namespace
}  // namespace cryptodrop::entropy
