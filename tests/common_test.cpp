// Unit tests for the common substrate: rng, hex, stats, text, result.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bytes.hpp"
#include "common/hex.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/text.hpp"

namespace cryptodrop {
namespace {

// --- bytes --------------------------------------------------------------

TEST(Bytes, RoundTripString) {
  const Bytes b = to_bytes("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(to_string(ByteView(b)), "hello");
}

TEST(Bytes, AppendConcatenates) {
  // `tail` is built before `b`: built after it, GCC 12 at -O2 reports a
  // false -Wstringop-overflow in the inlined vector::insert.
  const Bytes tail = to_bytes("ef");
  Bytes b = to_bytes("ab");
  append(b, std::string_view("cd"));
  append(b, ByteView(tail));
  EXPECT_EQ(to_string(ByteView(b)), "abcdef");
}

TEST(Bytes, StartsWithMatchesPrefix) {
  const Bytes b = to_bytes("PK\x03\x04rest");
  EXPECT_TRUE(starts_with(ByteView(b), std::string_view("PK\x03\x04", 4)));
  EXPECT_FALSE(starts_with(ByteView(b), std::string_view("PK\x05", 3)));
}

TEST(Bytes, StartsWithLongerPrefixFails) {
  const Bytes b = to_bytes("ab");
  EXPECT_FALSE(starts_with(ByteView(b), std::string_view("abc")));
}

// --- hex ------------------------------------------------------------------

TEST(Hex, EncodeKnownBytes) {
  const Bytes b = {0x00, 0x0f, 0xff, 0xa5};
  EXPECT_EQ(hex_encode(ByteView(b)), "000fffa5");
}

TEST(Hex, DecodeRoundTrip) {
  const Bytes b = {1, 2, 3, 250, 251, 252};
  const auto decoded = hex_decode(hex_encode(ByteView(b)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, b);
}

TEST(Hex, DecodeAcceptsUpperCase) {
  const auto decoded = hex_decode("DEADBEEF");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(hex_encode(ByteView(*decoded)), "deadbeef");
}

TEST(Hex, DecodeRejectsOddLength) {
  EXPECT_FALSE(hex_decode("abc").has_value());
}

TEST(Hex, DecodeRejectsNonHex) {
  EXPECT_FALSE(hex_decode("zz").has_value());
}

TEST(Hex, DecodeMatchesScalarReferenceOnEveryBytePair) {
  // The reference decoder the table-driven one must agree with.
  const auto nibble = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  // 66 valid digits in both cases: the decoder's 32-char steps and its
  // tail each see the pair at some even offset.
  const std::string filler =
      "0123456789abcdefABCDEF0123456789abcdefABCDEF0123456789abcdefABCDEF";
  Bytes filler_bytes;
  for (std::size_t i = 0; i < filler.size(); i += 2) {
    filler_bytes.push_back(
        static_cast<std::uint8_t>(nibble(filler[i]) * 16 + nibble(filler[i + 1])));
  }
  std::string input = filler;
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      const std::string pair = {static_cast<char>(a), static_cast<char>(b)};
      const int hi = nibble(pair[0]);
      const int lo = nibble(pair[1]);
      const bool valid = hi >= 0 && lo >= 0;
      const auto value = static_cast<std::uint8_t>(hi * 16 + lo);
      // Bare, and between valid digits so a bad byte anywhere rejects.
      for (const std::string& short_input : {pair, "0f" + pair + "A9"}) {
        const auto decoded = hex_decode(short_input);
        if (!valid) {
          EXPECT_FALSE(decoded.has_value()) << a << "," << b;
          continue;
        }
        ASSERT_TRUE(decoded.has_value()) << a << "," << b;
        const Bytes expected = short_input.size() == 2
                                   ? Bytes{value}
                                   : Bytes{0x0f, value, 0xa9};
        EXPECT_EQ(*decoded, expected) << a << "," << b;
      }
      for (std::size_t off = 0; off < filler.size(); off += 2) {
        input[off] = pair[0];
        input[off + 1] = pair[1];
        const auto decoded = hex_decode(input);
        input[off] = filler[off];
        input[off + 1] = filler[off + 1];
        if (!valid) {
          EXPECT_FALSE(decoded.has_value()) << a << "," << b << " @" << off;
          continue;
        }
        ASSERT_TRUE(decoded.has_value()) << a << "," << b << " @" << off;
        Bytes expected = filler_bytes;
        expected[off / 2] = value;
        EXPECT_EQ(*decoded, expected) << a << "," << b << " @" << off;
      }
    }
    // Odd lengths are rejected whatever the bytes.
    EXPECT_FALSE(hex_decode(std::string(1, static_cast<char>(a))).has_value());
    EXPECT_FALSE(hex_decode("00" + std::string(1, static_cast<char>(a))).has_value());
  }
  EXPECT_EQ(hex_decode(""), std::optional<Bytes>(Bytes{}));
}

TEST(Hex, RoundTripsEveryLengthInBothCases) {
  const auto reference_encode = [](const Bytes& data) {
    std::string out;
    for (const std::uint8_t b : data) {
      out.push_back("0123456789abcdef"[b >> 4]);
      out.push_back("0123456789abcdef"[b & 0xf]);
    }
    return out;
  };
  Rng rng(96);
  std::vector<Bytes> inputs;
  for (std::size_t n = 0; n <= 96; ++n) inputs.push_back(rng.bytes(n));
  Bytes every_value(256);
  for (std::size_t i = 0; i < every_value.size(); ++i) {
    every_value[i] = static_cast<std::uint8_t>(i);
  }
  inputs.push_back(every_value);
  for (const Bytes& data : inputs) {
    const std::string lower = hex_encode(ByteView(data));
    EXPECT_EQ(lower, reference_encode(data)) << "n=" << data.size();
    std::string upper = lower;
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](char c) { return c >= 'a' && c <= 'f' ? static_cast<char>(c - 32) : c; });
    EXPECT_EQ(hex_decode(lower), std::optional<Bytes>(data)) << "n=" << data.size();
    EXPECT_EQ(hex_decode(upper), std::optional<Bytes>(data)) << "n=" << data.size();
  }
}

TEST(Hex, EmptyIsEmpty) {
  EXPECT_EQ(hex_encode(ByteView()), "");
  const auto decoded = hex_decode("");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, GaussianMeanAndSpread) {
  Rng rng(13);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.1);
}

TEST(Rng, BytesLengthAndDeterminism) {
  Rng a(21), b(21);
  const Bytes x = a.bytes(1000);
  const Bytes y = b.bytes(1000);
  EXPECT_EQ(x.size(), 1000u);
  EXPECT_EQ(x, y);
}

TEST(Rng, BytesNonAligned) {
  Rng rng(22);
  EXPECT_EQ(rng.bytes(0).size(), 0u);
  EXPECT_EQ(rng.bytes(1).size(), 1u);
  EXPECT_EQ(rng.bytes(7).size(), 7u);
  EXPECT_EQ(rng.bytes(9).size(), 9u);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(31);
  const std::vector<double> weights = {0.0, 9.0, 1.0};
  int counts[3] = {};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIsIndependentOfParentContinuation) {
  Rng parent(55);
  Rng child = parent.fork(1);
  const std::uint64_t c1 = child.next();
  // Re-derive: same parent seed, same fork id -> same child stream.
  Rng parent2(55);
  Rng child2 = parent2.fork(1);
  EXPECT_EQ(child2.next(), c1);
  // Different stream ids diverge.
  Rng parent3(55);
  Rng child3 = parent3.fork(2);
  EXPECT_NE(child3.next(), c1);
}

TEST(Rng, SeedFromStringStable) {
  EXPECT_EQ(seed_from_string("abc"), seed_from_string("abc"));
  EXPECT_NE(seed_from_string("abc"), seed_from_string("abd"));
}

TEST(Rng, LogNormalPositive) {
  Rng rng(77);
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.log_normal(8.0, 1.0), 0.0);
}

// --- stats ---------------------------------------------------------------

TEST(Stats, MedianOdd) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Stats, MedianEvenAverages) {
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 10.0}), 2.5);
}

TEST(Stats, MedianSingle) {
  EXPECT_DOUBLE_EQ(median({42.0}), 42.0);
}

TEST(Stats, MedianIntMatchesPaperStyle) {
  // CryptoDefense's Table-I median is 6.5 — an even-count family.
  EXPECT_DOUBLE_EQ(median_int({5, 8, 6, 7}), 6.5);
}

TEST(Stats, MeanBasic) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, PercentileBounds) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

TEST(Stats, CumulativeFractionMonotone) {
  const auto points = cumulative_fraction({3, 1, 1, 2, 5});
  ASSERT_EQ(points.size(), 4u);  // distinct values 1,2,3,5
  EXPECT_DOUBLE_EQ(points.front().first, 1.0);
  EXPECT_DOUBLE_EQ(points.front().second, 0.4);
  EXPECT_DOUBLE_EQ(points.back().first, 5.0);
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].first, points[i - 1].first);
    EXPECT_GT(points[i].second, points[i - 1].second);
  }
}

TEST(Stats, FrequencyCounts) {
  const auto freq = frequency<std::string>({"a", "b", "a", "a"});
  EXPECT_EQ(freq.at("a"), 3u);
  EXPECT_EQ(freq.at("b"), 1u);
}

TEST(Stats, TextBarWidths) {
  EXPECT_EQ(text_bar(0.0, 10), "..........");
  EXPECT_EQ(text_bar(1.0, 10), "##########");
  EXPECT_EQ(text_bar(0.5, 10), "#####.....");
  EXPECT_EQ(text_bar(2.0, 4), "####");   // clamped
  EXPECT_EQ(text_bar(-1.0, 4), "....");  // clamped
}

// --- text ------------------------------------------------------------------

TEST(Text, ProseHasRequestedSize) {
  Rng rng(1);
  EXPECT_EQ(synth_prose(rng, 500).size(), 500u);
}

TEST(Text, ProseLooksLikeText) {
  Rng rng(2);
  const std::string s = synth_prose(rng, 2000);
  for (char c : s) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == ' ' ||
                c == '.' || c == '\n')
        << "unexpected char " << static_cast<int>(c);
  }
}

TEST(Text, TokenLengthBounds) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const std::string t = synth_token(rng, 4, 8);
    EXPECT_GE(t.size(), 4u);
    EXPECT_LE(t.size(), 8u);
  }
}

TEST(Text, CsvHasHeaderAndRows) {
  Rng rng(4);
  const std::string csv = synth_csv(rng, 3, 4);
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, 4);  // header + 3 rows
}

TEST(Text, WordIsCapitalized) {
  Rng rng(5);
  const std::string w = synth_word(rng);
  EXPECT_TRUE(w[0] >= 'A' && w[0] <= 'Z');
}

// --- result -------------------------------------------------------------

TEST(Result, DefaultStatusIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::ok);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Result, ErrorStatusCarriesMessage) {
  Status s(Errc::not_found, "missing.txt");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "not_found: missing.txt");
}

TEST(Result, ValueAccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, ErrorPropagates) {
  Result<int> r(Status(Errc::access_denied, "nope"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::access_denied);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, ErrcNamesAreDistinct) {
  std::set<std::string_view> names;
  for (Errc e : {Errc::ok, Errc::not_found, Errc::already_exists,
                 Errc::access_denied, Errc::read_only, Errc::invalid_argument,
                 Errc::not_a_directory, Errc::is_a_directory, Errc::not_empty}) {
    names.insert(errc_name(e));
  }
  EXPECT_EQ(names.size(), 9u);
}

}  // namespace
}  // namespace cryptodrop
