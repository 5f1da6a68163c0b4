// Known-answer and property tests for the crypto substrate.
#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "crypto/xor_cipher.hpp"
#include "entropy/entropy.hpp"

namespace cryptodrop::crypto {
namespace {

Bytes from_hex(std::string_view h) {
  auto b = hex_decode(h);
  EXPECT_TRUE(b.has_value()) << h;
  return b.value_or(Bytes{});
}

// --- ChaCha20 ----------------------------------------------------------

TEST(ChaCha20, Rfc8439BlockFunctionVector) {
  // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000, ctr 1.
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  const Bytes nonce = from_hex("000000090000004a00000000");
  ChaCha20 cipher(key, nonce, /*counter=*/1);
  const Bytes stream = cipher.keystream(64);
  EXPECT_EQ(hex_encode(ByteView(stream)),
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439EncryptionVectorPrefix) {
  // RFC 8439 §2.4.2: the "sunscreen" plaintext, counter 1.
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  const Bytes nonce = from_hex("000000000000004a00000000");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  ChaCha20 cipher(key, nonce, /*counter=*/1);
  const Bytes ct = cipher.transform(to_bytes(plaintext));
  EXPECT_EQ(hex_encode(ByteView(ct).first(32)),
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b");
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  Rng rng(1);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  const Bytes plain = rng.bytes(5000);
  const Bytes ct = chacha20_encrypt(key, nonce, plain);
  EXPECT_NE(ct, plain);
  EXPECT_EQ(chacha20_encrypt(key, nonce, ct), plain);
}

TEST(ChaCha20, CiphertextIsHighEntropy) {
  const Bytes key = to_bytes("k");
  const Bytes nonce = to_bytes("n");
  const Bytes plain(100000, 'A');  // zero-entropy plaintext
  const Bytes ct = chacha20_encrypt(key, nonce, plain);
  EXPECT_GT(entropy::shannon(ByteView(ct)), 7.9);
}

TEST(ChaCha20, DifferentNoncesDifferentStreams) {
  const Bytes key = to_bytes("same-key");
  const Bytes p(64, 0);
  const Bytes a = chacha20_encrypt(key, to_bytes("nonce-1"), p);
  const Bytes b = chacha20_encrypt(key, to_bytes("nonce-2"), p);
  EXPECT_NE(a, b);
}

TEST(ChaCha20, StreamingMatchesOneShot) {
  Rng rng(2);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  const Bytes plain = rng.bytes(1000);
  ChaCha20 whole(key, nonce);
  const Bytes expected = whole.transform(plain);
  ChaCha20 chunked(key, nonce);
  Bytes out;
  for (std::size_t off = 0; off < plain.size(); off += 33) {
    const std::size_t n = std::min<std::size_t>(33, plain.size() - off);
    Bytes part = chunked.transform(ByteView(plain).subspan(off, n));
    append(out, ByteView(part));
  }
  EXPECT_EQ(out, expected);
}

// --- AES ------------------------------------------------------------------

TEST(Aes128, Fips197KnownAnswer) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes block = from_hex("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  aes.encrypt_block(block.data());
  EXPECT_EQ(hex_encode(ByteView(block)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, Sp800_38aCtrKnownAnswer) {
  // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, first block.
  // Key 2b7e151628aed2a6abf7158809cf4f3c, counter block f0f1...feff.
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes counter = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Aes128 aes(key);
  aes.encrypt_block(counter.data());
  const Bytes pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  Bytes ct(16);
  for (int i = 0; i < 16; ++i) ct[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(counter[static_cast<std::size_t>(i)] ^ pt[static_cast<std::size_t>(i)]);
  EXPECT_EQ(hex_encode(ByteView(ct)), "874d6191b620e3261bef6864990db6ce");
}

TEST(Aes128Ctr, RoundTrip) {
  Rng rng(3);
  const Bytes key = rng.bytes(16);
  const Bytes nonce = rng.bytes(12);
  const Bytes plain = rng.bytes(4097);
  Aes128Ctr enc(key, nonce);
  const Bytes ct = enc.transform(plain);
  EXPECT_NE(ct, plain);
  Aes128Ctr dec(key, nonce);
  EXPECT_EQ(dec.transform(ct), plain);
}

TEST(Aes128Ctr, CiphertextIsHighEntropy) {
  const Bytes plain(100000, 0x42);
  Aes128Ctr enc(to_bytes("key"), to_bytes("nonce"));
  EXPECT_GT(entropy::shannon(ByteView(enc.transform(plain))), 7.9);
}

TEST(Aes128Ctr, CounterAdvances) {
  // Two consecutive 16-byte transforms of zeros must differ (distinct
  // counter blocks).
  Aes128Ctr enc(to_bytes("key"), to_bytes("nonce"));
  const Bytes a = enc.transform(Bytes(16, 0));
  const Bytes b = enc.transform(Bytes(16, 0));
  EXPECT_NE(a, b);
}

TEST(Aes128Ctr, EmptyKeyAndNonceReadAsZeros) {
  // Empty views may carry a null data(); the cipher must treat them as
  // all-zero key and nonce without handing the null pointer to memcpy.
  Aes128Ctr empty{ByteView(), ByteView()};
  Aes128Ctr zeros(Bytes(16, 0), Bytes(12, 0));
  EXPECT_EQ(empty.transform(Bytes(40, 7)), zeros.transform(Bytes(40, 7)));
}

// --- SHA-256 ----------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(sha256_hex(ByteView()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  const Bytes b = to_bytes("abc");
  EXPECT_EQ(sha256_hex(ByteView(b)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const Bytes b = to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(sha256_hex(ByteView(b)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 hasher;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(ByteView(chunk));
  const auto digest = hasher.finish();
  EXPECT_EQ(hex_encode(ByteView(digest.data(), digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Rng rng(4);
  const Bytes data = rng.bytes(10000);
  Sha256 hasher;
  for (std::size_t off = 0; off < data.size(); off += 77) {
    const std::size_t n = std::min<std::size_t>(77, data.size() - off);
    hasher.update(ByteView(data).subspan(off, n));
  }
  const auto streamed = hasher.finish();
  EXPECT_EQ(streamed, sha256(ByteView(data)));
}

TEST(Sha256, BoundaryLengths) {
  // Padding edge cases: 55, 56, 63, 64, 65 bytes.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u}) {
    const Bytes data(n, 'x');
    const auto d1 = sha256(ByteView(data));
    Sha256 hasher;
    hasher.update(ByteView(data).first(n / 2));
    hasher.update(ByteView(data).subspan(n / 2));
    EXPECT_EQ(hasher.finish(), d1) << "length " << n;
  }
}

TEST(Sha256, SensitiveToSingleBit) {
  Bytes a = to_bytes("The quick brown fox");
  Bytes b = a;
  b[0] ^= 1;
  EXPECT_NE(sha256(ByteView(a)), sha256(ByteView(b)));
}

// --- XOR cipher ------------------------------------------------------------

TEST(XorCipher, RoundTrip) {
  const Bytes key = to_bytes("0123456789abcdef");
  const Bytes plain = to_bytes("some moderately long plaintext for the xor test");
  const Bytes ct = xor_encrypt(key, plain);
  EXPECT_NE(ct, plain);
  EXPECT_EQ(xor_encrypt(key, ct), plain);
}

TEST(XorCipher, EmptyKeyIsIdentity) {
  const Bytes plain = to_bytes("data");
  EXPECT_EQ(xor_encrypt(ByteView(), plain), plain);
}

TEST(XorCipher, WeakerThanStrongCipher) {
  // The Xorist property: repeating-key XOR of structured text has lower
  // entropy than a real stream cipher's output.
  Rng rng(5);
  Bytes plain;
  for (int i = 0; i < 400; ++i) append(plain, std::string_view("the quick brown fox "));
  const Bytes key = rng.bytes(16);
  const double xor_entropy = entropy::shannon(ByteView(xor_encrypt(key, plain)));
  const double cc_entropy =
      entropy::shannon(ByteView(chacha20_encrypt(key, key, plain)));
  EXPECT_LT(xor_entropy, cc_entropy);
  EXPECT_GT(xor_entropy, entropy::shannon(ByteView(plain)));
}

TEST(XorCipher, ChangesEveryKeyPeriod) {
  const Bytes key = {0xff};
  const Bytes plain(64, 0x00);
  const Bytes ct = xor_encrypt(key, plain);
  for (std::uint8_t b : ct) EXPECT_EQ(b, 0xff);
}

}  // namespace
}  // namespace cryptodrop::crypto
