#include "crypto/chacha20.hpp"

#include <cstring>

namespace cryptodrop::crypto {

namespace {

inline std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl32(d, 16);
  c += d; b ^= c; b = rotl32(b, 12);
  a += b; d ^= a; d = rotl32(d, 8);
  c += d; b ^= c; b = rotl32(b, 7);
}

inline std::uint32_t load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline void store32(std::uint8_t* p, std::uint32_t x) {
  p[0] = static_cast<std::uint8_t>(x);
  p[1] = static_cast<std::uint8_t>(x >> 8);
  p[2] = static_cast<std::uint8_t>(x >> 16);
  p[3] = static_cast<std::uint8_t>(x >> 24);
}

}  // namespace

ChaCha20::ChaCha20(ByteView key, ByteView nonce, std::uint32_t counter) {
  // RFC 8439 state layout: constants | key | counter | nonce.
  static constexpr char kSigma[] = "expand 32-byte k";
  for (int i = 0; i < 4; ++i) {
    state_[i] = load32(reinterpret_cast<const std::uint8_t*>(kSigma) + 4 * i);
  }
  // An empty view may carry a null data(), which memcpy must not get
  // even for zero bytes.
  std::uint8_t key_bytes[32] = {};
  if (!key.empty()) {
    std::memcpy(key_bytes, key.data(), std::min<std::size_t>(key.size(), 32));
  }
  for (int i = 0; i < 8; ++i) state_[4 + i] = load32(key_bytes + 4 * i);
  state_[12] = counter;
  std::uint8_t nonce_bytes[12] = {};
  if (!nonce.empty()) {
    std::memcpy(nonce_bytes, nonce.data(),
                std::min<std::size_t>(nonce.size(), 12));
  }
  for (int i = 0; i < 3; ++i) state_[13 + i] = load32(nonce_bytes + 4 * i);
  block_pos_ = 64;  // force a fresh block on first use
}

void ChaCha20::next_block() {
  std::uint32_t x[16];
  std::memcpy(x, state_, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    store32(block_ + 4 * i, x[i] + state_[i]);
  }
  ++state_[12];
  block_pos_ = 0;
}

void ChaCha20::xor_in_place(Bytes& data) {
  for (auto& byte : data) {
    if (block_pos_ == 64) next_block();
    byte ^= block_[block_pos_++];
  }
}

Bytes ChaCha20::transform(ByteView data) {
  Bytes out(data.begin(), data.end());
  xor_in_place(out);
  return out;
}

Bytes ChaCha20::keystream(std::size_t n) {
  Bytes out(n, 0);
  xor_in_place(out);
  return out;
}

Bytes chacha20_encrypt(ByteView key, ByteView nonce, ByteView plaintext) {
  ChaCha20 cipher(key, nonce);
  return cipher.transform(plaintext);
}

}  // namespace cryptodrop::crypto
