#include "common/hex.hpp"

#include <array>

namespace cryptodrop {

namespace {
constexpr char kDigits[] = "0123456789abcdef";

/// Nibble value of each byte: 0-15 for a hex digit, 0xFF otherwise, so
/// OR-ing every looked-up value and testing the high bits flags any
/// non-hex byte without a branch per byte.
constexpr std::array<std::uint8_t, 256> kNibble = [] {
  std::array<std::uint8_t, 256> table{};
  for (std::uint8_t& v : table) v = 0xFF;
  for (std::size_t c = '0'; c <= '9'; ++c) table[c] = static_cast<std::uint8_t>(c - '0');
  for (std::size_t c = 'a'; c <= 'f'; ++c) table[c] = static_cast<std::uint8_t>(c - 'a' + 10);
  for (std::size_t c = 'A'; c <= 'F'; ++c) table[c] = static_cast<std::uint8_t>(c - 'A' + 10);
  return table;
}();
}  // namespace

std::string hex_encode(ByteView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::optional<Bytes> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out(hex.size() / 2);
  std::uint8_t seen = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint8_t hi = kNibble[static_cast<unsigned char>(hex[2 * i])];
    const std::uint8_t lo = kNibble[static_cast<unsigned char>(hex[2 * i + 1])];
    seen = static_cast<std::uint8_t>(seen | hi | lo);
    out[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  if ((seen & 0xF0) != 0) return std::nullopt;
  return out;
}

}  // namespace cryptodrop
