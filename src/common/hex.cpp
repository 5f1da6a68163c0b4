#include "common/hex.hpp"

#include <array>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

#if defined(__SSE2__)
// SSE2 is the x86-64 baseline, so these need no run-time dispatch. SSE2
// has no byte shuffle, so nibbles map to digits by compare-and-add, and
// its byte compares are signed: bytes >= 0x80 read as negative and fall
// below every range tested here.

/// Lower-case hex digits of the 16 nibbles in `n` (each 0-15).
__m128i nibbles_to_digits(__m128i n) {
  const __m128i above_nine = _mm_cmpgt_epi8(n, _mm_set1_epi8(9));
  const __m128i digits = _mm_add_epi8(n, _mm_set1_epi8('0'));
  return _mm_add_epi8(digits, _mm_and_si128(above_nine, _mm_set1_epi8('a' - '0' - 10)));
}

/// Encodes 16 bytes from `in` as 32 hex chars at `out`.
void encode16(const std::uint8_t* in, char* out) {
  const __m128i low_nibble = _mm_set1_epi8(0x0f);
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
  const __m128i hi = nibbles_to_digits(_mm_and_si128(_mm_srli_epi16(v, 4), low_nibble));
  const __m128i lo = nibbles_to_digits(_mm_and_si128(v, low_nibble));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm_unpacklo_epi8(hi, lo));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16), _mm_unpackhi_epi8(hi, lo));
}

/// 0xFF in each byte lane where `lo <= c <= hi`; `lo` and `hi` are ASCII.
__m128i in_range(__m128i c, char lo, char hi) {
  return _mm_and_si128(_mm_cmpgt_epi8(c, _mm_set1_epi8(static_cast<char>(lo - 1))),
                       _mm_cmplt_epi8(c, _mm_set1_epi8(static_cast<char>(hi + 1))));
}

/// Nibble values of 16 hex chars; sets the lanes of non-hex chars in
/// `bad`.
__m128i chars_to_nibbles(__m128i c, __m128i& bad) {
  const __m128i digit = in_range(c, '0', '9');
  // OR-ing 0x20 folds 'A'-'F' onto 'a'-'f'; digits are tested on `c`.
  const __m128i lower = _mm_or_si128(c, _mm_set1_epi8(0x20));
  const __m128i letter = in_range(lower, 'a', 'f');
  bad = _mm_or_si128(bad, _mm_andnot_si128(_mm_or_si128(digit, letter), _mm_set1_epi8(-1)));
  return _mm_or_si128(_mm_and_si128(digit, _mm_sub_epi8(c, _mm_set1_epi8('0'))),
                      _mm_and_si128(letter, _mm_sub_epi8(lower, _mm_set1_epi8('a' - 10))));
}

/// Packs 16 nibbles (high, low, high, low, ...) into 8 bytes, one per
/// 16-bit lane.
__m128i pack_pairs(__m128i n) {
  const __m128i hi = _mm_and_si128(n, _mm_set1_epi16(0x00ff));
  const __m128i lo = _mm_srli_epi16(n, 8);
  return _mm_or_si128(_mm_slli_epi16(hi, 4), lo);
}

/// Decodes 32 hex chars at `in` into 16 bytes at `out`; false when any
/// char is not a hex digit.
bool decode32(const char* in, std::uint8_t* out) {
  __m128i bad = _mm_setzero_si128();
  const __m128i first = chars_to_nibbles(_mm_loadu_si128(reinterpret_cast<const __m128i*>(in)), bad);
  const __m128i second = chars_to_nibbles(_mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16)), bad);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm_packus_epi16(pack_pairs(first), pack_pairs(second)));
  return _mm_movemask_epi8(bad) == 0;
}
#endif  // __SSE2__

}  // namespace

std::string hex_encode(ByteView data) {
  std::string out(data.size() * 2, '\0');
  std::size_t i = 0;
#if defined(__SSE2__)
  for (; i + 16 <= data.size(); i += 16) encode16(data.data() + i, out.data() + 2 * i);
#endif
  for (; i < data.size(); ++i) {
    out[2 * i] = kDigits[data[i] >> 4];
    out[2 * i + 1] = kDigits[data[i] & 0xf];
  }
  return out;
}

std::optional<Bytes> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out(hex.size() / 2);
  std::size_t i = 0;
#if defined(__SSE2__)
  for (; i + 16 <= out.size(); i += 16) {
    if (!decode32(hex.data() + 2 * i, out.data() + i)) return std::nullopt;
  }
#endif
  std::uint8_t seen = 0;
  for (; i < out.size(); ++i) {
    const std::uint8_t hi = kNibble[static_cast<unsigned char>(hex[2 * i])];
    const std::uint8_t lo = kNibble[static_cast<unsigned char>(hex[2 * i + 1])];
    seen = static_cast<std::uint8_t>(seen | hi | lo);
    out[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  if ((seen & 0xF0) != 0) return std::nullopt;
  return out;
}

}  // namespace cryptodrop
