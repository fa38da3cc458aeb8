#pragma once
// Decimal text → double for the text ingest paths: WKT coordinates
// (geom/wkt.cpp) and CSV points (core/parser.cpp). parseDouble() is a
// drop-in for std::from_chars(first, last, double&): for every input it
// returns the same value bits, the same end pointer and the same error.
//
// Most coordinates are plain "[-]digits[.digits]" text of at most 17
// significant digits, and for those it takes Clinger's fast path: the
// digits form an integer significand m and the fraction length k a power
// of ten. When m <= 2^53 and k <= 22, both double(m) and 1e<k> are exact
// doubles, so the one IEEE division m / 1e<k> is the correctly rounded
// value of the decimal — the value from_chars returns. Every other input
// (exponents, more than 19 significant digits, m > 2^53, k > 22, ".5",
// "+1", "inf", "nan", no digits at all) falls back to from_chars.
// DESIGN.md §12 has the full argument.

#include <bit>
#include <cfloat>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <system_error>

namespace mvio::util {

/// '0'..'9', without the locale lookup of std::isdigit.
inline bool isAsciiDigit(char c) { return static_cast<unsigned char>(c - '0') <= 9; }

// The fast path's exactness needs each double operation rounded once, to
// double: no x87 extended-precision intermediates.
static_assert(FLT_EVAL_METHOD == 0, "parseDouble's fast path needs double-precision evaluation");

namespace decimal_detail {

inline constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                    1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                                    1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
inline constexpr std::size_t kMaxFastPow = 22;
inline constexpr std::uint64_t kMaxFastSignificand = std::uint64_t{1} << 53;
inline constexpr int kMaxSignificantDigits = 19;  // 10^19 - 1 < 2^64: no wrap
// Eight-byte loads run only while this many bytes remain, so a load never
// touches a byte at or past `last`.
inline constexpr std::ptrdiff_t kWideLoadSlack = 16;

inline std::uint64_t load8(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// High bit set in every byte of `v` that is not an ASCII digit. Carries
/// and borrows start only at non-digit bytes, so the lowest flagged byte
/// (the first non-digit in memory order, little-endian) is always exact;
/// bytes above it may be flagged spuriously, which no caller reads.
inline std::uint64_t nonDigitBytes(std::uint64_t v) {
  return ((v + 0x4646464646464646ULL) | (v - 0x3030303030303030ULL)) & 0x8080808080808080ULL;
}

/// The eight digits' value, first byte most significant: pairs, then
/// quads, then the whole word, in three multiplies.
inline std::uint64_t eightDigitValue(std::uint64_t v) {
  v -= 0x3030303030303030ULL;
  v = v * 10 + (v >> 8);
  const std::uint64_t mask = 0x000000FF000000FFULL;
  const std::uint64_t mul1 = 100 + (std::uint64_t{1000000} << 32);
  const std::uint64_t mul2 = 1 + (std::uint64_t{10000} << 32);
  return (((v & mask) * mul1) + (((v >> 16) & mask) * mul2)) >> 32;
}

inline constexpr std::uint64_t kPow10Int[] = {1, 10, 100, 1000, 10000, 100000, 1000000, 10000000};

/// Accumulate the digit run at p into m (wrapping harmlessly on overlong
/// runs, which the caller rejects); returns the end of the run. Away from
/// `last`, each eight-byte word is classified at once and a run of n < 8
/// digits is shifted to the word's low-order end behind '0' padding, so
/// the common short run costs no per-digit branch.
inline const char* digitRun(const char* p, const char* last, std::uint64_t& m) {
  if constexpr (std::endian::native == std::endian::little) {
    while (last - p >= kWideLoadSlack) {
      const std::uint64_t v = load8(p);
      const std::uint64_t stop = nonDigitBytes(v);
      if (stop == 0) {
        m = m * 100000000 + eightDigitValue(v);
        p += 8;
        continue;
      }
      const int n = std::countr_zero(stop) >> 3;
      if (n > 0) {
        m = m * kPow10Int[n] + eightDigitValue((v << (64 - 8 * n)) | (0x3030303030303030ULL >> (8 * n)));
      }
      return p + n;
    }
  }
  while (p < last && isAsciiDigit(*p)) {
    m = m * 10 + static_cast<unsigned>(*p - '0');
    ++p;
  }
  return p;
}

}  // namespace decimal_detail

/// std::from_chars(first, last, value) for doubles, chars_format::general:
/// identical value bits, end pointer and error on every input. On error
/// `value` is left untouched, as from_chars leaves it.
inline std::from_chars_result parseDouble(const char* first, const char* last, double& value) {
  using namespace decimal_detail;
  const char* p = first;
  const bool negative = p < last && *p == '-';
  p += negative;
  const char* digits = p;
  std::uint64_t m = 0;
  p = digitRun(p, last, m);
  const std::ptrdiff_t intDigits = p - digits;
  std::ptrdiff_t k = 0;
  if (intDigits > 0 && p < last && *p == '.') {
    const char* frac = ++p;
    p = digitRun(p, last, m);
    k = p - frac;
  }
  if (intDigits > 0 && !(p < last && (*p == 'e' || *p == 'E'))) {
    std::ptrdiff_t significant = intDigits + k;
    if (significant > kMaxSignificantDigits) {
      for (const char* q = digits; q < p && (*q == '0' || *q == '.'); ++q) significant -= (*q == '0');
    }
    if (significant <= kMaxSignificantDigits && m <= kMaxFastSignificand &&
        static_cast<std::size_t>(k) <= kMaxFastPow) {
      const double d = static_cast<double>(m) / kPow10[k];
      value = negative ? -d : d;
      return {p, std::errc()};
    }
  }
  return std::from_chars(first, last, value);
}

}  // namespace mvio::util
