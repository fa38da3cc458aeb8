#include "util/crc32c.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define MVIO_CRC32C_SSE42 1
#endif

namespace mvio::util {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli polynomial

/// tables[0] is the bytewise table; tables[k][i] advances tables[k-1][i]
/// by one more zero byte, so eight lookups fold a whole 64-bit word.
constexpr std::array<std::array<std::uint32_t, 256>, 8> makeTables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) != 0 ? kPoly : 0u);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
  return t;
}

constexpr auto kTables = makeTables();

/// Both paths work on the raw (pre-inverted) CRC state. A kernel given a
/// `copyTo` target also copies the bytes there.
using Kernel = std::uint32_t (*)(unsigned char* copyTo, const unsigned char*, std::size_t,
                                 std::uint32_t);

std::uint32_t slice8(unsigned char* copyTo, const unsigned char* p, std::size_t n,
                     std::uint32_t s) {
  if (copyTo != nullptr && n != 0) std::memcpy(copyTo, p, n);
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t w;
      std::memcpy(&w, p, 8);
      w ^= s;
      s = kTables[7][w & 0xFFu] ^ kTables[6][(w >> 8) & 0xFFu] ^ kTables[5][(w >> 16) & 0xFFu] ^
          kTables[4][(w >> 24) & 0xFFu] ^ kTables[3][(w >> 32) & 0xFFu] ^
          kTables[2][(w >> 40) & 0xFFu] ^ kTables[1][(w >> 48) & 0xFFu] ^ kTables[0][w >> 56];
    }
  }
  for (; n != 0; ++p, --n) s = (s >> 8) ^ kTables[0][(s ^ *p) & 0xFFu];
  return s;
}

#ifdef MVIO_CRC32C_SSE42
/// The copy shares the checksum's loads, and its stores sit off the
/// `crc32` dependency chain, so copying costs next to nothing extra.
template <bool kCopy>
__attribute__((target("sse4.2"))) std::uint32_t sse42Loop(unsigned char* copyTo,
                                                           const unsigned char* p, std::size_t n,
                                                           std::uint32_t s) {
  std::uint64_t s64 = s;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    if constexpr (kCopy) std::memcpy(copyTo + i, &w, 8);
    s64 = _mm_crc32_u64(s64, w);
  }
  s = static_cast<std::uint32_t>(s64);
  for (; i < n; ++i) {
    if constexpr (kCopy) copyTo[i] = p[i];
    s = _mm_crc32_u8(s, p[i]);
  }
  return s;
}

__attribute__((target("sse4.2"))) std::uint32_t sse42(unsigned char* copyTo,
                                                       const unsigned char* p, std::size_t n,
                                                       std::uint32_t s) {
  return copyTo != nullptr ? sse42Loop<true>(copyTo, p, n, s) : sse42Loop<false>(copyTo, p, n, s);
}
#endif

Kernel chooseKernel() {
#ifdef MVIO_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return sse42;
#endif
  return slice8;
}

const Kernel& kernel() {
  static const Kernel k = chooseKernel();
  return k;
}

}  // namespace

std::uint32_t crc32c(const void* p, std::size_t n, std::uint32_t crc) {
  return ~kernel()(nullptr, static_cast<const unsigned char*>(p), n, ~crc);
}

std::uint32_t crc32cCopy(void* dst, const void* src, std::size_t n, std::uint32_t crc) {
  return ~kernel()(static_cast<unsigned char*>(dst), static_cast<const unsigned char*>(src), n,
                   ~crc);
}

namespace detail {
std::uint32_t crc32cTable(const void* p, std::size_t n, std::uint32_t crc) {
  return ~slice8(nullptr, static_cast<const unsigned char*>(p), n, ~crc);
}
}  // namespace detail

}  // namespace mvio::util
