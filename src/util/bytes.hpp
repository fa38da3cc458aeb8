#pragma once
// Byte-level helpers shared by the little codecs scattered through the
// tree: the shard/manifest writers (geom/batch_shard.cpp,
// recovery/checkpoint.cpp) and the FNV-1a content hashing of join keys
// (core/spatial_join.cpp), manifests, seals and partition maps. Shard
// checksums are CRC-32C (util/crc32c.hpp). One definition each, so the
// hash constants and scalar layout cannot silently diverge between the
// writers and the readers.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace mvio::util {

/// FNV-1a over a byte range (64-bit offset basis / prime).
[[nodiscard]] inline std::uint64_t fnv1a(const char* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) {
  return fnv1a(bytes.data(), bytes.size());
}

/// Append `v`'s native-endian bytes to `out`.
template <typename T>
void putScalar(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Append `n` raw bytes from `src` to `out`. n == 0 is allowed with a
/// null `src` (an empty arena's data() is null).
inline void putBytes(std::string& out, const void* src, std::size_t n) {
  if (n != 0) out.append(static_cast<const char*>(src), n);
}

/// memcpy that permits the n == 0 / null-pointer case the C standard
/// (and UBSan) forbids — empty batch arenas legitimately have null
/// data().
inline void copyBytes(void* dst, const void* src, std::size_t n) {
  if (n != 0) std::memcpy(dst, src, n);
}

/// Read a `T` from `p` (unaligned-safe).
template <typename T>
[[nodiscard]] T readScalar(const char* p) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace mvio::util
