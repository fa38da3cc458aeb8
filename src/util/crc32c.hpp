#pragma once
// CRC-32C (Castagnoli) — the shard codec's checksum (DESIGN.md §7).
//
// FNV-1a does one dependent multiply per byte, so a shard codec that
// hashes with it runs at a tenth of memcpy speed. CRC-32C runs a word at
// a time: on x86-64 with SSE4.2 through the `crc32` instruction, chosen
// once at run time (no build flag), elsewhere through a slice-by-8 table.
// It detects every burst error of up to 32 bits, so every single-bit flip
// of a checksummed range is caught.
//
// Standard parameters (reflected polynomial 0x82F63B78, initial value and
// final xor 0xFFFFFFFF): crc32c("123456789") == 0xE3069283.

#include <cstddef>
#include <cstdint>

namespace mvio::util {

/// CRC-32C of `n` bytes at `p`, continuing from the CRC of the bytes
/// before them (`crc` = 0 starts a fresh checksum), so
/// crc32c(b, nb, crc32c(a, na)) is the CRC of a followed by b.
[[nodiscard]] std::uint32_t crc32c(const void* p, std::size_t n, std::uint32_t crc = 0);

/// Copy `n` bytes from `src` to `dst` (non-overlapping) and return their
/// CRC-32C, continuing from `crc` as crc32c does. One pass: the copy
/// rides along with the checksum, so a writer that checksums what it
/// copies pays for the checksum alone.
std::uint32_t crc32cCopy(void* dst, const void* src, std::size_t n, std::uint32_t crc = 0);

namespace detail {
/// The portable slice-by-8 table path crc32c falls back to; exposed so
/// tests can check the hardware path against it.
[[nodiscard]] std::uint32_t crc32cTable(const void* p, std::size_t n, std::uint32_t crc = 0);
}  // namespace detail

}  // namespace mvio::util
