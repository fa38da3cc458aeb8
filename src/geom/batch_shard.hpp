#pragma once
// BatchShard — the serialized form of a GeometryBatch record range
// (DESIGN.md §7).
//
// A GeometryBatch is memcpy-serializable per record: every column is a
// flat array and the three arenas are contiguous, so a record range
// [lo, hi) snapshots into one blob with no per-record work beyond the
// end-offset rebase. A shard is that snapshot plus a fixed header:
//
//   [magic:u32]["MVSH"][version:u32]
//   [records:u64][coords:u64][shapeTokens:u64][userBytes:u64]
//   [payloadChecksum:u64][headerChecksum:u64]
//   payload:
//     tags      u8      × records
//     cells     i32     × records
//     envelopes 4×f64   × records
//     coordEnd  u64     × records   (rebased: shard-local, exclusive)
//     shapeEnd  u64     × records
//     userEnd   u64     × records
//     coords    2×f64   × coords
//     shape     u32     × shapeTokens
//     userData  u8      × userBytes
//
// Both checksums are CRC-32C (util/crc32c.hpp), zero-extended to u64:
// headerChecksum covers the preceding header bytes (so a corrupted or
// truncated header is rejected before any size field is trusted),
// payloadChecksum covers the payload. A durable reference to a shard
// records its headerChecksum word (shardChecksum), which binds the header
// and through it the payload, so each shard byte is hashed once on write
// and once on load. decodeShard validates everything before it *appends*
// to its output batch — a rejected shard leaves the batch untouched, and
// reloading k shards in order is exactly GeometryBatch::splice, which is
// what the spill/reload path and the checkpoint restore path rely on.
//
// Shards are the unit the streaming pipeline spills through
// pfs::SpillStore, checkpoints persist and migrateShards ships.
// The codec is byte-order-native (spill files never leave the node).

#include <cstdint>
#include <string>
#include <string_view>

#include "geom/geometry_batch.hpp"

namespace mvio::geom {

/// Fixed shard header size in bytes (see layout above: 2×u32 + 6×u64).
inline constexpr std::size_t kShardHeaderBytes = 56;

/// Exact encoded size of records [lo, hi) of `b`, header included.
[[nodiscard]] std::size_t shardEncodedSize(const GeometryBatch& b, std::size_t lo, std::size_t hi);

/// Payload bytes record `i` contributes to a shard (columns + arena
/// slices, no header). Used to split a batch into bounded-size shards.
[[nodiscard]] std::size_t shardRecordBytes(const GeometryBatch& b, std::size_t i);

/// Append the shard encoding of records [lo, hi) of `b` to `out`.
void encodeShard(const GeometryBatch& b, std::size_t lo, std::size_t hi, std::string& out);

/// Greedy split of `b` into contiguous record ranges whose encoded size
/// stays at most `maxShardBytes` (header included; every range holds at
/// least one record, so a single oversized record still ships;
/// maxShardBytes 0 = one range for the whole batch). The one splitting
/// rule shared by every bounded-shard writer — the index persister, the
/// migration transport, and the checkpoint deltas — so their shard
/// sizes cannot silently diverge. Calls emit(lo, hi, encodedBytes) per
/// range, in order; returns the range count.
template <typename Emit>
std::size_t forEachShardRange(const GeometryBatch& b, std::uint64_t maxShardBytes, Emit&& emit) {
  std::size_t ranges = 0;
  std::size_t lo = 0;
  while (lo < b.size()) {
    std::size_t hi = lo;
    std::uint64_t bytes = kShardHeaderBytes;
    while (hi < b.size()) {
      const std::uint64_t rec = shardRecordBytes(b, hi);
      if (hi > lo && maxShardBytes != 0 && bytes + rec > maxShardBytes) break;
      bytes += rec;
      ++hi;
    }
    emit(lo, hi, bytes);
    ++ranges;
    lo = hi;
  }
  return ranges;
}

/// Whole-batch convenience form.
inline void encodeShard(const GeometryBatch& b, std::string& out) { encodeShard(b, 0, b.size(), out); }

/// Decode one shard, appending its records to `out` (existing records are
/// untouched; the shard's record k becomes out.size()+k). Returns the
/// number of records appended. Throws util::Error on a bad magic/version,
/// a corrupted or truncated header, a payload checksum mismatch, or
/// structurally inconsistent offsets, and then leaves `out` unchanged.
std::size_t decodeShard(std::string_view bytes, GeometryBatch& out);

/// The headerChecksum word of an encoded shard, read without hashing.
/// decodeShard checks the header against it and the payload against the
/// header, so a reference that records {size, this word} pins the whole
/// blob. Throws util::Error on a blob shorter than the header.
[[nodiscard]] std::uint64_t shardChecksum(std::string_view shard);

}  // namespace mvio::geom
