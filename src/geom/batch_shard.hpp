#pragma once
// BatchShard — the one serialized form of GeometryBatch records
// (DESIGN.md §7): exchange frames, spill segments, checkpoints and
// migration blobs. A shard stores only what the decoder cannot
// recompute:
//
//   [magic:u32]["MVSH"][version:u32 = 3]
//   [records:u64][coords:u64][shapeTokens:u64][userBytes:u64]
//   [payloadChecksum:u64][headerChecksum:u64]
//   payload: cells i32 × records | shapeLen u32 × records |
//            userLen u32 × records | shape u32 × shapeTokens |
//            coords 2×f64 × coords | userData u8 × userBytes
//
// Both checksums are CRC-32C (util/crc32c.hpp), zero-extended to u64:
// headerChecksum covers the preceding header bytes (so a corrupted or
// truncated header is rejected before any size field is trusted),
// payloadChecksum covers the payload. A durable reference records the
// headerChecksum word (shardChecksum), which binds the header and through
// it the payload, so each byte is hashed once on write and once on load.
//
// A checksum is not a MAC, so decodeShard also checks structure: every
// count is bounded by the bytes present, and each record's shape stream
// is walked with the checked cursor of geometry_batch.cpp
// (skipShapeNode). The walk yields the coordinate count, the first token
// is the type tag, and the envelope comes from commitRecord's loop, so a
// decoded record is bit for bit the encoded one. A rejected shard leaves
// the output batch as it was; reloading k shards in order is exactly
// GeometryBatch::splice.
//
// One writer, encodeShardRuns, produces every shard: the exchange keys
// records by destination, the CellStore spill by cell, and encodeShard is
// the one-run case (checkpoints, migrateShards, the index persister). The
// codec is byte-order-native (frames and spill files never leave the
// node).

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geom/geometry_batch.hpp"

namespace mvio::geom {

/// Fixed shard header size in bytes (see layout above: 2×u32 + 6×u64).
inline constexpr std::size_t kShardHeaderBytes = 56;

/// Payload bytes record `i` contributes to a shard (columns + arena
/// slices, no header). Used to split a batch into bounded-size shards.
[[nodiscard]] std::size_t shardRecordBytes(const GeometryBatch& b, std::size_t i);

/// Append the shard encoding of records [lo, hi) of `b` to `out`.
void encodeShard(const GeometryBatch& b, std::size_t lo, std::size_t hi, std::string& out);

/// The record and arena totals a shard header declares.
struct ShardCounts {
  std::size_t records = 0;
  std::size_t coords = 0;
  std::size_t shapeTokens = 0;
  std::size_t userBytes = 0;

  /// Encoded size of a shard with these totals, header included.
  [[nodiscard]] std::size_t encodedBytes() const;
};

/// Read a shard's totals after the checks decodeShard makes before it
/// touches the payload: header checksum, magic, version, and every count
/// bounded by the bytes present. Lets a receiver size a batch from
/// counts the frame's own bytes back (GeometryBatch::reserve) before it
/// decodes. Throws util::Error as decodeShard would.
[[nodiscard]] ShardCounts shardCounts(std::string_view shard);

/// One shard written by encodeShardRuns: the records of one run of equal
/// keys.
struct ShardRun {
  int key = 0;
  std::size_t offset = 0;  ///< byte offset of the shard in the output
  ShardCounts counts;      ///< counts.encodedBytes() is the shard's length
};

/// The shard writer. Appends to `out` records order[0..n) of `b`, in that
/// order, as one shard per run of equal consecutive keys (keys[k] is the
/// key of record order[k]), and returns the run directory. `out` grows
/// once, by the exact total. Callers that want one shard per key sort
/// `order` by key first (stably, to keep their record order).
std::vector<ShardRun> encodeShardRuns(const GeometryBatch& b, std::span<const std::uint32_t> order,
                                      std::span<const int> keys, std::string& out);

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
/// a corrupted or truncated header, a payload checksum mismatch, lengths
/// that do not tile the arenas, or a malformed shape stream, and then
/// leaves `out` unchanged.
std::size_t decodeShard(std::string_view bytes, GeometryBatch& out);

/// The headerChecksum word of an encoded shard, read without hashing.
/// decodeShard checks the header against it and the payload against the
/// header, so a reference that records {size, this word} pins the whole
/// blob. Throws util::Error on a blob shorter than the header.
[[nodiscard]] std::uint64_t shardChecksum(std::string_view shard);

}  // namespace mvio::geom
