#include "geom/batch_shard.hpp"

#include <cstring>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/perf.hpp"

namespace mvio::geom {

namespace {

constexpr std::uint32_t kMagic = 0x4853564Du;  // "MVSH" little-endian
constexpr std::uint32_t kVersion = 1;
/// Payload bytes every record carries before its arena slices: tag, cell,
/// envelope and the three end offsets.
constexpr std::size_t kRecordFixedBytes = 1 + sizeof(int) + sizeof(Envelope) + 24;

using util::fnv1a;
using util::putBytes;
using util::putScalar;
using util::readScalar;

}  // namespace

/// Private-column access granted by GeometryBatch's friend declaration.
struct ShardAccess {
  static std::size_t coordBegin(const GeometryBatch& b, std::size_t i) { return b.coordBegin(i); }
  static std::size_t shapeBegin(const GeometryBatch& b, std::size_t i) { return b.shapeBegin(i); }
  static std::size_t userBegin(const GeometryBatch& b, std::size_t i) { return b.userBegin(i); }

  static void encode(const GeometryBatch& b, std::size_t lo, std::size_t hi, std::string& out) {
    const std::size_t n = hi - lo;
    const std::size_t coordLo = n == 0 ? 0 : b.coordBegin(lo);
    const std::size_t shapeLo = n == 0 ? 0 : b.shapeBegin(lo);
    const std::size_t userLo = n == 0 ? 0 : b.userBegin(lo);
    const std::size_t nCoords = n == 0 ? 0 : b.coordEnd_[hi - 1] - coordLo;
    const std::size_t nShape = n == 0 ? 0 : b.shapeEnd_[hi - 1] - shapeLo;
    const std::size_t nUser = n == 0 ? 0 : b.userEnd_[hi - 1] - userLo;

    // Payload first (into a scratch region of `out`), so the checksum is
    // computed over the final bytes without a second buffer.
    const std::size_t headerAt = out.size();
    out.append(kShardHeaderBytes, '\0');
    const std::size_t payloadAt = out.size();

    putBytes(out, b.tags_.data() + lo, n * sizeof(std::uint8_t));
    putBytes(out, b.cells_.data() + lo, n * sizeof(int));
    putBytes(out, b.envelopes_.data() + lo, n * sizeof(Envelope));
    for (std::size_t i = lo; i < hi; ++i) {
      putScalar<std::uint64_t>(out, b.coordEnd_[i] - coordLo);
    }
    for (std::size_t i = lo; i < hi; ++i) {
      putScalar<std::uint64_t>(out, b.shapeEnd_[i] - shapeLo);
    }
    for (std::size_t i = lo; i < hi; ++i) {
      putScalar<std::uint64_t>(out, b.userEnd_[i] - userLo);
    }
    putBytes(out, b.coords_.data() + coordLo, nCoords * sizeof(Coord));
    putBytes(out, b.shape_.data() + shapeLo, nShape * sizeof(std::uint32_t));
    putBytes(out, b.userData_.data() + userLo, nUser);

    const std::uint64_t payloadSum = fnv1a(out.data() + payloadAt, out.size() - payloadAt);

    // Header, written into the reserved region.
    std::string header;
    header.reserve(kShardHeaderBytes);
    putScalar<std::uint32_t>(header, kMagic);
    putScalar<std::uint32_t>(header, kVersion);
    putScalar<std::uint64_t>(header, n);
    putScalar<std::uint64_t>(header, nCoords);
    putScalar<std::uint64_t>(header, nShape);
    putScalar<std::uint64_t>(header, nUser);
    putScalar<std::uint64_t>(header, payloadSum);
    putScalar<std::uint64_t>(header, fnv1a(header.data(), header.size()));
    MVIO_CHECK(header.size() == kShardHeaderBytes, "shard header size drift");
    std::memcpy(out.data() + headerAt, header.data(), kShardHeaderBytes);
    util::perf::addBytesCopied(out.size() - headerAt);
  }

  static std::size_t decode(std::string_view bytes, GeometryBatch& out) {
    MVIO_CHECK(bytes.size() >= kShardHeaderBytes, "batch shard: truncated header");
    const char* p = bytes.data();
    MVIO_CHECK(fnv1a(p, 48) == readScalar<std::uint64_t>(p + 48),
               "batch shard: corrupted header (checksum mismatch)");
    MVIO_CHECK(readScalar<std::uint32_t>(p) == kMagic, "batch shard: bad magic");
    MVIO_CHECK(readScalar<std::uint32_t>(p + 4) == kVersion, "batch shard: unsupported version");
    const auto n = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 8));
    const auto nCoords = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 16));
    const auto nShape = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 24));
    const auto nUser = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 32));
    const std::uint64_t payloadSum = readScalar<std::uint64_t>(p + 40);

    // Bound every count by the payload bytes left, by division — a crafted
    // count must not wrap the size product — before any count sizes a
    // column.
    const std::size_t payloadBytes = bytes.size() - kShardHeaderBytes;
    std::size_t left = payloadBytes;
    MVIO_CHECK(n <= left / kRecordFixedBytes, "batch shard: truncated payload");
    left -= n * kRecordFixedBytes;
    MVIO_CHECK(nCoords <= left / sizeof(Coord), "batch shard: truncated payload");
    left -= nCoords * sizeof(Coord);
    MVIO_CHECK(nShape <= left / sizeof(std::uint32_t), "batch shard: truncated payload");
    left -= nShape * sizeof(std::uint32_t);
    MVIO_CHECK(nUser == left, "batch shard: truncated payload");
    const char* payload = p + kShardHeaderBytes;
    MVIO_CHECK(fnv1a(payload, payloadBytes) == payloadSum,
               "batch shard: payload checksum mismatch");

    MVIO_CHECK(!out.recordOpen_, "decodeShard with a record open");
    const std::size_t coordBase = out.coords_.size();
    const std::size_t shapeBase = out.shape_.size();
    const std::size_t userBase = out.userData_.size();

    const char* cur = payload;
    out.tags_.insert(out.tags_.end(), reinterpret_cast<const std::uint8_t*>(cur),
                     reinterpret_cast<const std::uint8_t*>(cur) + n);
    cur += n;
    const std::size_t cellsAt = out.cells_.size();
    out.cells_.resize(cellsAt + n);
    util::copyBytes(out.cells_.data() + cellsAt, cur, n * sizeof(int));
    cur += n * sizeof(int);
    const std::size_t envAt = out.envelopes_.size();
    out.envelopes_.resize(envAt + n);
    util::copyBytes(out.envelopes_.data() + envAt, cur, n * sizeof(Envelope));
    cur += n * sizeof(Envelope);

    // End offsets: validate monotone, in-range, and matching the totals the
    // header promised before trusting them as arena slice bounds.
    auto readEnds = [&](std::vector<std::size_t>& dst, std::size_t base, std::size_t total,
                        const char* what) {
      std::uint64_t prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t e = readScalar<std::uint64_t>(cur + i * 8);
        MVIO_CHECK(e >= prev && e <= total, std::string("batch shard: bad ") + what + " offsets");
        dst.push_back(static_cast<std::size_t>(e) + base);
        prev = e;
      }
      MVIO_CHECK(n == 0 || prev == total, std::string("batch shard: short ") + what + " arena");
      cur += n * 8;
    };
    readEnds(out.coordEnd_, coordBase, nCoords, "coord");
    readEnds(out.shapeEnd_, shapeBase, nShape, "shape");
    readEnds(out.userEnd_, userBase, nUser, "userData");

    const std::size_t coordAt = out.coords_.size();
    out.coords_.resize(coordAt + nCoords);
    util::copyBytes(out.coords_.data() + coordAt, cur, nCoords * sizeof(Coord));
    cur += nCoords * sizeof(Coord);
    const std::size_t shapeAt = out.shape_.size();
    out.shape_.resize(shapeAt + nShape);
    util::copyBytes(out.shape_.data() + shapeAt, cur, nShape * sizeof(std::uint32_t));
    cur += nShape * sizeof(std::uint32_t);
    out.userData_.insert(out.userData_.end(), cur, cur + nUser);
    util::perf::addBytesCopied(bytes.size());
    return n;
  }
};

std::size_t shardRecordBytes(const GeometryBatch& b, std::size_t i) {
  return kRecordFixedBytes + b.vertexCount(i) * sizeof(Coord) +
         b.shapeTokenCount(i) * sizeof(std::uint32_t) + b.userData(i).size();
}

std::size_t shardEncodedSize(const GeometryBatch& b, std::size_t lo, std::size_t hi) {
  MVIO_CHECK(lo <= hi && hi <= b.size(), "shardEncodedSize: record range out of bounds");
  std::size_t bytes = kShardHeaderBytes;
  for (std::size_t i = lo; i < hi; ++i) bytes += shardRecordBytes(b, i);
  return bytes;
}

void encodeShard(const GeometryBatch& b, std::size_t lo, std::size_t hi, std::string& out) {
  MVIO_CHECK(lo <= hi && hi <= b.size(), "encodeShard: record range out of bounds");
  ShardAccess::encode(b, lo, hi, out);
}

std::size_t decodeShard(std::string_view bytes, GeometryBatch& out) {
  return ShardAccess::decode(bytes, out);
}

}  // namespace mvio::geom
