#include "geom/batch_shard.hpp"

#include <cstring>
#include <iterator>

#include "util/bytes.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/perf.hpp"

namespace mvio::geom {

namespace {

constexpr std::uint32_t kMagic = 0x4853564Du;  // "MVSH" little-endian
/// v2: both checksums are CRC-32C (v1 used FNV-1a).
constexpr std::uint32_t kVersion = 2;
/// Header offsets of the two checksum words; the header checksum covers
/// every header byte before it.
constexpr std::size_t kPayloadSumAt = 40;
constexpr std::size_t kHeaderSumAt = 48;
/// Payload bytes every record carries before its arena slices: tag, cell,
/// envelope and the three end offsets.
constexpr std::size_t kRecordFixedBytes = 1 + sizeof(int) + sizeof(Envelope) + 24;

using util::readScalar;

/// The shard checksum, charged to the bytes-checksummed counter.
std::uint32_t checksum(const char* p, std::size_t n) {
  util::perf::addBytesChecksummed(n);
  return util::crc32c(p, n);
}

template <typename T>
char* putWord(char* cur, T v) {
  std::memcpy(cur, &v, sizeof(T));
  return cur + sizeof(T);
}

/// Writes a shard payload through a cursor, folding each column into the
/// payload CRC as it is copied (one pass over the bytes).
struct PayloadWriter {
  char* cur = nullptr;
  std::uint32_t crc = 0;

  void raw(const void* src, std::size_t n) {
    crc = util::crc32cCopy(cur, src, n, crc);
    cur += n;
  }
  /// ends[lo, hi) rebased by -base, as u64 words.
  void ends(const std::vector<std::size_t>& e, std::size_t lo, std::size_t hi, std::size_t base) {
    char* const at = cur;
    for (std::size_t i = lo; i < hi; ++i) cur = putWord<std::uint64_t>(cur, e[i] - base);
    crc = util::crc32c(at, static_cast<std::size_t>(cur - at), crc);
  }
};

/// Check one encoded end-offset column: monotone, within `total`, and
/// ending exactly at it.
void checkEnds(const char* ends, std::size_t n, std::size_t total, const char* what) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t e = readScalar<std::uint64_t>(ends + i * 8);
    MVIO_CHECK(e >= prev && e <= total, std::string("batch shard: bad ") + what + " offsets");
    prev = e;
  }
  MVIO_CHECK(n == 0 || prev == total, std::string("batch shard: short ") + what + " arena");
}

/// Random-access iterator over `T` values stored unaligned in a byte
/// range, so vector::insert appends a wire column in one sized pass
/// (resize would zero-fill the new tail before the copy).
template <typename T>
struct WireColumn {
  using iterator_category = std::random_access_iterator_tag;
  using value_type = T;
  using difference_type = std::ptrdiff_t;
  using pointer = const T*;
  using reference = T;

  const char* at = nullptr;

  T operator*() const { return readScalar<T>(at); }
  T operator[](difference_type k) const { return *(*this + k); }
  WireColumn& operator+=(difference_type k) {
    at += k * static_cast<difference_type>(sizeof(T));
    return *this;
  }
  WireColumn& operator-=(difference_type k) { return *this += -k; }
  WireColumn& operator++() { return *this += 1; }
  WireColumn& operator--() { return *this -= 1; }
  WireColumn operator++(int) {
    WireColumn was = *this;
    ++*this;
    return was;
  }
  WireColumn operator--(int) {
    WireColumn was = *this;
    --*this;
    return was;
  }
  friend WireColumn operator+(WireColumn it, difference_type k) { return it += k; }
  friend WireColumn operator-(WireColumn it, difference_type k) { return it -= k; }
  friend difference_type operator-(const WireColumn& a, const WireColumn& b) {
    return (a.at - b.at) / static_cast<difference_type>(sizeof(T));
  }
  friend auto operator<=>(const WireColumn&, const WireColumn&) = default;
};

/// Append `n` values of `T` read from `src`. Byte columns need no
/// alignment and insert straight from the bytes (one memcpy).
template <typename T>
void appendColumn(std::vector<T>& dst, const char* src, std::size_t n) {
  if constexpr (sizeof(T) == 1) {
    dst.insert(dst.end(), reinterpret_cast<const T*>(src), reinterpret_cast<const T*>(src) + n);
  } else {
    dst.insert(dst.end(), WireColumn<T>{src}, WireColumn<T>{src + n * sizeof(T)});
  }
}

/// Append a checked u64 end-offset column, rebased onto the arena's `base`.
void appendEnds(std::vector<std::size_t>& dst, const char* src, std::size_t n,
                std::size_t base) {
  const std::size_t at = dst.size();
  appendColumn(dst, src, n);
  for (std::size_t i = at; i < dst.size(); ++i) dst[i] += base;
}

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
    const std::size_t payloadBytes = n * kRecordFixedBytes + nCoords * sizeof(Coord) +
                                     nShape * sizeof(std::uint32_t) + nUser;

    // Size `out` once, then write payload and header through cursors.
    const std::size_t headerAt = out.size();
    out.resize(headerAt + kShardHeaderBytes + payloadBytes);
    char* const header = out.data() + headerAt;
    char* const payload = header + kShardHeaderBytes;

    PayloadWriter w{payload};
    w.raw(b.tags_.data() + lo, n * sizeof(std::uint8_t));
    w.raw(b.cells_.data() + lo, n * sizeof(int));
    w.raw(b.envelopes_.data() + lo, n * sizeof(Envelope));
    w.ends(b.coordEnd_, lo, hi, coordLo);
    w.ends(b.shapeEnd_, lo, hi, shapeLo);
    w.ends(b.userEnd_, lo, hi, userLo);
    w.raw(b.coords_.data() + coordLo, nCoords * sizeof(Coord));
    w.raw(b.shape_.data() + shapeLo, nShape * sizeof(std::uint32_t));
    w.raw(b.userData_.data() + userLo, nUser);
    MVIO_CHECK(w.cur == payload + payloadBytes, "shard payload size drift");
    util::perf::addBytesChecksummed(payloadBytes);

    char* h = header;
    h = putWord<std::uint32_t>(h, kMagic);
    h = putWord<std::uint32_t>(h, kVersion);
    h = putWord<std::uint64_t>(h, n);
    h = putWord<std::uint64_t>(h, nCoords);
    h = putWord<std::uint64_t>(h, nShape);
    h = putWord<std::uint64_t>(h, nUser);
    h = putWord<std::uint64_t>(h, w.crc);
    h = putWord<std::uint64_t>(h, checksum(header, kHeaderSumAt));
    MVIO_CHECK(h == payload, "shard header size drift");
    util::perf::addBytesCopied(out.size() - headerAt);
  }

  static std::size_t decode(std::string_view bytes, GeometryBatch& out) {
    MVIO_CHECK(!out.recordOpen_, "decodeShard with a record open");
    MVIO_CHECK(bytes.size() >= kShardHeaderBytes, "batch shard: truncated header");
    const char* p = bytes.data();
    MVIO_CHECK(checksum(p, kHeaderSumAt) == readScalar<std::uint64_t>(p + kHeaderSumAt),
               "batch shard: corrupted header (checksum mismatch)");
    MVIO_CHECK(readScalar<std::uint32_t>(p) == kMagic, "batch shard: bad magic");
    MVIO_CHECK(readScalar<std::uint32_t>(p + 4) == kVersion, "batch shard: unsupported version");
    const auto n = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 8));
    const auto nCoords = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 16));
    const auto nShape = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 24));
    const auto nUser = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 32));

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
    const char* tags = p + kShardHeaderBytes;
    MVIO_CHECK(checksum(tags, payloadBytes) == readScalar<std::uint64_t>(p + kPayloadSumAt),
               "batch shard: payload checksum mismatch");

    const char* cells = tags + n;
    const char* envelopes = cells + n * sizeof(int);
    const char* coordEnds = envelopes + n * sizeof(Envelope);
    const char* shapeEnds = coordEnds + n * 8;
    const char* userEnds = shapeEnds + n * 8;
    const char* coords = userEnds + n * 8;
    const char* shape = coords + nCoords * sizeof(Coord);
    const char* userData = shape + nShape * sizeof(std::uint32_t);

    // End offsets become arena slice bounds: check all three columns
    // before `out` is touched, so a rejected shard leaves it as it was.
    checkEnds(coordEnds, n, nCoords, "coord");
    checkEnds(shapeEnds, n, nShape, "shape");
    checkEnds(userEnds, n, nUser, "userData");

    appendColumn(out.tags_, tags, n);
    appendColumn(out.cells_, cells, n);
    appendColumn(out.envelopes_, envelopes, n);
    appendEnds(out.coordEnd_, coordEnds, n, out.coords_.size());
    appendEnds(out.shapeEnd_, shapeEnds, n, out.shape_.size());
    appendEnds(out.userEnd_, userEnds, n, out.userData_.size());
    appendColumn(out.coords_, coords, nCoords);
    appendColumn(out.shape_, shape, nShape);
    appendColumn(out.userData_, userData, nUser);
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

std::uint64_t shardChecksum(std::string_view shard) {
  MVIO_CHECK(shard.size() >= kShardHeaderBytes, "batch shard: truncated header");
  return readScalar<std::uint64_t>(shard.data() + kHeaderSumAt);
}

}  // namespace mvio::geom
