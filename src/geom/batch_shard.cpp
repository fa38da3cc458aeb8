#include "geom/batch_shard.hpp"

#include <cstddef>
#include <cstring>
#include <iterator>

#include "util/bytes.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/perf.hpp"

namespace mvio::geom {

namespace {

constexpr std::uint32_t kMagic = 0x4853564Du;  // "MVSH" little-endian
/// v3: per-record cell and u32 lengths only; tags, coordinate counts and
/// envelopes are derived on decode (v2 stored them, with u64 end offsets).
constexpr std::uint32_t kVersion = 3;
/// Header offsets of the two checksum words; the header checksum covers
/// every header byte before it.
constexpr std::size_t kPayloadSumAt = 40;
constexpr std::size_t kHeaderSumAt = 48;
/// Payload bytes every record carries before its arena slices: cell,
/// shape length and userData length.
constexpr std::size_t kRecordFixedBytes = sizeof(std::int32_t) + 2 * sizeof(std::uint32_t);

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

/// Iterator over `T` values stored unaligned at a byte pointer:
/// vector::insert sizes an append once from it (random access) and copies
/// the values in without zero-filling the new tail first.
template <typename T>
class WireColumn {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = T;
  using difference_type = std::ptrdiff_t;
  using pointer = const T*;
  using reference = T;

  explicit WireColumn(const char* p) : p_(p) {}
  T operator*() const { return readScalar<T>(p_); }
  WireColumn& operator+=(difference_type k) {
    p_ += k * static_cast<difference_type>(sizeof(T));
    return *this;
  }
  WireColumn& operator++() { return *this += 1; }
  WireColumn& operator--() { return *this += -1; }
  difference_type operator-(const WireColumn& o) const {
    return (p_ - o.p_) / static_cast<difference_type>(sizeof(T));
  }
  bool operator==(const WireColumn& o) const = default;

 private:
  const char* p_;
};

/// Append `n` values of `T` copied from the (unaligned) bytes at `src`.
template <typename T>
void appendColumn(std::vector<T>& dst, const char* src, std::size_t n) {
  dst.insert(dst.end(), WireColumn<T>(src), WireColumn<T>(src + n * sizeof(T)));
}

}  // namespace

/// Private-column access granted by GeometryBatch's friend declaration.
struct ShardAccess {
  /// Write one shard of records idx(0), ..., idx(z.records - 1) of `b` at
  /// `header`, which has room for z.encodedBytes(). The fixed columns are
  /// checksummed in one call, the arena slices as they are copied.
  template <typename Idx>
  static void write(const GeometryBatch& b, Idx idx, const ShardCounts& z, char* header) {
    const std::size_t n = z.records;
    char* const payload = header + kShardHeaderBytes;
    char* cur = payload;
    for (std::size_t k = 0; k < n; ++k) cur = putWord<std::int32_t>(cur, b.cells_[idx(k)]);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = idx(k);
      cur = putWord(cur, length(b.shapeEnd_[i] - b.shapeBegin(i)));
    }
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = idx(k);
      cur = putWord(cur, length(b.userEnd_[i] - b.userBegin(i)));
    }
    std::uint32_t crc = util::crc32c(payload, static_cast<std::size_t>(cur - payload));
    cur = copyArena(b.shape_, b.shapeEnd_, idx, n, cur, crc);
    cur = copyArena(b.coords_, b.coordEnd_, idx, n, cur, crc);
    cur = copyArena(b.userData_, b.userEnd_, idx, n, cur, crc);
    MVIO_CHECK(cur == header + z.encodedBytes(), "shard payload size drift");
    util::perf::addBytesChecksummed(static_cast<std::size_t>(cur - payload));

    char* h = header;
    h = putWord<std::uint32_t>(h, kMagic);
    h = putWord<std::uint32_t>(h, kVersion);
    h = putWord<std::uint64_t>(h, n);
    h = putWord<std::uint64_t>(h, z.coords);
    h = putWord<std::uint64_t>(h, z.shapeTokens);
    h = putWord<std::uint64_t>(h, z.userBytes);
    h = putWord<std::uint64_t>(h, crc);
    h = putWord<std::uint64_t>(h, checksum(header, kHeaderSumAt));
    MVIO_CHECK(h == payload, "shard header size drift");
    util::perf::addBytesCopied(z.encodedBytes());
  }

  static std::uint32_t length(std::size_t n) {
    MVIO_CHECK(n <= UINT32_MAX, "batch shard: record slice exceeds 4 G entries");
    return static_cast<std::uint32_t>(n);
  }

  /// Copy the records' slices of one arena, one copy per run of adjacent
  /// records (a contiguous record range is a single copy).
  template <typename T, typename Idx>
  static char* copyArena(const std::vector<T>& arena, const std::vector<std::size_t>& ends, Idx idx,
                         std::size_t n, char* cur, std::uint32_t& crc) {
    for (std::size_t k = 0; k < n;) {
      const std::size_t first = idx(k);
      std::size_t last = first;
      for (++k; k < n && idx(k) == last + 1; ++k) ++last;
      const std::size_t lo = first == 0 ? 0 : ends[first - 1];
      const std::size_t bytes = (ends[last] - lo) * sizeof(T);
      if (bytes == 0) continue;
      crc = util::crc32cCopy(cur, arena.data() + lo, bytes, crc);
      cur += bytes;
    }
    return cur;
  }

  static ShardCounts sizesOf(const GeometryBatch& b, std::size_t lo, std::size_t hi) {
    if (lo == hi) return {};
    return {hi - lo, b.coordEnd_[hi - 1] - b.coordBegin(lo), b.shapeEnd_[hi - 1] - b.shapeBegin(lo),
            b.userEnd_[hi - 1] - b.userBegin(lo)};
  }

  /// Drop every record from index `records` on, and the arena tails they
  /// own — the undo of a partly appended shard.
  static void truncate(GeometryBatch& b, std::size_t records) {
    b.coords_.resize(b.coordBegin(records));
    b.shape_.resize(b.shapeBegin(records));
    b.userData_.resize(b.userBegin(records));
    for (auto* column : {&b.coordEnd_, &b.shapeEnd_, &b.userEnd_}) column->resize(records);
    b.tags_.resize(records);
    b.cells_.resize(records);
    b.envelopes_.resize(records);
  }

  static std::size_t decode(std::string_view bytes, GeometryBatch& out) {
    MVIO_CHECK(!out.recordOpen_, "decodeShard with a record open");
    const auto [n, nCoords, nShape, nUser] = shardCounts(bytes);
    const std::size_t payloadBytes = bytes.size() - kShardHeaderBytes;
    const char* p = bytes.data();
    const char* cells = p + kShardHeaderBytes;
    MVIO_CHECK(checksum(cells, payloadBytes) == readScalar<std::uint64_t>(p + kPayloadSumAt),
               "batch shard: payload checksum mismatch");

    const char* shapeLens = cells + n * sizeof(std::int32_t);
    const char* userLens = shapeLens + n * sizeof(std::uint32_t);
    const char* shape = userLens + n * sizeof(std::uint32_t);
    const char* coords = shape + nShape * sizeof(std::uint32_t);
    const char* userData = coords + nCoords * sizeof(Coord);

    // The arenas are appended first, so the structural walk reads aligned
    // tokens and coordinates; each record's envelope is taken right after
    // the walk passes its coordinates. Any rejection truncates `out` back
    // to the records it had.
    const std::size_t before = out.size();
    try {
      appendColumn(out.shape_, shape, nShape);
      appendColumn(out.coords_, coords, nCoords);
      out.userData_.insert(out.userData_.end(), userData, userData + nUser);
      const std::uint32_t* const s0 = out.shape_.data();
      const std::uint32_t* s = s0 + out.shapeBegin(before);
      const std::uint32_t* const sEnd = s0 + out.shape_.size();
      const Coord* const c0 = out.coords_.data();
      const Coord* c = c0 + out.coordBegin(before);
      const Coord* const cEnd = c0 + out.coords_.size();
      std::size_t userAt = out.userBegin(before);
      for (auto* ends : {&out.coordEnd_, &out.shapeEnd_, &out.userEnd_}) ends->resize(before + n);
      out.tags_.resize(before + n);
      out.envelopes_.resize(before + n);
      for (std::size_t k = 0; k < n; ++k) {
        const auto shapeLen = readScalar<std::uint32_t>(shapeLens + k * sizeof(std::uint32_t));
        const auto userLen = readScalar<std::uint32_t>(userLens + k * sizeof(std::uint32_t));
        MVIO_CHECK(shapeLen >= 1 && shapeLen <= static_cast<std::size_t>(sEnd - s),
                   "batch shard: bad shape lengths");
        MVIO_CHECK(userLen <= out.userData_.size() - userAt, "batch shard: bad userData lengths");
        const std::uint32_t* const recordEnd = s + shapeLen;
        const Coord* const first = c;
        out.tags_[before + k] = static_cast<std::uint8_t>(*s);
        skipShapeNode(s, recordEnd, c, cEnd);
        MVIO_CHECK(s == recordEnd, "batch shard: shape length does not match its node");
        // commitRecord's loop, so the envelope is bit-identical.
        Envelope e;
        e.expandToInclude(first, c);
        out.envelopes_[before + k] = e;
        userAt += userLen;
        out.coordEnd_[before + k] = static_cast<std::size_t>(c - c0);
        out.shapeEnd_[before + k] = static_cast<std::size_t>(s - s0);
        out.userEnd_[before + k] = userAt;
      }
      MVIO_CHECK(s == sEnd && c == cEnd && userAt == out.userData_.size(),
                 "batch shard: records do not cover the arenas");
      appendColumn(out.cells_, cells, n);
    } catch (...) {
      truncate(out, before);
      throw;
    }
    util::perf::addBytesCopied(bytes.size());
    return n;
  }
};

std::size_t ShardCounts::encodedBytes() const {
  return kShardHeaderBytes + records * kRecordFixedBytes + coords * sizeof(Coord) +
         shapeTokens * sizeof(std::uint32_t) + userBytes;
}

ShardCounts shardCounts(std::string_view bytes) {
  MVIO_CHECK(bytes.size() >= kShardHeaderBytes, "batch shard: truncated header");
  const char* p = bytes.data();
  MVIO_CHECK(checksum(p, kHeaderSumAt) == readScalar<std::uint64_t>(p + kHeaderSumAt),
             "batch shard: corrupted header (checksum mismatch)");
  MVIO_CHECK(readScalar<std::uint32_t>(p) == kMagic, "batch shard: bad magic");
  MVIO_CHECK(readScalar<std::uint32_t>(p + 4) == kVersion, "batch shard: unsupported version");
  ShardCounts c;
  c.records = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 8));
  c.coords = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 16));
  c.shapeTokens = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 24));
  c.userBytes = static_cast<std::size_t>(readScalar<std::uint64_t>(p + 32));

  // Bound every count by the payload bytes left, by division — a crafted
  // count must not wrap the size product — before any count sizes a
  // column.
  std::size_t left = bytes.size() - kShardHeaderBytes;
  MVIO_CHECK(c.records <= left / kRecordFixedBytes, "batch shard: truncated payload");
  left -= c.records * kRecordFixedBytes;
  MVIO_CHECK(c.shapeTokens <= left / sizeof(std::uint32_t), "batch shard: truncated payload");
  left -= c.shapeTokens * sizeof(std::uint32_t);
  MVIO_CHECK(c.coords <= left / sizeof(Coord), "batch shard: truncated payload");
  left -= c.coords * sizeof(Coord);
  MVIO_CHECK(c.userBytes == left, "batch shard: truncated payload");
  return c;
}

std::size_t shardRecordBytes(const GeometryBatch& b, std::size_t i) {
  return kRecordFixedBytes + b.vertexCount(i) * sizeof(Coord) +
         b.shapeTokenCount(i) * sizeof(std::uint32_t) + b.userData(i).size();
}

void encodeShard(const GeometryBatch& b, std::size_t lo, std::size_t hi, std::string& out) {
  MVIO_CHECK(lo <= hi && hi <= b.size(), "encodeShard: record range out of bounds");
  const ShardCounts z = ShardAccess::sizesOf(b, lo, hi);
  const std::size_t at = out.size();
  out.resize(at + z.encodedBytes());
  ShardAccess::write(b, [lo](std::size_t k) { return lo + k; }, z, out.data() + at);
}

std::vector<ShardRun> encodeShardRuns(const GeometryBatch& b, std::span<const std::uint32_t> order,
                                      std::span<const int> keys, std::string& out) {
  MVIO_CHECK(order.size() == keys.size(), "encodeShardRuns: one key per ordered record");
  const std::size_t n = order.size();
  std::vector<ShardRun> runs;
  std::size_t at = out.size();
  for (std::size_t k = 0; k < n;) {
    ShardRun run{keys[k], at, {}};
    for (; k < n && keys[k] == run.key; ++k) {
      const std::size_t i = order[k];
      MVIO_CHECK(i < b.size(), "encodeShardRuns: record index out of range");
      run.counts.records += 1;
      run.counts.coords += b.vertexCount(i);
      run.counts.shapeTokens += b.shapeTokenCount(i);
      run.counts.userBytes += b.userData(i).size();
    }
    at += run.counts.encodedBytes();
    runs.push_back(run);
  }
  out.resize(at);
  const std::uint32_t* idx = order.data();
  for (const ShardRun& run : runs) {
    ShardAccess::write(b, [idx](std::size_t k) { return std::size_t{idx[k]}; }, run.counts,
                       out.data() + run.offset);
    idx += run.counts.records;
  }
  return runs;
}

std::size_t decodeShard(std::string_view bytes, GeometryBatch& out) {
  return ShardAccess::decode(bytes, out);
}

std::uint64_t shardChecksum(std::string_view shard) {
  MVIO_CHECK(shard.size() >= kShardHeaderBytes, "batch shard: truncated header");
  return readScalar<std::uint64_t>(shard.data() + kHeaderSumAt);
}

}  // namespace mvio::geom
