#include "geom/geometry_batch.hpp"

#include <cstring>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/perf.hpp"

namespace mvio::geom {

namespace {

constexpr std::uint32_t kTypeMin = 1;
constexpr std::uint32_t kTypeMax = 7;

/// Shared cursor for shape-stream traversals (decode, check, size, WKB
/// write): every token and coordinate read is bounds-checked.
struct ShapeCursor {
  const std::uint32_t* s;
  const std::uint32_t* sEnd;
  const Coord* c;
  const Coord* cEnd;

  std::uint32_t token() {
    MVIO_CHECK(s < sEnd, "geometry batch: shape stream underrun");
    return *s++;
  }
  const Coord* take(std::size_t n) {
    MVIO_CHECK(static_cast<std::size_t>(cEnd - c) >= n, "geometry batch: coord arena underrun");
    const Coord* first = c;
    c += n;
    return first;
  }
};

Geometry decodeNode(ShapeCursor& cur) {
  const std::uint32_t t = cur.token();
  MVIO_CHECK(t >= kTypeMin && t <= kTypeMax, "geometry batch: bad type tag in shape stream");
  const auto type = static_cast<GeometryType>(t);
  switch (type) {
    case GeometryType::kPoint:
      return Geometry::point(*cur.take(1));
    case GeometryType::kLineString: {
      const std::uint32_t n = cur.token();
      const Coord* first = cur.take(n);
      return Geometry::lineString(std::vector<Coord>(first, first + n));
    }
    case GeometryType::kPolygon: {
      const std::uint32_t nRings = cur.token();
      std::vector<Ring> rings;
      rings.reserve(nRings);
      for (std::uint32_t r = 0; r < nRings; ++r) {
        const std::uint32_t len = cur.token();
        const Coord* first = cur.take(len);
        rings.push_back(Ring{std::vector<Coord>(first, first + len)});
      }
      return Geometry::polygon(std::move(rings));
    }
    default: {
      const std::uint32_t nParts = cur.token();
      std::vector<Geometry> parts;
      parts.reserve(nParts);
      for (std::uint32_t p = 0; p < nParts; ++p) parts.push_back(decodeNode(cur));
      return Geometry::multi(type, std::move(parts));
    }
  }
}

/// decodeNode's walk without building anything; collections one level
/// deeper than `depth` are refused past kMaxNestingDepth, as readWkb does.
void skipNode(ShapeCursor& cur, int depth) {
  const std::uint32_t t = cur.token();
  MVIO_CHECK(t >= kTypeMin && t <= kTypeMax, "geometry batch: bad type tag in shape stream");
  switch (static_cast<GeometryType>(t)) {
    case GeometryType::kPoint:
      cur.take(1);
      return;
    case GeometryType::kLineString:
      cur.take(cur.token());
      return;
    case GeometryType::kPolygon: {
      const std::uint32_t nRings = cur.token();
      for (std::uint32_t r = 0; r < nRings; ++r) cur.take(cur.token());
      return;
    }
    default: {
      const std::uint32_t nParts = cur.token();
      MVIO_CHECK(nParts == 0 || depth < kMaxNestingDepth,
                 "geometry batch: shape stream nested too deeply");
      for (std::uint32_t p = 0; p < nParts; ++p) skipNode(cur, depth + 1);
      return;
    }
  }
}

std::size_t nodeWkbSize(ShapeCursor& cur) {
  const std::uint32_t t = cur.token();
  const auto type = static_cast<GeometryType>(t);
  switch (type) {
    case GeometryType::kPoint:
      cur.take(1);
      return 5 + 16;
    case GeometryType::kLineString: {
      const std::uint32_t n = cur.token();
      cur.take(n);
      return 5 + 4 + 16ull * n;
    }
    case GeometryType::kPolygon: {
      const std::uint32_t nRings = cur.token();
      std::size_t bytes = 5 + 4;
      for (std::uint32_t r = 0; r < nRings; ++r) {
        const std::uint32_t len = cur.token();
        cur.take(len);
        bytes += 4 + 16ull * len;
      }
      return bytes;
    }
    default: {
      const std::uint32_t nParts = cur.token();
      std::size_t bytes = 5 + 4;
      for (std::uint32_t p = 0; p < nParts; ++p) bytes += nodeWkbSize(cur);
      return bytes;
    }
  }
}

inline char* putU8(char* dst, std::uint8_t v) {
  std::memcpy(dst, &v, 1);
  return dst + 1;
}
inline char* putU32(char* dst, std::uint32_t v) {
  std::memcpy(dst, &v, 4);
  return dst + 4;
}
inline char* putCoords(char* dst, const Coord* c, std::size_t n) {
  std::memcpy(dst, c, n * sizeof(Coord));
  return dst + n * sizeof(Coord);
}

char* writeWkbNode(ShapeCursor& cur, char* dst) {
  constexpr std::uint8_t kLittleEndian = 1;
  const std::uint32_t t = cur.token();
  dst = putU8(dst, kLittleEndian);
  dst = putU32(dst, t);
  switch (static_cast<GeometryType>(t)) {
    case GeometryType::kPoint:
      return putCoords(dst, cur.take(1), 1);
    case GeometryType::kLineString: {
      const std::uint32_t n = cur.token();
      dst = putU32(dst, n);
      return putCoords(dst, cur.take(n), n);
    }
    case GeometryType::kPolygon: {
      const std::uint32_t nRings = cur.token();
      dst = putU32(dst, nRings);
      for (std::uint32_t r = 0; r < nRings; ++r) {
        const std::uint32_t len = cur.token();
        dst = putU32(dst, len);
        dst = putCoords(dst, cur.take(len), len);
      }
      return dst;
    }
    default: {
      const std::uint32_t nParts = cur.token();
      dst = putU32(dst, nParts);
      for (std::uint32_t p = 0; p < nParts; ++p) dst = writeWkbNode(cur, dst);
      return dst;
    }
  }
}

}  // namespace

void skipShapeNode(const std::uint32_t*& s, const std::uint32_t* sEnd, const Coord*& c,
                   const Coord* cEnd) {
  ShapeCursor cur{s, sEnd, c, cEnd};
  skipNode(cur, 0);
  s = cur.s;
  c = cur.c;
}

Envelope GeometryBatch::bounds() const {
  Envelope e;
  for (const auto& rec : envelopes_) e.expandToInclude(rec);
  return e;
}

void GeometryBatch::beginRecord() {
  MVIO_CHECK(!recordOpen_, "beginRecord with a record already open");
  recordOpen_ = true;
  openCoordMark_ = coords_.size();
  openShapeMark_ = shape_.size();
}

void GeometryBatch::commitRecord(std::string_view userData, int cell) {
  MVIO_CHECK(recordOpen_, "commitRecord without beginRecord");
  MVIO_CHECK(shape_.size() > openShapeMark_, "commitRecord on an empty shape stream");
  recordOpen_ = false;

  Envelope e;
  e.expandToInclude(coords_.data() + openCoordMark_, coords_.data() + coords_.size());

  tags_.push_back(static_cast<std::uint8_t>(shape_[openShapeMark_]));
  envelopes_.push_back(e);
  cells_.push_back(cell);
  userData_.insert(userData_.end(), userData.begin(), userData.end());
  coordEnd_.push_back(coords_.size());
  shapeEnd_.push_back(shape_.size());
  userEnd_.push_back(userData_.size());
}

void GeometryBatch::rollbackRecord() {
  MVIO_CHECK(recordOpen_, "rollbackRecord without beginRecord");
  recordOpen_ = false;
  coords_.resize(openCoordMark_);
  shape_.resize(openShapeMark_);
}

void GeometryBatch::append(const Geometry& g, std::string_view userData, int cell) {
  beginRecord();
  try {
    encodeNode(g, 0);
  } catch (...) {
    rollbackRecord();
    throw;
  }
  commitRecord(userData, cell);
  // Staging a materialized Geometry into the arenas copies its payload;
  // the native parse/deserialize paths never pay this.
  util::perf::addBytesCopied(g.numVertices() * sizeof(Coord) + userData.size());
}

void GeometryBatch::encodeNode(const Geometry& g, int depth) {
  pushShape(static_cast<std::uint32_t>(g.type()));
  switch (g.type()) {
    case GeometryType::kPoint:
      pushCoord(g.pointCoord());
      break;
    case GeometryType::kLineString:
      pushShape(static_cast<std::uint32_t>(g.coords().size()));
      for (const auto& c : g.coords()) pushCoord(c);
      break;
    case GeometryType::kPolygon:
      pushShape(static_cast<std::uint32_t>(g.rings().size()));
      for (const auto& r : g.rings()) {
        pushShape(static_cast<std::uint32_t>(r.coords.size()));
        for (const auto& c : r.coords) pushCoord(c);
      }
      break;
    default:
      // The shard decoder's limit (skipShapeNode): a record it would
      // reject never enters the arenas.
      MVIO_CHECK(g.parts().empty() || depth < kMaxNestingDepth,
                 "geometry batch: geometry nested too deeply");
      pushShape(static_cast<std::uint32_t>(g.parts().size()));
      for (const auto& p : g.parts()) encodeNode(p, depth + 1);
      break;
  }
}

void GeometryBatch::appendRecordFrom(const GeometryBatch& src, std::size_t i, int cell) {
  MVIO_CHECK(i < src.size(), "appendRecordFrom: record index out of range");
  // Offset-based spans so the copy is safe even when &src == this (the
  // resize may reallocate; memcpy then runs inside the one new buffer,
  // and source/destination ranges never overlap because dst is at end).
  const std::size_t cb = src.coordBegin(i), ce = src.coordEnd_[i];
  const std::size_t sb = src.shapeBegin(i), se = src.shapeEnd_[i];
  const std::size_t ub = src.userBegin(i), ue = src.userEnd_[i];
  const std::uint8_t tag = src.tags_[i];
  const Envelope env = src.envelopes_[i];

  const std::size_t coordAt = coords_.size();
  coords_.resize(coordAt + (ce - cb));
  util::copyBytes(coords_.data() + coordAt, (this == &src ? coords_ : src.coords_).data() + cb,
                  (ce - cb) * sizeof(Coord));
  const std::size_t shapeAt = shape_.size();
  shape_.resize(shapeAt + (se - sb));
  util::copyBytes(shape_.data() + shapeAt, (this == &src ? shape_ : src.shape_).data() + sb,
                  (se - sb) * sizeof(std::uint32_t));
  const std::size_t userAt = userData_.size();
  userData_.resize(userAt + (ue - ub));
  util::copyBytes(userData_.data() + userAt, (this == &src ? userData_ : src.userData_).data() + ub,
                  ue - ub);

  tags_.push_back(tag);
  envelopes_.push_back(env);
  cells_.push_back(cell);
  coordEnd_.push_back(coords_.size());
  shapeEnd_.push_back(shape_.size());
  userEnd_.push_back(userData_.size());
}

void GeometryBatch::splice(const GeometryBatch& src) {
  MVIO_CHECK(!recordOpen_ && !src.recordOpen_, "splice with a record open");
  MVIO_CHECK(this != &src, "splice from self");
  const std::size_t coordBase = coords_.size();
  const std::size_t shapeBase = shape_.size();
  const std::size_t userBase = userData_.size();

  coords_.insert(coords_.end(), src.coords_.begin(), src.coords_.end());
  shape_.insert(shape_.end(), src.shape_.begin(), src.shape_.end());
  userData_.insert(userData_.end(), src.userData_.begin(), src.userData_.end());
  tags_.insert(tags_.end(), src.tags_.begin(), src.tags_.end());
  envelopes_.insert(envelopes_.end(), src.envelopes_.begin(), src.envelopes_.end());
  cells_.insert(cells_.end(), src.cells_.begin(), src.cells_.end());

  const std::size_t n = src.size();
  coordEnd_.reserve(coordEnd_.size() + n);
  shapeEnd_.reserve(shapeEnd_.size() + n);
  userEnd_.reserve(userEnd_.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    coordEnd_.push_back(src.coordEnd_[i] + coordBase);
    shapeEnd_.push_back(src.shapeEnd_[i] + shapeBase);
    userEnd_.push_back(src.userEnd_[i] + userBase);
  }
  util::perf::addBytesCopied(src.coords_.size() * sizeof(Coord) +
                             src.shape_.size() * sizeof(std::uint32_t) + src.userData_.size());
}

void GeometryBatch::splice(GeometryBatch&& src) {
  if (empty()) {
    MVIO_CHECK(!recordOpen_ && !src.recordOpen_, "splice with a record open");
    *this = std::move(src);
    return;
  }
  splice(src);
  src = GeometryBatch();
}

std::uint64_t GeometryBatch::memoryBytes() const {
  constexpr std::size_t perRecord = sizeof(std::uint8_t) + sizeof(Envelope) + sizeof(int) +
                                    3 * sizeof(std::size_t);
  return coords_.size() * sizeof(Coord) + shape_.size() * sizeof(std::uint32_t) +
         userData_.size() + size() * perRecord;
}

Geometry GeometryBatch::materialize(std::size_t i) const {
  MVIO_CHECK(i < size(), "materialize: record index out of range");
  ShapeCursor cur{shape_.data() + shapeBegin(i), shape_.data() + shapeEnd_[i],
                  coords_.data() + coordBegin(i), coords_.data() + coordEnd_[i]};
  Geometry g = decodeNode(cur);
  MVIO_CHECK(cur.s == cur.sEnd && cur.c == cur.cEnd, "materialize: record not fully consumed");
  const std::string_view user = userData(i);
  g.userData.assign(user.data(), user.size());
  return g;
}

std::size_t GeometryBatch::wkbSize(std::size_t i) const {
  ShapeCursor cur{shape_.data() + shapeBegin(i), shape_.data() + shapeEnd_[i],
                  coords_.data() + coordBegin(i), coords_.data() + coordEnd_[i]};
  return nodeWkbSize(cur);
}

char* GeometryBatch::writeWkbTo(std::size_t i, char* dst) const {
  ShapeCursor cur{shape_.data() + shapeBegin(i), shape_.data() + shapeEnd_[i],
                  coords_.data() + coordBegin(i), coords_.data() + coordEnd_[i]};
  return writeWkbNode(cur, dst);
}

void GeometryBatch::clear() {
  MVIO_CHECK(!recordOpen_, "clear with a record open");
  tags_.clear();
  envelopes_.clear();
  cells_.clear();
  coordEnd_.clear();
  shapeEnd_.clear();
  userEnd_.clear();
  coords_.clear();
  shape_.clear();
  userData_.clear();
}

void GeometryBatch::reserve(std::size_t records, std::size_t coords, std::size_t shapeTokens,
                            std::size_t userBytes) {
  tags_.reserve(tags_.size() + records);
  envelopes_.reserve(envelopes_.size() + records);
  cells_.reserve(cells_.size() + records);
  coordEnd_.reserve(coordEnd_.size() + records);
  shapeEnd_.reserve(shapeEnd_.size() + records);
  userEnd_.reserve(userEnd_.size() + records);
  coords_.reserve(coords_.size() + coords);
  shape_.reserve(shape_.size() + shapeTokens);
  userData_.reserve(userData_.size() + userBytes);
}

}  // namespace mvio::geom
