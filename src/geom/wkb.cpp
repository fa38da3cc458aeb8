#include "geom/wkb.hpp"

#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace mvio::geom {

namespace {

constexpr std::uint8_t kLittleEndian = 1;  // NDR
constexpr std::uint8_t kBigEndian = 0;     // XDR

static_assert(std::endian::native == std::endian::little,
              "WKB writer assumes a little-endian host");

template <typename T>
void appendRaw(std::string& out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.append(buf, sizeof(T));
}

struct Reader {
  const char* cur;
  const char* end;
  bool swap = false;

  [[noreturn]] void fail(const char* what) const { throw util::Error(std::string("WKB: ") + what, __FILE__, __LINE__); }

  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end - cur) < n) fail("truncated input");
  }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(*cur++);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, cur, 4);
    cur += 4;
    if (swap) v = __builtin_bswap32(v);
    return v;
  }

  double f64() {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, cur, 8);
    cur += 8;
    if (swap) v = __builtin_bswap64(v);
    double d;
    std::memcpy(&d, &v, 8);
    return d;
  }

  Coord coord() {
    const double x = f64();
    const double y = f64();
    return {x, y};
  }
};

/// Decode one node at nesting `depth` straight into the batch arenas (the
/// single copy of the WKB decode grammar; readWkb() materializes from a
/// scratch batch).
void readNodeInto(Reader& r, GeometryBatch& b, int depth) {
  const std::uint8_t order = r.u8();
  if (order != kLittleEndian && order != kBigEndian) r.fail("bad byte-order marker");
  r.swap = (order == kBigEndian);
  const std::uint32_t typeCode = r.u32();
  if (typeCode < 1 || typeCode > 7) r.fail("unsupported geometry type code");
  b.pushShape(typeCode);
  switch (static_cast<GeometryType>(typeCode)) {
    case GeometryType::kPoint:
      b.pushCoord(r.coord());
      return;
    case GeometryType::kLineString: {
      const std::uint32_t n = r.u32();
      if (n < 2) r.fail("LineString needs >= 2 coordinates");
      b.pushShape(n);
      for (std::uint32_t i = 0; i < n; ++i) b.pushCoord(r.coord());
      return;
    }
    case GeometryType::kPolygon: {
      const std::uint32_t nRings = r.u32();
      if (nRings == 0) r.fail("polygon without rings");
      b.pushShape(nRings);
      for (std::uint32_t ring = 0; ring < nRings; ++ring) {
        const std::uint32_t len = r.u32();
        if (len < 4) r.fail("bad polygon ring");
        b.pushShape(len);
        Coord first{}, last{};
        for (std::uint32_t i = 0; i < len; ++i) {
          const Coord c = r.coord();
          if (i == 0) first = c;
          last = c;
          b.pushCoord(c);
        }
        if (!(first == last)) r.fail("bad polygon ring");
      }
      return;
    }
    default: {
      const std::uint32_t nParts = r.u32();
      // Parts sit one level deeper: a non-empty node at the limit is
      // rejected (the WKT reader draws the same line).
      if (nParts > 0 && depth >= kMaxNestingDepth) r.fail("geometry nested too deeply");
      b.pushShape(nParts);
      for (std::uint32_t i = 0; i < nParts; ++i) {
        const bool savedSwap = r.swap;  // nested geometries carry their own marker
        readNodeInto(r, b, depth + 1);
        r.swap = savedSwap;
      }
      return;
    }
  }
}

void writeCoordSeq(std::string& out, const std::vector<Coord>& coords) {
  appendRaw(out, static_cast<std::uint32_t>(coords.size()));
  for (const auto& c : coords) {
    appendRaw(out, c.x);
    appendRaw(out, c.y);
  }
}

}  // namespace

void appendWkb(const Geometry& g, std::string& out) {
  appendRaw(out, kLittleEndian);
  appendRaw(out, static_cast<std::uint32_t>(g.type()));
  switch (g.type()) {
    case GeometryType::kPoint:
      appendRaw(out, g.pointCoord().x);
      appendRaw(out, g.pointCoord().y);
      break;
    case GeometryType::kLineString:
      writeCoordSeq(out, g.coords());
      break;
    case GeometryType::kPolygon:
      appendRaw(out, static_cast<std::uint32_t>(g.rings().size()));
      for (const auto& r : g.rings()) writeCoordSeq(out, r.coords);
      break;
    default:
      appendRaw(out, static_cast<std::uint32_t>(g.parts().size()));
      for (const auto& p : g.parts()) appendWkb(p, out);
      break;
  }
}

void appendWkb(const GeometryBatch& b, std::size_t i, std::string& out) {
  const std::size_t need = b.wkbSize(i);
  const std::size_t start = out.size();
  out.resize(start + need);
  char* end = b.writeWkbTo(i, out.data() + start);
  MVIO_CHECK(static_cast<std::size_t>(end - (out.data() + start)) == need,
             "batch WKB size mismatch");
}

std::string writeWkb(const Geometry& g) {
  std::string out;
  out.reserve(16 + g.numVertices() * 16);
  appendWkb(g, out);
  return out;
}

void readWkbInto(std::string_view bytes, std::string_view userData, GeometryBatch& out, int cell,
                 std::size_t* consumed) {
  Reader r{bytes.data(), bytes.data() + bytes.size(), false};
  out.beginRecord();
  try {
    readNodeInto(r, out, 0);
  } catch (...) {
    out.rollbackRecord();
    throw;
  }
  out.commitRecord(userData, cell);
  if (consumed != nullptr) *consumed = static_cast<std::size_t>(r.cur - bytes.data());
}

Geometry readWkb(std::string_view bytes, std::size_t* consumed) {
  thread_local GeometryBatch scratch;
  scratch.clear();
  readWkbInto(bytes, {}, scratch, 0, consumed);
  return scratch.materialize(0);
}

}  // namespace mvio::geom
