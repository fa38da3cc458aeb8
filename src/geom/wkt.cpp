#include "geom/wkt.hpp"

#include <cstdio>
#include <cstring>

#include "util/decimal.hpp"
#include "util/error.hpp"

namespace mvio::geom {

namespace {

// ASCII class tests. WKT keywords and numbers are ASCII, and the <cctype>
// forms consult the C locale on every call.
bool isAsciiAlpha(char c) { return static_cast<unsigned char>((c | 0x20) - 'a') < 26; }
char asciiUpper(char c) { return static_cast<unsigned char>(c - 'a') < 26 ? static_cast<char>(c - 0x20) : c; }

/// Cursor over the WKT text. All scanning helpers skip leading whitespace.
struct Scanner {
  const char* cur;
  const char* end;
  const char* begin;

  [[noreturn]] void fail(const std::string& what) const {
    throw util::Error("WKT parse error at byte " + std::to_string(cur - begin) + ": " + what, __FILE__,
                      __LINE__);
  }

  void skipSpace() {
    while (cur < end && (*cur == ' ' || *cur == '\t' || *cur == '\r' || *cur == '\n')) ++cur;
  }

  bool atEnd() {
    skipSpace();
    return cur >= end;
  }

  bool consume(char c) {
    skipSpace();
    if (cur < end && *cur == c) {
      ++cur;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  /// Allocation-free case-insensitive keyword scan: [A-Za-z]+. Returns the
  /// raw slice; compare with kwIs().
  std::string_view keyword() {
    skipSpace();
    const char* start = cur;
    while (cur < end && isAsciiAlpha(*cur)) ++cur;
    if (cur == start) fail("expected keyword");
    return {start, static_cast<std::size_t>(cur - start)};
  }

  double number() {
    skipSpace();
    double value = 0;
    const auto [ptr, ec] = util::parseDouble(cur, end, value);
    if (ec != std::errc()) fail("expected number");
    cur = ptr;
    return value;
  }

  Coord coord() {
    const double x = number();
    const double y = number();
    // A third ordinate would mean Z/M data, which we do not support.
    skipSpace();
    if (cur < end && (*cur == '-' || *cur == '+' || util::isAsciiDigit(*cur))) {
      fail("3D/measured coordinates are not supported");
    }
    return {x, y};
  }

  bool consumeEmpty() {
    skipSpace();
    static constexpr std::string_view kEmpty = "EMPTY";
    if (static_cast<std::size_t>(end - cur) >= kEmpty.size()) {
      bool match = true;
      for (std::size_t i = 0; i < kEmpty.size(); ++i) {
        if (asciiUpper(cur[i]) != kEmpty[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        cur += kEmpty.size();
        return true;
      }
    }
    return false;
  }
};

/// Case-insensitive keyword comparison against an upper-case literal.
bool kwIs(std::string_view kw, std::string_view upper) {
  if (kw.size() != upper.size()) return false;
  for (std::size_t i = 0; i < kw.size(); ++i) {
    if (asciiUpper(kw[i]) != upper[i]) return false;
  }
  return true;
}

// The reader parses straight into GeometryBatch arenas (the zero-copy
// bulk path); readWkt() materializes a one-record scratch batch, so both
// entry points share one grammar. Counts are emitted as shape tokens with
// a placeholder that is patched once the sequence has been scanned.

/// "( c, c, ... )" into the arena; pushes a count token first. Returns the
/// coordinate count.
std::uint32_t coordSequenceInto(Scanner& s, GeometryBatch& b) {
  s.expect('(');
  const std::size_t countAt = b.pushShape(0);
  std::uint32_t n = 0;
  do {
    b.pushCoord(s.coord());
    ++n;
  } while (s.consume(','));
  s.expect(')');
  b.patchShape(countAt, n);
  return n;
}

/// One closed ring (>= 4 coords, first == last) into the arena.
void ringInto(Scanner& s, GeometryBatch& b) {
  s.expect('(');
  const std::size_t countAt = b.pushShape(0);
  std::uint32_t n = 0;
  Coord first{}, last{};
  do {
    const Coord c = s.coord();
    if (n == 0) first = c;
    last = c;
    b.pushCoord(c);
    ++n;
  } while (s.consume(','));
  s.expect(')');
  if (n < 4) s.fail("polygon ring needs >= 4 coordinates");
  if (!(first == last)) s.fail("polygon ring is not closed");
  b.patchShape(countAt, n);
}

void polygonBodyInto(Scanner& s, GeometryBatch& b) {
  s.expect('(');
  const std::size_t ringCountAt = b.pushShape(0);
  std::uint32_t nRings = 0;
  do {
    ringInto(s, b);
    ++nRings;
  } while (s.consume(','));
  s.expect(')');
  b.patchShape(ringCountAt, nRings);
}

void emptyNodeInto(GeometryBatch& b, GeometryType type) {
  b.pushShape(static_cast<std::uint32_t>(type));
  b.pushShape(0);  // zero parts
}

/// Open a non-empty multi-part node at nesting `depth`: its parts sit one
/// level deeper, so a node at kMaxNestingDepth is rejected. Returns the
/// part-count placeholder to patch once the parts are scanned.
std::size_t openPartsInto(Scanner& s, GeometryBatch& b, GeometryType type, int depth) {
  if (depth >= kMaxNestingDepth) s.fail("geometry nested too deeply");
  b.pushShape(static_cast<std::uint32_t>(type));
  s.expect('(');
  return b.pushShape(0);
}

void parseNodeInto(Scanner& s, GeometryBatch& b, int depth);

void parseTypedInto(Scanner& s, std::string_view type, GeometryBatch& b, int depth) {
  if (kwIs(type, "POINT")) {
    if (s.consumeEmpty()) return emptyNodeInto(b, GeometryType::kGeometryCollection);
    b.pushShape(static_cast<std::uint32_t>(GeometryType::kPoint));
    s.expect('(');
    b.pushCoord(s.coord());
    s.expect(')');
    return;
  }
  if (kwIs(type, "LINESTRING")) {
    if (s.consumeEmpty()) return emptyNodeInto(b, GeometryType::kGeometryCollection);
    b.pushShape(static_cast<std::uint32_t>(GeometryType::kLineString));
    if (coordSequenceInto(s, b) < 2) s.fail("LINESTRING needs >= 2 coordinates");
    return;
  }
  if (kwIs(type, "POLYGON")) {
    if (s.consumeEmpty()) return emptyNodeInto(b, GeometryType::kGeometryCollection);
    b.pushShape(static_cast<std::uint32_t>(GeometryType::kPolygon));
    polygonBodyInto(s, b);
    return;
  }
  if (kwIs(type, "MULTIPOINT")) {
    if (s.consumeEmpty()) return emptyNodeInto(b, GeometryType::kMultiPoint);
    const std::size_t partCountAt = openPartsInto(s, b, GeometryType::kMultiPoint, depth);
    std::uint32_t nParts = 0;
    do {
      // Both "MULTIPOINT ((1 2), (3 4))" and "MULTIPOINT (1 2, 3 4)" occur
      // in the wild; accept either.
      b.pushShape(static_cast<std::uint32_t>(GeometryType::kPoint));
      if (s.consume('(')) {
        b.pushCoord(s.coord());
        s.expect(')');
      } else {
        b.pushCoord(s.coord());
      }
      ++nParts;
    } while (s.consume(','));
    s.expect(')');
    b.patchShape(partCountAt, nParts);
    return;
  }
  if (kwIs(type, "MULTILINESTRING")) {
    if (s.consumeEmpty()) return emptyNodeInto(b, GeometryType::kMultiLineString);
    const std::size_t partCountAt = openPartsInto(s, b, GeometryType::kMultiLineString, depth);
    std::uint32_t nParts = 0;
    do {
      b.pushShape(static_cast<std::uint32_t>(GeometryType::kLineString));
      if (coordSequenceInto(s, b) < 2) s.fail("LINESTRING needs >= 2 coordinates");
      ++nParts;
    } while (s.consume(','));
    s.expect(')');
    b.patchShape(partCountAt, nParts);
    return;
  }
  if (kwIs(type, "MULTIPOLYGON")) {
    if (s.consumeEmpty()) return emptyNodeInto(b, GeometryType::kMultiPolygon);
    const std::size_t partCountAt = openPartsInto(s, b, GeometryType::kMultiPolygon, depth);
    std::uint32_t nParts = 0;
    do {
      b.pushShape(static_cast<std::uint32_t>(GeometryType::kPolygon));
      polygonBodyInto(s, b);
      ++nParts;
    } while (s.consume(','));
    s.expect(')');
    b.patchShape(partCountAt, nParts);
    return;
  }
  if (kwIs(type, "GEOMETRYCOLLECTION")) {
    if (s.consumeEmpty()) return emptyNodeInto(b, GeometryType::kGeometryCollection);
    const std::size_t partCountAt = openPartsInto(s, b, GeometryType::kGeometryCollection, depth);
    std::uint32_t nParts = 0;
    do {
      parseNodeInto(s, b, depth + 1);
      ++nParts;
    } while (s.consume(','));
    s.expect(')');
    b.patchShape(partCountAt, nParts);
    return;
  }
  s.fail("unknown geometry type: " + std::string(type));
}

void parseNodeInto(Scanner& s, GeometryBatch& b, int depth) {
  parseTypedInto(s, s.keyword(), b, depth);
}

void writeCoord(std::string& out, const Coord& c, int precision) {
  char buf[64];
  int n = std::snprintf(buf, sizeof buf, "%.*g %.*g", precision, c.x, precision, c.y);
  out.append(buf, static_cast<std::size_t>(n));
}

void writeCoordSeq(std::string& out, const std::vector<Coord>& coords, int precision) {
  out.push_back('(');
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (i) out.append(", ");
    writeCoord(out, coords[i], precision);
  }
  out.push_back(')');
}

void writeBody(std::string& out, const Geometry& g, int precision);

void writeTagged(std::string& out, const Geometry& g, int precision) {
  out.append(typeName(g.type()));
  out.push_back(' ');
  writeBody(out, g, precision);
}

void writeBody(std::string& out, const Geometry& g, int precision) {
  if (g.isEmpty()) {
    out.append("EMPTY");
    return;
  }
  switch (g.type()) {
    case GeometryType::kPoint:
      out.push_back('(');
      writeCoord(out, g.pointCoord(), precision);
      out.push_back(')');
      break;
    case GeometryType::kLineString:
      writeCoordSeq(out, g.coords(), precision);
      break;
    case GeometryType::kPolygon: {
      out.push_back('(');
      for (std::size_t i = 0; i < g.rings().size(); ++i) {
        if (i) out.append(", ");
        writeCoordSeq(out, g.rings()[i].coords, precision);
      }
      out.push_back(')');
      break;
    }
    case GeometryType::kMultiPoint: {
      out.push_back('(');
      for (std::size_t i = 0; i < g.parts().size(); ++i) {
        if (i) out.append(", ");
        out.push_back('(');
        writeCoord(out, g.parts()[i].pointCoord(), precision);
        out.push_back(')');
      }
      out.push_back(')');
      break;
    }
    case GeometryType::kMultiLineString: {
      out.push_back('(');
      for (std::size_t i = 0; i < g.parts().size(); ++i) {
        if (i) out.append(", ");
        writeCoordSeq(out, g.parts()[i].coords(), precision);
      }
      out.push_back(')');
      break;
    }
    case GeometryType::kMultiPolygon: {
      out.push_back('(');
      for (std::size_t i = 0; i < g.parts().size(); ++i) {
        if (i) out.append(", ");
        const auto& poly = g.parts()[i];
        out.push_back('(');
        for (std::size_t r = 0; r < poly.rings().size(); ++r) {
          if (r) out.append(", ");
          writeCoordSeq(out, poly.rings()[r].coords, precision);
        }
        out.push_back(')');
      }
      out.push_back(')');
      break;
    }
    case GeometryType::kGeometryCollection: {
      out.push_back('(');
      for (std::size_t i = 0; i < g.parts().size(); ++i) {
        if (i) out.append(", ");
        writeTagged(out, g.parts()[i], precision);
      }
      out.push_back(')');
      break;
    }
  }
}

}  // namespace

void readWktInto(std::string_view text, std::string_view userData, GeometryBatch& out, int cell) {
  Scanner s{text.data(), text.data() + text.size(), text.data()};
  out.beginRecord();
  try {
    parseNodeInto(s, out, 0);
    if (!s.atEnd()) s.fail("trailing characters after geometry");
  } catch (...) {
    out.rollbackRecord();
    throw;
  }
  out.commitRecord(userData, cell);
}

Geometry readWkt(std::string_view text) {
  thread_local GeometryBatch scratch;
  scratch.clear();
  readWktInto(text, {}, scratch);
  return scratch.materialize(0);
}

bool tryReadWkt(std::string_view text, Geometry& out, std::string* error) {
  try {
    out = readWkt(text);
    return true;
  } catch (const util::Error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

std::string writeWkt(const Geometry& g, int precision) {
  MVIO_CHECK(precision >= 1 && precision <= 17, "precision must be in [1,17]");
  std::string out;
  out.reserve(32 + g.numVertices() * 20);
  writeTagged(out, g, precision);
  return out;
}

}  // namespace mvio::geom
