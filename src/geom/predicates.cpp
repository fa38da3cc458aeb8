#include <algorithm>
#include <limits>

#include "geom/clip.hpp"
#include "geom/geometry.hpp"
#include "geom/geometry_batch.hpp"
#include "util/error.hpp"

// Exact spatial predicates used by the refine phase. The filter phase works
// on envelopes only (Envelope::intersects); everything here is the "real
// geometry" test the paper runs after filtering.
//
// One predicate layer: intersects / contains / distance are written once,
// over GeometryBatch records (a node's shape tokens plus its coordinate
// span), and every caller runs that code — the join refine on two arena
// records, the index (and the range query through it) on a record against
// the query box as a 5-vertex polygon node, and the Geometry API by
// encoding its arguments into a scratch batch. Every sign test goes through the segment and ring
// primitives below. The overlay's recordClippedMeasure walks records with
// the same cursor.

namespace mvio::geom {

namespace {

int orientationSign(const Coord& a, const Coord& b, const Coord& c) {
  const double v = cross(a, b, c);
  if (v > 0) return 1;
  if (v < 0) return -1;
  return 0;
}

bool onSegment(const Coord& a, const Coord& b, const Coord& p) {
  return std::min(a.x, b.x) <= p.x && p.x <= std::max(a.x, b.x) && std::min(a.y, b.y) <= p.y &&
         p.y <= std::max(a.y, b.y);
}

bool pointOnSegment(const Coord& u, const Coord& v, const Coord& p) {
  return orientationSign(u, v, p) == 0 && onSegment(u, v, p);
}

/// Segment uv's closed box misses `e`, so uv meets no segment or point
/// inside `e`.
bool segmentMissesEnvelope(const Coord& u, const Coord& v, const Envelope& e) {
  return std::max(u.x, v.x) < e.minX() || std::min(u.x, v.x) > e.maxX() || std::max(u.y, v.y) < e.minY() ||
         std::min(u.y, v.y) > e.maxY();
}

}  // namespace

bool segmentsIntersect(const Coord& a, const Coord& b, const Coord& c, const Coord& d) {
  // Two segments can only meet inside both boxes, so this rejects
  // exactly; it also keeps near-collinear pairs, whose orientation signs
  // are rounding noise, from passing the proper-crossing test below.
  if (segmentMissesEnvelope(a, b, Envelope(c.x, c.y, d.x, d.y))) return false;
  const int d1 = orientationSign(c, d, a);
  const int d2 = orientationSign(c, d, b);
  const int d3 = orientationSign(a, b, c);
  const int d4 = orientationSign(a, b, d);
  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) && ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))) {
    return true;
  }
  if (d1 == 0 && onSegment(c, d, a)) return true;
  if (d2 == 0 && onSegment(c, d, b)) return true;
  if (d3 == 0 && onSegment(a, b, c)) return true;
  if (d4 == 0 && onSegment(a, b, d)) return true;
  return false;
}

double pointSegmentDistance(const Coord& p, const Coord& a, const Coord& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double len2 = dx * dx + dy * dy;
  if (len2 == 0.0) return distance(p, a);
  double t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return distance(p, Coord{a.x + t * dx, a.y + t * dy});
}

double segmentSegmentDistance(const Coord& a, const Coord& b, const Coord& c, const Coord& d) {
  if (segmentsIntersect(a, b, c, d)) return 0.0;
  return std::min(std::min(pointSegmentDistance(a, c, d), pointSegmentDistance(b, c, d)),
                  std::min(pointSegmentDistance(c, a, b), pointSegmentDistance(d, a, b)));
}

bool pointInRing(const Coord& p, const std::vector<Coord>& ring) {
  return pointInRing(p, ring.data(), ring.size());
}

bool pointInRing(const Coord& p, const Coord* ring, std::size_t n) {
  // Boundary counts as inside (OGC "intersects" semantics for our usage).
  if (pointOnRingBoundary(p, ring, n)) return true;
  bool inside = false;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Coord& u = ring[i];
    const Coord& v = ring[i + 1];
    if ((u.y > p.y) != (v.y > p.y)) {
      const double xCross = u.x + (p.y - u.y) / (v.y - u.y) * (v.x - u.x);
      if (p.x < xCross) inside = !inside;
    }
  }
  return inside;
}

bool pointOnRingBoundary(const Coord& p, const Coord* ring, std::size_t n) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (pointOnSegment(ring[i], ring[i + 1], p)) return true;
  }
  return false;
}

namespace {

// ---- Nodes: one (sub)geometry of a record, read in place ------------------

/// Checked read-once cursor over a shape stream and its coordinates.
struct Cursor {
  const std::uint32_t* s;
  const std::uint32_t* sEnd;
  const Coord* c;
  const Coord* cEnd;

  std::uint32_t token() {
    MVIO_CHECK(s < sEnd, "record walk: shape stream underrun");
    return *s++;
  }
  const Coord* take(std::size_t n) {
    MVIO_CHECK(static_cast<std::size_t>(cEnd - c) >= n, "record walk: coord arena underrun");
    const Coord* first = c;
    c += n;
    return first;
  }
  /// Step over one whole node.
  void skipNode() {
    const std::uint32_t t = token();
    switch (static_cast<GeometryType>(t)) {
      case GeometryType::kPoint:
        take(1);
        return;
      case GeometryType::kLineString:
        take(token());
        return;
      case GeometryType::kPolygon: {
        const std::uint32_t nRings = token();
        for (std::uint32_t r = 0; r < nRings; ++r) take(token());
        return;
      }
      default: {
        MVIO_CHECK(t >= 4 && t <= 7, "record walk: bad type tag in shape stream");
        const std::uint32_t nParts = token();
        for (std::uint32_t p = 0; p < nParts; ++p) skipNode();
        return;
      }
    }
  }
};

/// A node's shape tokens (s[0] is its type tag) and its coordinate span,
/// plus its envelope — the Geometry::envelope() of the same node. A node's
/// extents are checked when it is made (recordNode / anyPart), so the
/// walks below index within them freely.
struct Node {
  const std::uint32_t* s;
  const std::uint32_t* sEnd;
  const Coord* c;
  const Coord* cEnd;
  Envelope env;

  [[nodiscard]] GeometryType type() const { return static_cast<GeometryType>(s[0]); }
  [[nodiscard]] bool isCollection() const { return type() >= GeometryType::kMultiPoint; }
  /// Geometry::isEmpty(): a collection without parts, a scalar without
  /// coordinates.
  [[nodiscard]] bool isEmpty() const { return isCollection() ? s[1] == 0 : c == cEnd; }
  /// Point coordinate (Point), or the first vertex (the containment probe).
  [[nodiscard]] const Coord& firstVertex() const { return c[0]; }
};

/// Record `i`'s shape stream and coordinate span.
Cursor recordCursor(const GeometryBatch& b, std::size_t i) {
  MVIO_CHECK(i < b.size(), "record walk: record index out of range");
  return {b.shapeOf(i), b.shapeOf(i) + b.shapeTokenCount(i), b.coordsOf(i),
          b.coordsOf(i) + b.vertexCount(i)};
}

Node recordNode(const GeometryBatch& b, std::size_t i) {
  Cursor cur = recordCursor(b, i);
  const Node n{cur.s, cur.sEnd, cur.c, cur.cEnd, b.envelope(i)};
  cur.skipNode();
  MVIO_CHECK(cur.s == n.sEnd && cur.c == n.cEnd, "record walk: record not fully consumed");
  return n;
}

/// Calls fn(part) for each part of collection `n`, in order, until it
/// returns true. A part has no stored envelope; it is computed from the
/// part's coordinate span as the walk reaches it.
template <typename Fn>
bool anyPart(const Node& n, Fn&& fn) {
  Cursor cur{n.s + 2, n.sEnd, n.c, n.cEnd};
  for (std::uint32_t p = 0; p < n.s[1]; ++p) {
    Node part{cur.s, nullptr, cur.c, nullptr, {}};
    cur.skipNode();
    part.sEnd = cur.s;
    part.cEnd = cur.c;
    for (const Coord* v = part.c; v != part.cEnd; ++v) part.env.expandToInclude(*v);
    if (fn(part)) return true;
  }
  return false;
}

/// Calls fn(u, v) for every segment of scalar `n`'s line work until it
/// returns true (a point has none).
template <typename Fn>
bool anySegment(const Node& n, Fn&& fn) {
  const auto path = [&](const Coord* c, std::size_t len) {
    for (std::size_t i = 0; i + 1 < len; ++i) {
      if (fn(c[i], c[i + 1])) return true;
    }
    return false;
  };
  switch (n.type()) {
    case GeometryType::kLineString:
      return path(n.c, static_cast<std::size_t>(n.cEnd - n.c));
    case GeometryType::kPolygon: {
      const Coord* ring = n.c;
      for (std::uint32_t r = 0; r < n.s[1]; ++r) {
        if (path(ring, n.s[2 + r])) return true;
        ring += n.s[2 + r];
      }
      return false;
    }
    default:
      return false;
  }
}

/// `p` in polygon `n`: inside the shell and not strictly inside any hole
/// (a hole's boundary still counts as inside).
bool pointInPolygon(const Coord& p, const Node& n) {
  const std::uint32_t nRings = n.s[1];
  if (nRings == 0 || !pointInRing(p, n.c, n.s[2])) return false;
  const Coord* ring = n.c + n.s[2];
  for (std::uint32_t r = 1; r < nRings; ++r) {
    const std::uint32_t len = n.s[2 + r];
    if (pointInRing(p, ring, len)) return pointOnRingBoundary(p, ring, len);
    ring += len;
  }
  return true;
}

// ---- intersects ------------------------------------------------------------

bool polygonIntersectsScalar(const Node& poly, const Node& other) {
  // 1) Any boundary crossing? A segment whose box misses `other`'s
  // envelope can meet none of its segments or points.
  const bool boundaryHit = anySegment(poly, [&](const Coord& u, const Coord& v) {
    if (segmentMissesEnvelope(u, v, other.env)) return false;
    if (other.type() == GeometryType::kPoint) return pointOnSegment(u, v, other.firstVertex());
    return anySegment(other, [&](const Coord& s, const Coord& t) { return segmentsIntersect(u, v, s, t); });
  });
  if (boundaryHit) return true;
  // 2) `other` entirely inside `poly`?
  if (!other.isEmpty() && pointInPolygon(other.firstVertex(), poly)) return true;
  // 3) `poly` entirely inside `other` (only possible if other is a polygon).
  return other.type() == GeometryType::kPolygon && !poly.isEmpty() &&
         pointInPolygon(poly.firstVertex(), other);
}

bool intersectsScalar(const Node& a, const Node& b) {
  // Dispatch so that the polygon (if any) is the first argument.
  if (a.type() == GeometryType::kPolygon) return polygonIntersectsScalar(a, b);
  if (b.type() == GeometryType::kPolygon) return polygonIntersectsScalar(b, a);

  if (a.type() == GeometryType::kPoint && b.type() == GeometryType::kPoint) {
    return a.firstVertex() == b.firstVertex();
  }
  if (a.type() == GeometryType::kPoint) {
    const Coord& p = a.firstVertex();
    return anySegment(b, [&](const Coord& u, const Coord& v) { return pointOnSegment(u, v, p); });
  }
  if (b.type() == GeometryType::kPoint) return intersectsScalar(b, a);

  // LineString vs LineString.
  return anySegment(a, [&](const Coord& u, const Coord& v) {
    if (segmentMissesEnvelope(u, v, b.env)) return false;
    return anySegment(b, [&](const Coord& s, const Coord& t) { return segmentsIntersect(u, v, s, t); });
  });
}

bool nodeIntersects(const Node& a, const Node& b) {
  if (a.isEmpty() || b.isEmpty()) return false;
  if (!a.env.intersects(b.env)) return false;
  if (a.isCollection()) return anyPart(a, [&](const Node& p) { return nodeIntersects(p, b); });
  if (b.isCollection()) return nodeIntersects(b, a);
  return intersectsScalar(a, b);
}

// ---- contains --------------------------------------------------------------

bool nodeContains(const Node& a, const Node& b) {
  if (a.isEmpty() || b.isEmpty()) return false;
  // At every level this test decides, not only filters: it is what turns a
  // non-polygonal collection part away before the check below.
  if (!a.env.contains(b.env)) return false;
  if (a.type() == GeometryType::kMultiPolygon || a.type() == GeometryType::kGeometryCollection) {
    // Sufficient condition: one part contains all of b. (Containment split
    // across parts of a multipolygon is not needed by the pipeline.)
    return anyPart(a, [&](const Node& p) { return nodeContains(p, b); });
  }
  MVIO_CHECK(a.type() == GeometryType::kPolygon, "contains() container must be polygonal");

  // Every vertex of b inside a, and no boundary crossing.
  switch (b.type()) {
    case GeometryType::kPoint:
      return pointInPolygon(b.firstVertex(), a);
    case GeometryType::kLineString:
    case GeometryType::kPolygon:
      for (const Coord* v = b.c; v != b.cEnd; ++v) {
        if (!pointInPolygon(*v, a)) return false;
      }
      break;
    default:
      return !anyPart(b, [&](const Node& p) { return !nodeContains(a, p); });
  }

  // Reject boundary-crossing cases (vertices inside but an edge exits a hole
  // or the shell).
  const bool crossing = anySegment(a, [&](const Coord& u, const Coord& v) {
    return anySegment(b, [&](const Coord& s, const Coord& t) {
      if (!segmentsIntersect(u, v, s, t)) return false;
      // Touching the boundary is allowed; a proper crossing is not.
      return orientationSign(u, v, s) * orientationSign(u, v, t) < 0;
    });
  });
  return !crossing;
}

// ---- distance --------------------------------------------------------------

double distanceScalar(const Node& a, const Node& b) {
  if (a.type() == GeometryType::kPoint && b.type() == GeometryType::kPoint) {
    return distance(a.firstVertex(), b.firstVertex());
  }
  if (a.type() == GeometryType::kPoint) {
    const Coord& p = a.firstVertex();
    if (b.type() == GeometryType::kPolygon && pointInPolygon(p, b)) return 0.0;
    double best = std::numeric_limits<double>::max();
    anySegment(b, [&](const Coord& u, const Coord& v) {
      best = std::min(best, pointSegmentDistance(p, u, v));
      return false;
    });
    return best;
  }
  if (b.type() == GeometryType::kPoint) return distanceScalar(b, a);

  double best = std::numeric_limits<double>::max();
  anySegment(a, [&](const Coord& u, const Coord& v) {
    anySegment(b, [&](const Coord& s, const Coord& t) {
      best = std::min(best, segmentSegmentDistance(u, v, s, t));
      return best == 0.0;
    });
    return best == 0.0;
  });
  return best;
}

double nodeDistance(const Node& a, const Node& b) {
  if (a.isEmpty() || b.isEmpty()) return std::numeric_limits<double>::max();
  if (nodeIntersects(a, b)) return 0.0;
  if (a.isCollection()) {
    double best = std::numeric_limits<double>::max();
    anyPart(a, [&](const Node& p) {
      best = std::min(best, nodeDistance(p, b));
      return false;
    });
    return best;
  }
  if (b.isCollection()) return nodeDistance(b, a);
  return distanceScalar(a, b);
}

// ---- clipped measure -------------------------------------------------------

/// clippedMeasure()'s type dispatch (clip.cpp), one node at a time over the
/// same clipping kernels, so the two agree exactly. Always consumes the
/// node fully (measures accumulate across collection parts).
double nodeClippedMeasure(Cursor& cur, const Envelope& rect) {
  const std::uint32_t t = cur.token();
  switch (static_cast<GeometryType>(t)) {
    case GeometryType::kPoint:
      return rect.contains(*cur.take(1)) ? 1.0 : 0.0;
    case GeometryType::kLineString: {
      const std::uint32_t n = cur.token();
      return clippedPathLength(cur.take(n), n, rect);
    }
    case GeometryType::kPolygon: {
      const std::uint32_t nRings = cur.token();
      if (nRings == 0) return 0.0;
      double a = 0;
      for (std::uint32_t r = 0; r < nRings; ++r) {
        const std::uint32_t len = cur.token();
        const Coord* rc = cur.take(len);
        const double ringArea = clippedRingArea(rc, len, rect);
        a += (r == 0) ? ringArea : -ringArea;  // shell adds, holes subtract
      }
      return std::max(a, 0.0);
    }
    default: {  // MULTI* / GEOMETRYCOLLECTION: measures sum over parts
      const std::uint32_t nParts = cur.token();
      double m = 0;
      for (std::uint32_t p = 0; p < nParts; ++p) m += nodeClippedMeasure(cur, rect);
      return m;
    }
  }
}

/// Encodes `a` and `b` as records 0 and 1 of this thread's scratch batch
/// (its arenas are reused, so a warm call does not allocate).
const GeometryBatch& scratchPair(const Geometry& a, const Geometry& b) {
  thread_local GeometryBatch scratch;
  scratch.clear();
  scratch.append(a, std::string_view());
  scratch.append(b, std::string_view());
  return scratch;
}

}  // namespace

// Each entry point takes the node layer's first envelope test on the arena
// envelopes before it walks a record (an empty record's envelope is null,
// so the answer is the same).

bool recordIntersects(const GeometryBatch& a, std::size_t i, const GeometryBatch& b, std::size_t j) {
  MVIO_CHECK(i < a.size() && j < b.size(), "recordIntersects: record index out of range");
  if (!a.envelope(i).intersects(b.envelope(j))) return false;
  return nodeIntersects(recordNode(a, i), recordNode(b, j));
}

bool recordContains(const GeometryBatch& a, std::size_t i, const GeometryBatch& b, std::size_t j) {
  MVIO_CHECK(i < a.size() && j < b.size(), "recordContains: record index out of range");
  if (!a.envelope(i).contains(b.envelope(j))) return false;
  return nodeContains(recordNode(a, i), recordNode(b, j));
}

bool recordIntersectsBox(const GeometryBatch& b, std::size_t i, const Envelope& box) {
  MVIO_CHECK(i < b.size(), "recordIntersectsBox: record index out of range");
  if (box.isNull() || !b.envelope(i).intersects(box)) return false;
  // The box as a one-ring polygon node, in Geometry::box() vertex order.
  static constexpr std::uint32_t kBoxShape[] = {static_cast<std::uint32_t>(GeometryType::kPolygon), 1, 5};
  const Coord ring[5] = {{box.minX(), box.minY()},
                         {box.maxX(), box.minY()},
                         {box.maxX(), box.maxY()},
                         {box.minX(), box.maxY()},
                         {box.minX(), box.minY()}};
  const Node boxNode{kBoxShape, kBoxShape + 3, ring, ring + 5, box};
  return nodeIntersects(boxNode, recordNode(b, i));
}

double recordClippedMeasure(const GeometryBatch& b, std::size_t i, const Envelope& rect) {
  MVIO_CHECK(i < b.size(), "recordClippedMeasure: record index out of range");
  if (rect.isNull() || !b.envelope(i).intersects(rect)) return 0.0;
  Cursor cur = recordCursor(b, i);
  return nodeClippedMeasure(cur, rect);
}

bool intersects(const Geometry& a, const Geometry& b) {
  const GeometryBatch& s = scratchPair(a, b);
  return recordIntersects(s, 0, s, 1);
}

bool contains(const Geometry& a, const Geometry& b) {
  const GeometryBatch& s = scratchPair(a, b);
  return recordContains(s, 0, s, 1);
}

double distance(const Geometry& a, const Geometry& b) {
  const GeometryBatch& s = scratchPair(a, b);
  return nodeDistance(recordNode(s, 0), recordNode(s, 1));
}

}  // namespace mvio::geom
