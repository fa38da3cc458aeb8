#include <algorithm>
#include <cmath>

#include "geom/geometry.hpp"
#include "util/error.hpp"

// Exact spatial predicates used by the refine phase. The filter phase works
// on envelopes only (Envelope::intersects); everything here is the "real
// geometry" test the paper runs after filtering.

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
    if (orientationSign(ring[i], ring[i + 1], p) == 0 && onSegment(ring[i], ring[i + 1], p)) {
      return true;
    }
  }
  return false;
}

namespace {

bool pointInPolygonRings(const Coord& p, const std::vector<Ring>& rings) {
  if (rings.empty() || !pointInRing(p, rings[0].coords)) return false;
  for (std::size_t i = 1; i < rings.size(); ++i) {
    // Inside a hole: only the hole boundary still counts as inside.
    if (pointInRing(p, rings[i].coords)) {
      for (std::size_t k = 0; k + 1 < rings[i].coords.size(); ++k) {
        const Coord& u = rings[i].coords[k];
        const Coord& v = rings[i].coords[k + 1];
        if (orientationSign(u, v, p) == 0 && onSegment(u, v, p)) return true;
      }
      return false;
    }
  }
  return true;
}

/// Visits every segment of the geometry's line work; returns true as soon
/// as `fn` returns true.
template <typename Fn>
bool anySegment(const Geometry& g, Fn&& fn) {
  switch (g.type()) {
    case GeometryType::kPoint:
      return false;
    case GeometryType::kLineString: {
      const auto& c = g.coords();
      for (std::size_t i = 0; i + 1 < c.size(); ++i) {
        if (fn(c[i], c[i + 1])) return true;
      }
      return false;
    }
    case GeometryType::kPolygon:
      for (const auto& r : g.rings()) {
        for (std::size_t i = 0; i + 1 < r.coords.size(); ++i) {
          if (fn(r.coords[i], r.coords[i + 1])) return true;
        }
      }
      return false;
    default:
      for (const auto& p : g.parts()) {
        if (anySegment(p, fn)) return true;
      }
      return false;
  }
}

/// Some representative vertex of the geometry (used for containment probes).
Coord firstVertex(const Geometry& g) {
  switch (g.type()) {
    case GeometryType::kPoint:
    case GeometryType::kLineString:
      MVIO_CHECK(!g.coords().empty(), "empty geometry has no vertex");
      return g.coords().front();
    case GeometryType::kPolygon:
      MVIO_CHECK(!g.rings().empty(), "empty polygon has no vertex");
      return g.rings().front().coords.front();
    default:
      MVIO_CHECK(!g.parts().empty(), "empty collection has no vertex");
      return firstVertex(g.parts().front());
  }
}

bool intersectsScalar(const Geometry& a, const Geometry& b);

bool polygonIntersectsScalar(const Geometry& poly, const Geometry& other) {
  // 1) Any boundary crossing? A segment whose box misses `other`'s
  // envelope can meet none of its segments or points.
  const Envelope& otherEnv = other.envelope();
  const bool boundaryHit = anySegment(poly, [&](const Coord& u, const Coord& v) {
    if (segmentMissesEnvelope(u, v, otherEnv)) return false;
    if (other.type() == GeometryType::kPoint) {
      return orientationSign(u, v, other.pointCoord()) == 0 && onSegment(u, v, other.pointCoord());
    }
    return anySegment(other, [&](const Coord& s, const Coord& t) { return segmentsIntersect(u, v, s, t); });
  });
  if (boundaryHit) return true;
  // 2) `other` entirely inside `poly`?
  if (!other.isEmpty() && pointInPolygonRings(firstVertex(other), poly.rings())) return true;
  // 3) `poly` entirely inside `other` (only possible if other is a polygon).
  if (other.type() == GeometryType::kPolygon && !poly.isEmpty() &&
      pointInPolygonRings(firstVertex(poly), other.rings())) {
    return true;
  }
  return false;
}

bool intersectsScalar(const Geometry& a, const Geometry& b) {
  // Dispatch so that the polygon (if any) is the first argument.
  if (a.type() == GeometryType::kPolygon) return polygonIntersectsScalar(a, b);
  if (b.type() == GeometryType::kPolygon) return polygonIntersectsScalar(b, a);

  if (a.type() == GeometryType::kPoint && b.type() == GeometryType::kPoint) {
    return a.pointCoord() == b.pointCoord();
  }
  if (a.type() == GeometryType::kPoint) {
    const Coord p = a.pointCoord();
    return anySegment(b, [&](const Coord& u, const Coord& v) {
      return orientationSign(u, v, p) == 0 && onSegment(u, v, p);
    });
  }
  if (b.type() == GeometryType::kPoint) return intersectsScalar(b, a);

  // LineString vs LineString.
  const Envelope& bEnv = b.envelope();
  return anySegment(a, [&](const Coord& u, const Coord& v) {
    if (segmentMissesEnvelope(u, v, bEnv)) return false;
    return anySegment(b, [&](const Coord& s, const Coord& t) { return segmentsIntersect(u, v, s, t); });
  });
}

}  // namespace

bool intersects(const Geometry& a, const Geometry& b) {
  if (a.isEmpty() || b.isEmpty()) return false;
  if (!a.envelope().intersects(b.envelope())) return false;
  if (a.isCollection()) {
    for (const auto& p : a.parts()) {
      if (intersects(p, b)) return true;
    }
    return false;
  }
  if (b.isCollection()) return intersects(b, a);
  return intersectsScalar(a, b);
}

bool containsPoint(const Geometry& polygon, const Coord& c) {
  switch (polygon.type()) {
    case GeometryType::kPolygon:
      return pointInPolygonRings(c, polygon.rings());
    case GeometryType::kMultiPolygon:
    case GeometryType::kGeometryCollection:
      for (const auto& p : polygon.parts()) {
        if (containsPoint(p, c)) return true;
      }
      return false;
    default:
      return false;
  }
}

bool contains(const Geometry& a, const Geometry& b) {
  if (a.isEmpty() || b.isEmpty()) return false;
  if (!a.envelope().contains(b.envelope())) return false;
  if (a.type() == GeometryType::kMultiPolygon || a.type() == GeometryType::kGeometryCollection) {
    // Sufficient condition: one part contains all of b. (Containment split
    // across parts of a multipolygon is not needed by the pipeline.)
    for (const auto& p : a.parts()) {
      if (contains(p, b)) return true;
    }
    return false;
  }
  MVIO_CHECK(a.type() == GeometryType::kPolygon, "contains() container must be polygonal");

  // Every vertex of b inside a, and no boundary crossing.
  if (b.type() == GeometryType::kPoint) return pointInPolygonRings(b.pointCoord(), a.rings());

  bool allInside = true;
  const auto checkVertex = [&](const Coord& c) {
    if (!pointInPolygonRings(c, a.rings())) allInside = false;
  };
  switch (b.type()) {
    case GeometryType::kLineString:
      for (const auto& c : b.coords()) checkVertex(c);
      break;
    case GeometryType::kPolygon:
      for (const auto& r : b.rings()) {
        for (const auto& c : r.coords) checkVertex(c);
      }
      break;
    default:
      for (const auto& p : b.parts()) {
        if (!contains(a, p)) return false;
      }
      return true;
  }
  if (!allInside) return false;

  // Reject boundary-crossing cases (vertices inside but an edge exits a hole
  // or the shell).
  const bool crossing = anySegment(a, [&](const Coord& u, const Coord& v) {
    return anySegment(b, [&](const Coord& s, const Coord& t) {
      if (!segmentsIntersect(u, v, s, t)) return false;
      // Touching the boundary is allowed; a proper crossing is not.
      const int d1 = orientationSign(u, v, s);
      const int d2 = orientationSign(u, v, t);
      return d1 * d2 < 0;
    });
  });
  return !crossing;
}

namespace {

double distanceScalar(const Geometry& a, const Geometry& b) {
  if (a.type() == GeometryType::kPoint && b.type() == GeometryType::kPoint) {
    return distance(a.pointCoord(), b.pointCoord());
  }
  if (a.type() == GeometryType::kPoint) {
    const Coord p = a.pointCoord();
    if (containsPoint(b, p)) return 0.0;
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

}  // namespace

double distance(const Geometry& a, const Geometry& b) {
  if (a.isEmpty() || b.isEmpty()) return std::numeric_limits<double>::max();
  if (intersects(a, b)) return 0.0;
  if (a.isCollection()) {
    double best = std::numeric_limits<double>::max();
    for (const auto& p : a.parts()) best = std::min(best, distance(p, b));
    return best;
  }
  if (b.isCollection()) return distance(b, a);
  return distanceScalar(a, b);
}

}  // namespace mvio::geom
