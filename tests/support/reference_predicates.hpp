#pragma once
// Test-only reference for the record predicate layer (geom/predicates.cpp):
// the Geometry-walking `intersects` / `contains` the refine layer ran
// before it moved onto GeometryBatch records, kept verbatim (recursive
// calls are qualified, and the file-local primitives repeated) so the
// tests can compare recordIntersects / recordContains against an
// implementation that shares only the segment and ring primitives with
// them. Header-only: tests/*.cpp each become a test binary, this
// directory does not.

#include <algorithm>

#include "geom/geometry.hpp"
#include "util/error.hpp"

namespace mvio::geom::reference {

namespace detail {

inline int orientationSign(const Coord& a, const Coord& b, const Coord& c) {
  const double v = cross(a, b, c);
  if (v > 0) return 1;
  if (v < 0) return -1;
  return 0;
}

inline bool onSegment(const Coord& a, const Coord& b, const Coord& p) {
  return std::min(a.x, b.x) <= p.x && p.x <= std::max(a.x, b.x) && std::min(a.y, b.y) <= p.y &&
         p.y <= std::max(a.y, b.y);
}

inline bool segmentMissesEnvelope(const Coord& u, const Coord& v, const Envelope& e) {
  return std::max(u.x, v.x) < e.minX() || std::min(u.x, v.x) > e.maxX() || std::max(u.y, v.y) < e.minY() ||
         std::min(u.y, v.y) > e.maxY();
}

inline bool pointInPolygonRings(const Coord& p, const std::vector<Ring>& rings) {
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
inline Coord firstVertex(const Geometry& g) {
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

inline bool intersectsScalar(const Geometry& a, const Geometry& b);

inline bool polygonIntersectsScalar(const Geometry& poly, const Geometry& other) {
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

inline bool intersectsScalar(const Geometry& a, const Geometry& b) {
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

}  // namespace detail

inline bool intersects(const Geometry& a, const Geometry& b) {
  if (a.isEmpty() || b.isEmpty()) return false;
  if (!a.envelope().intersects(b.envelope())) return false;
  if (a.isCollection()) {
    for (const auto& p : a.parts()) {
      if (reference::intersects(p, b)) return true;
    }
    return false;
  }
  if (b.isCollection()) return reference::intersects(b, a);
  return detail::intersectsScalar(a, b);
}

inline bool contains(const Geometry& a, const Geometry& b) {
  using namespace detail;
  if (a.isEmpty() || b.isEmpty()) return false;
  if (!a.envelope().contains(b.envelope())) return false;
  if (a.type() == GeometryType::kMultiPolygon || a.type() == GeometryType::kGeometryCollection) {
    // Sufficient condition: one part contains all of b. (Containment split
    // across parts of a multipolygon is not needed by the pipeline.)
    for (const auto& p : a.parts()) {
      if (reference::contains(p, b)) return true;
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
        if (!reference::contains(a, p)) return false;
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

}  // namespace mvio::geom::reference
