#pragma once
// Geometry model — the GEOS-subset substrate (see DESIGN.md §2).
//
// A single tagged class covers the seven OGC Simple Features types the
// paper's pipeline touches: Point, LineString, Polygon (shell + holes),
// MultiPoint, MultiLineString, MultiPolygon and GeometryCollection.
// A tagged value type (instead of a virtual hierarchy) keeps parsing,
// serialization over MPI buffers, and bulk storage in grid cells cheap:
// geometries are moved by value between partitioning stages millions at a
// time.
//
// As in GEOS, arbitrary application data rides along in `userData` — the
// paper stores the non-spatial attribute text of each record there.

#include <cstdint>
#include <string>
#include <vector>

#include "geom/coord.hpp"
#include "geom/envelope.hpp"

namespace mvio::geom {

enum class GeometryType : std::uint8_t {
  kPoint = 1,
  kLineString = 2,
  kPolygon = 3,
  kMultiPoint = 4,
  kMultiLineString = 5,
  kMultiPolygon = 6,
  kGeometryCollection = 7,
};

/// OGC name ("POLYGON", ...) for diagnostics and WKT output.
const char* typeName(GeometryType t);

/// Deepest part nesting the WKT and WKB decoders accept (GDAL's limit):
/// "POINT (1 2)" is depth 0, a collection holding it depth 1. A deeper
/// record is malformed. This bounds the decoders' recursion, so one
/// untrusted record cannot overflow the stack.
inline constexpr int kMaxNestingDepth = 32;

/// A closed ring of a polygon. `coords` repeats the first coordinate last.
struct Ring {
  std::vector<Coord> coords;
};

class Geometry {
 public:
  Geometry() : type_(GeometryType::kPoint), coords_{Coord{}} {}

  // ---- Factories -------------------------------------------------------
  static Geometry point(Coord c);
  static Geometry lineString(std::vector<Coord> coords);
  /// rings[0] is the shell; the rest are holes. Each ring must be closed
  /// (first == last) and have >= 4 coordinates.
  static Geometry polygon(std::vector<Ring> rings);
  static Geometry multi(GeometryType multiType, std::vector<Geometry> parts);
  /// An axis-aligned rectangle as a polygon (useful for queries).
  static Geometry box(const Envelope& e);

  // ---- Inspectors ------------------------------------------------------
  [[nodiscard]] GeometryType type() const { return type_; }
  [[nodiscard]] bool isCollection() const { return type_ >= GeometryType::kMultiPoint; }
  [[nodiscard]] bool isEmpty() const;

  /// Point coordinate (Point only).
  [[nodiscard]] const Coord& pointCoord() const;
  /// Vertex list (Point, LineString).
  [[nodiscard]] const std::vector<Coord>& coords() const { return coords_; }
  /// Rings (Polygon only); [0] is the shell.
  [[nodiscard]] const std::vector<Ring>& rings() const { return rings_; }
  /// Sub-geometries (Multi*/GeometryCollection only).
  [[nodiscard]] const std::vector<Geometry>& parts() const { return parts_; }

  /// Total number of coordinates, recursively.
  [[nodiscard]] std::size_t numVertices() const;

  /// Minimum bounding rectangle (computed once, cached).
  [[nodiscard]] const Envelope& envelope() const;

  /// Application payload carried with the geometry (attribute text etc.).
  std::string userData;

 private:
  GeometryType type_;
  std::vector<Coord> coords_;   // Point (1 entry), LineString
  std::vector<Ring> rings_;     // Polygon
  std::vector<Geometry> parts_; // Multi* / collection
  mutable Envelope cachedEnvelope_;
  mutable bool envelopeValid_ = false;

  void computeEnvelope() const;
};

// ---- Measures ----------------------------------------------------------

/// Planar area; polygons use the shoelace formula, holes subtract.
double area(const Geometry& g);
/// Total length of all line work (perimeter for polygons).
double length(const Geometry& g);
/// Arithmetic centroid of the vertex set (sufficient for partitioning).
Coord centroid(const Geometry& g);

// ---- Predicates (see predicates.cpp) ------------------------------------
// Thin wrappers: each encodes both arguments into a per-thread scratch
// GeometryBatch and runs the record predicate layer (recordIntersects /
// recordContains in geometry_batch.hpp), the code the refine phase runs.

/// True iff the geometries share at least one point (exact test).
bool intersects(const Geometry& a, const Geometry& b);
/// True iff every point of `b` lies in `a` (supported for polygon `a`).
bool contains(const Geometry& a, const Geometry& b);
/// Minimum distance between the two geometries (0 when intersecting).
double distance(const Geometry& a, const Geometry& b);

// ---- Segment primitives (shared with predicates and algorithms) ---------

/// True iff segments [a,b] and [c,d] share a point (inclusive of endpoints,
/// robust for collinear overlap).
bool segmentsIntersect(const Coord& a, const Coord& b, const Coord& c, const Coord& d);
/// Distance from point p to segment [a,b].
double pointSegmentDistance(const Coord& p, const Coord& a, const Coord& b);
/// Minimum distance between segments [a,b] and [c,d].
double segmentSegmentDistance(const Coord& a, const Coord& b, const Coord& c, const Coord& d);
/// Ray-cast point-in-ring test; boundary counts as inside.
bool pointInRing(const Coord& p, const std::vector<Coord>& ring);
/// Span form of pointInRing for arena-resident rings (no allocation).
bool pointInRing(const Coord& p, const Coord* ring, std::size_t n);
/// True iff `p` lies exactly on the closed ring's boundary.
bool pointOnRingBoundary(const Coord& p, const Coord* ring, std::size_t n);

}  // namespace mvio::geom
