#pragma once
// Clipping against axis-aligned rectangles — the geometric core of
// grid-based overlay: every geometry replicated to a cell is clipped to
// that cell, and because the cells partition the plane, per-cell measures
// sum exactly to the geometry's global measure (no double counting of
// replicas).
//
//  * Polygon rings: Sutherland-Hodgman against the rectangle's four
//    half-planes (exact for convex clip regions).
//  * Segments: Liang-Barsky parametric clipping.

#include <optional>
#include <vector>

#include "geom/envelope.hpp"
#include "geom/geometry.hpp"

namespace mvio::geom {

/// Clip a closed ring to `rect`; returns the clipped ring's coordinates
/// (closed) or an empty vector when nothing remains.
std::vector<Coord> clipRingToRect(const std::vector<Coord>& ring, const Envelope& rect);
/// Span form for arena-resident rings (GeometryBatch coordinates).
std::vector<Coord> clipRingToRect(const Coord* ring, std::size_t n, const Envelope& rect);

/// Clip segment [a,b] to `rect`; returns the clipped endpoints or nullopt
/// when the segment misses the rectangle.
std::optional<std::pair<Coord, Coord>> clipSegmentToRect(const Coord& a, const Coord& b,
                                                         const Envelope& rect);

/// Area of `g` ∩ `rect` (polygonal types; holes subtract). 0 for others.
double clippedArea(const Geometry& g, const Envelope& rect);

/// Length of `g` ∩ `rect` (line work; polygon boundaries excluded). 0 for
/// points and polygons.
double clippedLength(const Geometry& g, const Envelope& rect);

/// Type-appropriate measure of `g` ∩ `rect`: area for polygonal types,
/// length for lines, inside-count for points. This is what the overlay
/// accumulates per cell.
double clippedMeasure(const Geometry& g, const Envelope& rect);

// Span primitives shared by the Geometry overloads above and the
// overlay's record walk (recordClippedMeasure in geom/predicates.cpp), so
// both paths run bit-identical arithmetic.

/// |area| of ring ∩ `rect` (Sutherland-Hodgman, then the shoelace formula).
double clippedRingArea(const Coord* ring, std::size_t n, const Envelope& rect);

/// Length of polyline ∩ `rect` (Liang-Barsky per segment).
double clippedPathLength(const Coord* path, std::size_t n, const Envelope& rect);

}  // namespace mvio::geom
