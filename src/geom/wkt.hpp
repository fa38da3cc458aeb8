#pragma once
// Well-Known Text reader and writer (OGC 99-049 subset, 2D).
//
// This is the hot path of the paper's parsing phase: every record of a WKT
// dataset goes through readWkt() once per run. The reader is a hand-written
// recursive-descent scanner over the input bytes using std::from_chars for
// coordinates; it allocates only the output geometry.
//
// Supported: POINT, LINESTRING, POLYGON, MULTIPOINT (with or without
// per-point parentheses), MULTILINESTRING, MULTIPOLYGON,
// GEOMETRYCOLLECTION, and EMPTY for all of them. Z/M ordinates are
// rejected (the pipeline is 2D, matching the paper's OSM data), and so is
// nesting deeper than kMaxNestingDepth.

#include <string>
#include <string_view>

#include "geom/geometry.hpp"
#include "geom/geometry_batch.hpp"

namespace mvio::geom {

/// Parse one WKT geometry. Leading/trailing whitespace is ignored.
/// Throws util::Error with a position-annotated message on malformed input.
Geometry readWkt(std::string_view text);

/// Parse one WKT geometry straight into `out`'s arenas (no per-record heap
/// allocation) and attach `userData` / `cell` to the committed record.
/// Throws util::Error on malformed input; `out` is left unchanged then.
void readWktInto(std::string_view text, std::string_view userData, GeometryBatch& out, int cell = 0);

/// Non-throwing variant; returns false and fills `error` (if non-null) on
/// malformed input. Used by the bulk parsers where a bad record is counted
/// and skipped rather than aborting a 100-GB run.
bool tryReadWkt(std::string_view text, Geometry& out, std::string* error = nullptr);

/// Serialize to WKT. `precision` is the maximum significant digits per
/// ordinate (17 round-trips any double).
std::string writeWkt(const Geometry& g, int precision = 17);

}  // namespace mvio::geom
