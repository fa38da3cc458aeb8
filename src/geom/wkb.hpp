#pragma once
// Well-Known Binary reader/writer (OGC, 2D). WKB is what spatial databases
// exchange and what MPI ranks serialize into communication buffers when a
// compact binary wire format is preferred over coordinate-array framing.
// Both byte orders are read; writing emits the host's native order
// (little-endian on every platform we target) with the standard order byte.
// The reader rejects nesting deeper than kMaxNestingDepth.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geom/geometry.hpp"
#include "geom/geometry_batch.hpp"

namespace mvio::geom {

/// Serialize one geometry to WKB bytes.
std::string writeWkb(const Geometry& g);

/// Append WKB bytes to an existing buffer (bulk serialization path).
void appendWkb(const Geometry& g, std::string& out);

/// Append record `i` of `b` as WKB bytes, straight off the batch arenas —
/// the one encode helper every framing consumer (join dedupe keys, the
/// binary file writer) shares. Grows `out` by
/// exactly GeometryBatch::wkbSize(i).
void appendWkb(const GeometryBatch& b, std::size_t i, std::string& out);

/// Parse one WKB geometry from the start of `bytes`; `consumed` (if
/// non-null) receives the number of bytes read. Throws util::Error on
/// malformed input.
Geometry readWkb(std::string_view bytes, std::size_t* consumed = nullptr);

/// Parse one WKB geometry from the start of `bytes` straight into `out`'s
/// arenas as a committed record carrying `userData` / `cell` — the decode
/// grammar lives here once, shared by readWkb() and the WKB record
/// stream reader (core/format.hpp). `consumed` (if non-null) receives the bytes read. Throws
/// util::Error on malformed input; `out` is left unchanged then.
void readWkbInto(std::string_view bytes, std::string_view userData, GeometryBatch& out,
                 int cell = 0, std::size_t* consumed = nullptr);

}  // namespace mvio::geom
