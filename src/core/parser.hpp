#pragma once
// Delimited-text parsing (paper §4.3 "Parsing module").
//
// MPI-Vector-IO presents file partitions and communication buffers as
// collections of newline-separated strings; a Parser is the FormatReader
// (core/format.hpp) for such text. It resolves record boundaries with
// memchr/memrchr scans for the newline and decodes each string into a
// GEOS-style geometry. The library ships parsers for WKT lines
// (optionally followed by tab-separated attributes, which land in
// Geometry::userData) and CSV point data (lon,lat[,attrs] — the New York
// Taxi style the paper cites). Users plug in their own Parser for other
// text formats (OSM XML, GeoJSON lines, ...) by implementing
// parseRecord, which is exactly the extension point the paper describes.

#include <cstdint>
#include <functional>
#include <string_view>

#include "core/format.hpp"
#include "geom/geometry.hpp"
#include "geom/geometry_batch.hpp"

namespace mvio::core {

class Parser : public FormatReader {
 public:
  [[nodiscard]] std::string_view name() const override { return "text"; }

  /// One past the last newline in `block` (Algorithm 1 lines 9-11's
  /// backward scan), or -1 when the block holds none.
  [[nodiscard]] std::int64_t splitBoundary(std::string_view block,
                                           std::uint64_t maxRecordBytes) const override;
  /// One past the first newline at offset >= from - 1; offset 0 is a
  /// boundary by convention. A newline marks a boundary on its own, so
  /// `knownBoundary` is not needed.
  [[nodiscard]] std::uint64_t nextBoundary(std::string_view buf, std::uint64_t knownBoundary,
                                           std::uint64_t from,
                                           std::uint64_t maxRecordBytes) const override;
  [[nodiscard]] std::uint64_t firstBoundary(std::string_view buf, std::uint64_t from,
                                            std::uint64_t maxRecordBytes) const override {
    return nextBoundary(buf, 0, from, maxRecordBytes);
  }

  /// Parse a single record (one line, newline excluded). Returns false for
  /// records that should be skipped (blank lines, padding) and throws
  /// util::Error for malformed content.
  [[nodiscard]] virtual bool parseRecord(std::string_view record, geom::Geometry& out) const = 0;

  /// Batch sink: parse one record straight into `out`'s arenas. The default
  /// routes through parseRecord() + GeometryBatch::append(); the shipped
  /// parsers override it with allocation-free direct-to-arena writes.
  [[nodiscard]] virtual bool parseRecordInto(std::string_view record, geom::GeometryBatch& out) const;

  /// Split `text` into lines and parse every record, invoking `sink` for
  /// each geometry (the per-Geometry reference path). Malformed records
  /// are counted, not fatal.
  ParseStats parseAll(std::string_view text, const std::function<void(geom::Geometry&&)>& sink) const;

  /// The serial decode: split into lines (memchr scan) and parse every
  /// record into `out` via parseRecordInto(). This is the pipeline's hot
  /// path — no per-record Geometry objects are created.
  ParseStats parseAll(std::string_view text, geom::GeometryBatch& out) const final;
};

/// WKT records: "<wkt>" or "<wkt>\t<attributes...>". Attributes are stored
/// in Geometry::userData verbatim.
class WktParser final : public Parser {
 public:
  [[nodiscard]] std::string_view name() const override { return "wkt"; }
  [[nodiscard]] bool parseRecord(std::string_view record, geom::Geometry& out) const override;
  [[nodiscard]] bool parseRecordInto(std::string_view record, geom::GeometryBatch& out) const override;
};

/// CSV point records: "x,y" or "x,y,<attributes...>" (taxi-trip style).
class CsvPointParser final : public Parser {
 public:
  [[nodiscard]] std::string_view name() const override { return "csv"; }
  [[nodiscard]] bool parseRecord(std::string_view record, geom::Geometry& out) const override;
  [[nodiscard]] bool parseRecordInto(std::string_view record, geom::GeometryBatch& out) const override;
};

}  // namespace mvio::core
