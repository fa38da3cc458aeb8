#pragma once
// The ingest interface (paper §4.3 "Parsing module", DESIGN.md §12).
//
// Parsing is one extension point: a file partition is cut at record
// boundaries and each record is decoded into a geometry. A FormatReader
// answers the two questions that takes:
//
//   * record boundary resolution — where may a raw file block be cut so
//     both sides hold whole records? Text formats answer with delimiter
//     scans; the binary WKB record format walks length-prefixed headers
//     (no scan ever touches record payloads).
//   * serial decode — turn one boundary-aligned chunk into GeometryBatch
//     arenas (parseAll).
//
// parseChunk is the one entry point on top: it runs the serial decode, or cuts
// the chunk at record boundaries (sliceChunk) and decodes the slices on
// the rank's worker pool. Parser (core/parser.hpp) is the implementation
// for newline-delimited text (WKT, CSV, user formats); WkbFormatReader
// below is the binary one. Text decode is a major CPU cost, which is why
// `bench_paper fig14` measures parse apart from I/O.
//
// The length-prefixed WKB record format framed here mirrors the exchange
// wire layout (core/exchange.cpp — [cell][userLen][wkbLen][user][wkb])
// with the cell field repurposed as a self-synchronizing magic: cells are
// assigned at grid projection, never in files.
//
//     [magic "WKB1" u32][userLen u32][wkbLen u32][userData][wkb]
//
// The WkbFormatReader decodes records straight into the batch arenas via
// geom::readWkbInto — no intermediate Geometry, no text scan: the
// zero-parse columnar ingest path.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geom/geometry.hpp"
#include "geom/geometry_batch.hpp"
#include "util/thread_pool.hpp"

namespace mvio::core {

/// Statistics from a bulk parse.
struct ParseStats {
  std::uint64_t records = 0;     ///< geometries successfully produced
  std::uint64_t badRecords = 0;  ///< malformed records skipped
  std::uint64_t bytes = 0;       ///< input bytes consumed
};

/// CPU accounting of one parseChunk call. `critical` is the time a rank
/// with a real `slices`-wide pool would block for — the slowest worker
/// plus the serial splice-back — and is what the framework charges to the
/// rank clock; `cpuSum` is the total CPU all workers burned.
struct ParseTiming {
  double cpuSum = 0;
  double critical = 0;
};

/// Record header magic: the bytes 'W','K','B','1' in file order
/// (little-endian u32). A header never begins with anything else.
inline constexpr std::uint32_t kWkbRecordMagic = 0x31424B57u;
/// Bytes of [magic][userLen][wkbLen] preceding every record payload.
inline constexpr std::uint64_t kWkbRecordHeaderBytes = 12;

/// Append record `i` of `b` as one framed WKB record.
void appendWkbRecord(const geom::GeometryBatch& b, std::size_t i, std::string& out);

/// Append one geometry + attribute blob as a framed WKB record (the
/// corpus-writer convenience; the batch overload is the hot path).
void appendWkbRecord(const geom::Geometry& g, std::string_view userData, std::string& out);

/// One ingest format: boundary resolution + serial decode, and the
/// parallel parse over them. Implementations must be stateless per call
/// (const, shared across ranks and worker threads). The registry holds the
/// builtins; any other reader goes to DatasetHandle::format directly.
class FormatReader {
 public:
  virtual ~FormatReader() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// One past the last record boundary in `block` — a raw kMessage file
  /// block that may begin mid-record. Bytes past the returned offset are
  /// the dangling fragment ringed to the successor rank. Returns -1 when
  /// no boundary exists in the block (record larger than the block); 0 is
  /// a valid answer (the whole block is one fragment).
  [[nodiscard]] virtual std::int64_t splitBoundary(std::string_view block,
                                                   std::uint64_t maxRecordBytes) const = 0;

  /// First record boundary at offset >= `from` in `buf`, with no boundary
  /// position known a priori (the kOverlap "where does my block's first
  /// record start" question). Returns npos when none exists in `buf`.
  [[nodiscard]] virtual std::uint64_t firstBoundary(std::string_view buf, std::uint64_t from,
                                                    std::uint64_t maxRecordBytes) const = 0;

  /// First record boundary at offset >= `from`, walking forward from
  /// `knownBoundary` (a position already established as a boundary, always
  /// <= from). Framed formats hop length headers; text formats scan for
  /// the delimiter. Returns npos when the record containing `from` extends
  /// past the end of `buf`.
  [[nodiscard]] virtual std::uint64_t nextBoundary(std::string_view buf,
                                                   std::uint64_t knownBoundary, std::uint64_t from,
                                                   std::uint64_t maxRecordBytes) const = 0;

  /// Serial decode of one boundary-aligned chunk, appending every record
  /// to `out`. Malformed records are counted, not fatal (a 100-GB run
  /// should not die on one bad record).
  virtual ParseStats parseAll(std::string_view text, geom::GeometryBatch& out) const = 0;

  /// Parse one boundary-aligned chunk into `out` (DESIGN.md §10). Without
  /// a pool of >1 threads this is parseAll. Otherwise sliceChunk cuts the
  /// chunk, each pool worker decodes its slice into a private batch, and
  /// the slice batches splice back into `out` in slice order — records,
  /// arena bytes and the summed ParseStats are identical to parseAll.
  /// The caller's clock is NOT charged; `timing` (optional) reports the
  /// region's critical path and total CPU for the caller to charge.
  ParseStats parseChunk(std::string_view text, geom::GeometryBatch& out, util::ThreadPool* pool,
                        ParseTiming* timing = nullptr) const;

  /// Cut a boundary-aligned chunk into `slices` contiguous ranges that
  /// tile it exactly: each raw k·n/slices cut advances to the next record
  /// boundary (nextBoundary), so a record crossing a raw cut belongs
  /// wholly to the slice where it starts. Trailing slices may be empty
  /// (short chunks); concatenating the result in order always reproduces
  /// `text` byte for byte.
  [[nodiscard]] std::vector<std::string_view> sliceChunk(std::string_view text, int slices) const;

  static constexpr std::uint64_t npos = UINT64_MAX;
};

/// Length-prefixed WKB records: boundary resolution walks the 12-byte
/// headers, parseAll decodes each record's WKB payload straight into the
/// batch arenas (columnar, the default) or through a materialized Geometry
/// (the equivalence/bench reference when `columnar` is false).
class WkbFormatReader final : public FormatReader {
 public:
  explicit WkbFormatReader(bool columnar = true) : columnar_(columnar) {}

  [[nodiscard]] std::string_view name() const override { return "wkb"; }
  [[nodiscard]] std::int64_t splitBoundary(std::string_view block,
                                           std::uint64_t maxRecordBytes) const override;
  [[nodiscard]] std::uint64_t firstBoundary(std::string_view buf, std::uint64_t from,
                                            std::uint64_t maxRecordBytes) const override;
  [[nodiscard]] std::uint64_t nextBoundary(std::string_view buf, std::uint64_t knownBoundary,
                                           std::uint64_t from,
                                           std::uint64_t maxRecordBytes) const override;
  ParseStats parseAll(std::string_view text, geom::GeometryBatch& out) const override;

 private:
  bool columnar_;
};

/// Name → FormatReader lookup over the builtins: "wkt" and "csv" (text
/// Parsers) and "wkb" (framed binary). Thread-safe; the readers live for
/// the whole process.
class FormatRegistry {
 public:
  static FormatRegistry& instance();

  /// Lookup; nullptr when unknown.
  [[nodiscard]] const FormatReader* find(std::string_view name) const;
  /// Lookup; throws util::Error when unknown.
  [[nodiscard]] const FormatReader* get(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  FormatRegistry() = default;
};

}  // namespace mvio::core
