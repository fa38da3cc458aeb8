#pragma once
// Pluggable ingest formats (DESIGN.md §12).
//
// Everything the pipeline reads used to funnel through the WKT text
// scanner; with fast parallel I/O that made parse the dominant CPU cost
// (bench_fig14). A FormatReader abstracts the two things the pipeline
// actually needs from an input encoding:
//
//   * record boundary resolution — where may a raw file block be cut so
//     both sides hold whole records? Text formats answer with delimiter
//     scans; the binary WKB record format walks length-prefixed headers
//     (no scan ever touches record payloads).
//   * chunk parsing — turn one boundary-aligned chunk into GeometryBatch
//     arenas, fanning out over the rank's worker pool when one exists.
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
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/parser.hpp"
#include "geom/geometry_batch.hpp"

namespace mvio::core {

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

/// One ingest format: boundary resolution + chunk parsing. Implementations
/// must be stateless per call (const, shared across ranks and worker
/// threads). Register instances in the FormatRegistry or hand them to
/// DatasetHandle::format directly.
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

  /// Parse one boundary-aligned chunk into `out`. With a pool of >1
  /// threads the format fans out over record-boundary slices exactly like
  /// Parser::parseAllParallel (results bit-identical to serial); `timing`
  /// (optional) reports the region's total CPU and critical path for the
  /// caller to charge to the rank clock.
  virtual ParseStats parseChunk(std::string_view text, geom::GeometryBatch& out,
                                util::ThreadPool* pool, ParseTiming* timing = nullptr) const = 0;

  static constexpr std::uint64_t npos = UINT64_MAX;
};

/// Adapter wrapping a delimiter-based text Parser (WKT, CSV, user
/// formats) as a FormatReader — the behavior-preserving default every
/// existing pipeline runs through.
class TextFormatReader final : public FormatReader {
 public:
  /// Non-owning view over an externally held parser (the framework shim
  /// for DatasetHandle::parser).
  explicit TextFormatReader(const Parser* parser, std::string name = "text");
  /// Owning form for registry builtins.
  TextFormatReader(std::string name, std::unique_ptr<const Parser> parser);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::int64_t splitBoundary(std::string_view block,
                                           std::uint64_t maxRecordBytes) const override;
  [[nodiscard]] std::uint64_t firstBoundary(std::string_view buf, std::uint64_t from,
                                            std::uint64_t maxRecordBytes) const override;
  [[nodiscard]] std::uint64_t nextBoundary(std::string_view buf, std::uint64_t knownBoundary,
                                           std::uint64_t from,
                                           std::uint64_t maxRecordBytes) const override;
  ParseStats parseChunk(std::string_view text, geom::GeometryBatch& out, util::ThreadPool* pool,
                        ParseTiming* timing) const override;

 private:
  std::string name_;
  std::unique_ptr<const Parser> owned_;
  const Parser* parser_;
};

/// Length-prefixed WKB records: boundary resolution walks the 12-byte
/// headers, parseChunk decodes each record's WKB payload straight into the
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
  ParseStats parseChunk(std::string_view text, geom::GeometryBatch& out, util::ThreadPool* pool,
                        ParseTiming* timing) const override;

  /// Cut a boundary-aligned chunk into at most `slices` record-aligned
  /// ranges tiling it exactly (the framed analogue of sliceRecords;
  /// exposed for the slice tests).
  [[nodiscard]] std::vector<std::string_view> sliceFramedRecords(
      std::string_view text, int slices, std::uint64_t maxRecordBytes) const;

 private:
  ParseStats parseSerial(std::string_view text, geom::GeometryBatch& out) const;
  bool columnar_;
};

/// Name → FormatReader registry; "wkt", "csv" (text defaults), and "wkb"
/// (framed binary) are pre-registered. Thread-safe.
class FormatRegistry {
 public:
  static FormatRegistry& instance();

  /// Register (or replace) a format under reader->name().
  void add(std::shared_ptr<const FormatReader> reader);
  /// Lookup; nullptr when unknown. The pointer stays valid for the process
  /// lifetime (readers are never destroyed once registered).
  [[nodiscard]] const FormatReader* find(std::string_view name) const;
  /// Lookup; throws util::Error when unknown.
  [[nodiscard]] const FormatReader* get(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  FormatRegistry();
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace mvio::core
