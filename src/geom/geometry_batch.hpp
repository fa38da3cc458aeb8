#pragma once
// Arena-backed geometry batch — the flat SoA substrate of the pipeline
// (see DESIGN.md §2).
//
// A Geometry is a fine value type for algorithms, but a terrible unit of
// bulk storage: every record costs three vectors and a string, and moving
// millions of them through read→parse→partition→exchange churns the heap.
// GeometryBatch stores any number of geometries in four shared arenas:
//
//   coords_   one contiguous Coord array (all vertices, in record order)
//   shape_    a u32 token stream encoding each record's structure
//   userData_ one contiguous attribute blob
//   + per-record parallel arrays: type tag, envelope, grid cell,
//     and exclusive end offsets into the three arenas.
//
// The shape stream is a pre-order encoding, one node per (sub)geometry:
//
//   node          := typeTag payload
//   payload POINT := (none; consumes 1 coord)
//   payload LINESTRING := vertexCount
//   payload POLYGON    := ringCount ringLen...
//   payload MULTI*/GEOMETRYCOLLECTION := partCount node...
//
// Appending a record never allocates beyond amortized arena growth; a
// record copy between batches is three memcpys. Parsers write straight
// into the arenas through the begin/push/commit builder API (rollback on
// malformed input). The one serialized form is the BatchShard
// (geom/batch_shard.hpp): the exchange, spill, checkpoints and migration
// all write records straight from the arenas into shards and decode
// received shards back into a batch without intermediate per-record
// objects. materialize() converts one record back into a Geometry for
// callers outside the pipeline (readWkt/readWkb, tests, examples).
//
// Allocation discipline (what the refine layer relies on): the in-place
// accessors (envelope/userData/coordsOf/shapeOf) and the record predicates
// (recordIntersects / recordContains / recordIntersectsBox) never
// heap-allocate; recordClippedMeasure allocates only the transient
// clipped-ring buffers of the clipping kernel, never a Geometry;
// beginRecord/commitRecord/appendRecordFrom pay only amortized arena
// growth; materialize() allocates one heap Geometry per record, and no
// refine task calls it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geom/envelope.hpp"
#include "geom/geometry.hpp"

namespace mvio::geom {

class GeometryBatch {
 public:
  /// Cell id of records that project to no grid cell (dropped by the
  /// exchange, matching the per-Geometry pipeline which never emitted
  /// them).
  static constexpr int kNoCell = -1;

  [[nodiscard]] std::size_t size() const { return tags_.size(); }
  [[nodiscard]] bool empty() const { return tags_.empty(); }

  // ---- Per-record accessors -------------------------------------------
  [[nodiscard]] GeometryType type(std::size_t i) const {
    return static_cast<GeometryType>(tags_[i]);
  }
  [[nodiscard]] const Envelope& envelope(std::size_t i) const { return envelopes_[i]; }
  [[nodiscard]] std::string_view userData(std::size_t i) const {
    return {userData_.data() + userBegin(i), userEnd_[i] - userBegin(i)};
  }
  [[nodiscard]] int cell(std::size_t i) const { return cells_[i]; }
  void setCell(std::size_t i, int cell) { cells_[i] = cell; }
  [[nodiscard]] std::size_t vertexCount(std::size_t i) const {
    return coordEnd_[i] - coordBegin(i);
  }
  [[nodiscard]] const Coord* coordsOf(std::size_t i) const {
    return coords_.data() + coordBegin(i);
  }
  /// Record `i`'s shape-token stream (see the encoding above). Together
  /// with coordsOf() this is the raw material of the record predicates
  /// (recordIntersects / recordContains / recordIntersectsBox /
  /// recordClippedMeasure), which walk records in place instead of
  /// materializing them.
  [[nodiscard]] const std::uint32_t* shapeOf(std::size_t i) const {
    return shape_.data() + shapeBegin(i);
  }
  [[nodiscard]] std::size_t shapeTokenCount(std::size_t i) const {
    return shapeEnd_[i] - shapeBegin(i);
  }

  // ---- Whole-batch accessors ------------------------------------------
  [[nodiscard]] std::size_t totalVertices() const { return coords_.size(); }
  /// Union of all record envelopes (for global-grid construction).
  [[nodiscard]] Envelope bounds() const;

  // ---- Builder: direct-to-arena record construction -------------------
  // Parsers call beginRecord(), stream coords / shape tokens, then either
  // commitRecord() or rollbackRecord() (which truncates the arenas back).
  void beginRecord();
  void pushCoord(const Coord& c) { coords_.push_back(c); }
  /// Append a shape token; returns its index for later patching (counts
  /// are often unknown until a sequence has been scanned). The raw
  /// builder: it checks no structure, nesting depth included — callers
  /// that take untrusted shapes enforce kMaxNestingDepth themselves.
  std::size_t pushShape(std::uint32_t token) {
    shape_.push_back(token);
    return shape_.size() - 1;
  }
  void patchShape(std::size_t tokenIndex, std::uint32_t value) { shape_[tokenIndex] = value; }
  void commitRecord(std::string_view userData, int cell = 0);
  void rollbackRecord();

  // ---- Record-granularity append --------------------------------------
  /// Encode a Geometry into the arenas (the materialized-path shim);
  /// userData is taken from g.userData. A tree that nests collections
  /// deeper than kMaxNestingDepth (the readers' and the shard decoder's
  /// limit) throws util::Error and leaves the batch unchanged.
  void append(const Geometry& g, int cell = 0) { append(g, g.userData, cell); }
  void append(const Geometry& g, std::string_view userData, int cell = 0);
  /// Copy record `i` of `src` (which may be *this) — three memcpys.
  void appendRecordFrom(const GeometryBatch& src, std::size_t i, int cell);

  // ---- Whole-batch append (streaming rounds, shard reload) -------------
  /// Append every record of `src` after the existing ones: bulk arena
  /// copies plus end-offset rebasing. Record indices of *this* batch are
  /// unchanged; `src`'s record k becomes record size()+k. `src` may not
  /// be *this.
  void splice(const GeometryBatch& src);
  /// Move form: when *this is empty the arenas are adopted wholesale
  /// (no copy), otherwise falls back to the copying splice.
  void splice(GeometryBatch&& src);

  /// Resident payload bytes of the batch: the three arenas plus the
  /// per-record columns (sizes, not capacities). This is the quantity the
  /// streaming pipeline compares against StreamConfig::memoryBudget.
  [[nodiscard]] std::uint64_t memoryBytes() const;

  /// Rebuild record `i` as a standalone Geometry (userData included).
  /// This heap-allocates the Geometry's coordinate vectors and userData
  /// string; refine code reads records in place through the accessors
  /// above and the record predicates below instead.
  [[nodiscard]] Geometry materialize(std::size_t i) const;

  // ---- WKB encode (ingest record streams, join keys) -------------------
  [[nodiscard]] std::size_t wkbSize(std::size_t i) const;
  /// Write record i's WKB at `dst` (caller guarantees wkbSize(i) bytes);
  /// returns one past the last byte written.
  char* writeWkbTo(std::size_t i, char* dst) const;

  // ---- Capacity management --------------------------------------------
  /// Drop all records but keep arena capacity (iteration reuse).
  void clear();
  /// Room for `records` more records holding `coords` coordinates,
  /// `shapeTokens` shape tokens and `userBytes` userData bytes in all.
  void reserve(std::size_t records, std::size_t coords, std::size_t shapeTokens,
               std::size_t userBytes);

 private:
  /// Column access for the shard codec (geom/batch_shard.cpp): shards
  /// carry raw arena slices, so the codec copies them and rebuilds the
  /// private columns directly instead of going through record APIs.
  friend struct ShardAccess;

  [[nodiscard]] std::size_t coordBegin(std::size_t i) const { return i == 0 ? 0 : coordEnd_[i - 1]; }
  [[nodiscard]] std::size_t shapeBegin(std::size_t i) const { return i == 0 ? 0 : shapeEnd_[i - 1]; }
  [[nodiscard]] std::size_t userBegin(std::size_t i) const { return i == 0 ? 0 : userEnd_[i - 1]; }

  void encodeNode(const Geometry& g, int depth);

  // Per-record SoA columns.
  std::vector<std::uint8_t> tags_;
  std::vector<Envelope> envelopes_;
  std::vector<int> cells_;
  std::vector<std::size_t> coordEnd_;  ///< exclusive end offset into coords_
  std::vector<std::size_t> shapeEnd_;  ///< exclusive end offset into shape_
  std::vector<std::size_t> userEnd_;   ///< exclusive end offset into userData_

  // Shared arenas.
  std::vector<Coord> coords_;
  std::vector<std::uint32_t> shape_;
  std::vector<char> userData_;

  // Open-record marks (builder rollback points).
  bool recordOpen_ = false;
  std::size_t openCoordMark_ = 0;
  std::size_t openShapeMark_ = 0;
};

/// Checked walk of one node of a shape stream (the encoding above) — the
/// structural check the shard decoder runs on every untrusted record.
/// Advances `s` past the node's tokens and `c` past its coordinates;
/// throws util::Error if the node needs a token at or past `sEnd` or a
/// coordinate at or past `cEnd`, carries an unknown type tag, or nests
/// collections deeper than kMaxNestingDepth (the WKT/WKB readers' limit).
void skipShapeNode(const std::uint32_t*& s, const std::uint32_t* sEnd, const Coord*& c,
                   const Coord* cEnd);

// ---- Record predicates (predicates.cpp) ----------------------------------
// Exact tests that walk records' shape streams and arena coordinates in
// place — no Geometry is materialized and no heap allocation happens.
// This is the one predicate layer: the Geometry predicates of geometry.hpp
// encode their arguments and call it. tests/test_batch_refine.cpp checks
// it against the Geometry-walking reference in tests/support/.

/// True iff record `i` of `a` and record `j` of `b` share a point (the
/// refine test of JoinPredicate::kIntersects). `a` and `b` may be the same
/// batch.
[[nodiscard]] bool recordIntersects(const GeometryBatch& a, std::size_t i, const GeometryBatch& b,
                                    std::size_t j);

/// True iff every point of record `j` of `b` lies in record `i` of `a`
/// (JoinPredicate::kContains). Throws unless the container is polygonal,
/// or a collection whose parts that reach the test are.
[[nodiscard]] bool recordContains(const GeometryBatch& a, std::size_t i, const GeometryBatch& b,
                                  std::size_t j);

/// Exact intersection test of record `i` against an axis-aligned box: the
/// record layer with the box as a 5-vertex polygon node in Geometry::box()
/// vertex order, so it equals intersects(Geometry::box(box), g).
[[nodiscard]] bool recordIntersectsBox(const GeometryBatch& b, std::size_t i, const Envelope& box);

/// Type-appropriate measure of record `i` ∩ `rect` (area / length /
/// inside-count). Equals clippedMeasure(b.materialize(i), rect) except for
/// the transient clipped-ring buffers, which do allocate.
[[nodiscard]] double recordClippedMeasure(const GeometryBatch& b, std::size_t i,
                                          const Envelope& rect);

/// A cell's records inside a batch: an index view used by the refine
/// phase. Algorithms read envelopes/userData straight from the arena and
/// test records in place with the record predicates.
///
/// Lifetime: a BatchSpan is a non-owning view. It borrows both the batch
/// and the index array; neither may be destroyed, cleared, or appended to
/// (arena growth may reallocate) while the span is read. The framework
/// hands refine tasks spans that are valid only for the duration of the
/// refineCellBatch call — tasks that need the records afterwards either
/// copy the *record indices* (cheap, stable across RefineTask::adoptBatches)
/// or copy the records out of the batch.
class BatchSpan {
 public:
  BatchSpan() = default;
  BatchSpan(const GeometryBatch* batch, const std::uint32_t* idx, std::size_t count)
      : batch_(batch), idx_(idx), count_(count) {}

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Record index into the underlying batch.
  [[nodiscard]] std::size_t recordIndex(std::size_t k) const { return idx_[k]; }
  [[nodiscard]] const GeometryBatch& batch() const { return *batch_; }

  [[nodiscard]] GeometryType type(std::size_t k) const { return batch_->type(idx_[k]); }
  [[nodiscard]] const Envelope& envelope(std::size_t k) const { return batch_->envelope(idx_[k]); }
  [[nodiscard]] std::string_view userData(std::size_t k) const { return batch_->userData(idx_[k]); }

  /// Batch-native exact tests on the k-th record (no materialization).
  [[nodiscard]] bool intersectsBox(std::size_t k, const Envelope& box) const {
    return recordIntersectsBox(*batch_, idx_[k], box);
  }
  [[nodiscard]] double clippedMeasure(std::size_t k, const Envelope& rect) const {
    return recordClippedMeasure(*batch_, idx_[k], rect);
  }

 private:
  const GeometryBatch* batch_ = nullptr;
  const std::uint32_t* idx_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace mvio::geom
