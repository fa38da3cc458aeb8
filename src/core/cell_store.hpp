#pragma once
// Cell-major owned-record store (DESIGN.md §8).
//
// The streaming pipeline's exchange rounds deliver a rank's owned records
// in arrival order, but the refine phase consumes them cell by cell. The
// CellStore is the structure between the two: rounds add() batches as
// they arrive, and after finalize() the store serves the records of one
// cell at a time, in ascending cell-id order, without ever holding the
// whole owned set resident.
//
// Two regimes, selected by StreamConfig::memoryBudget:
//
//  * Resident (budget 0 / unbounded): arrivals splice into one batch;
//    finalize() builds per-cell record-id lists over it. cellSpan() is a
//    zero-copy view into the batch, and the whole batch is handed to the
//    task once at the end (takeResidentBatch) — the classic path.
//
//  * Streaming (budget set): whenever the accumulating segment exceeds
//    the budget — and at finalize(), unless the tail fits half the
//    budget and simply stays resident — the segment's records are
//    stably sorted by cell id and written out as one blob: a run of
//    per-cell BatchShards ("pieces"), one per cell present in the
//    segment. Only a directory (per piece: cell, byte range, record
//    count, dead flag) stays in memory. takeCellAssembled() reads the
//    cell's piece from every segment with one ranged fetch each, decodes
//    it straight into a batch the caller owns and appends the tail's
//    records. Each cell is assembled once, so every spilled byte is read
//    back exactly once and nothing is cached: peak refine memory is the
//    resident tail plus the staged cells, not the owned-batch size.
//
// extractCell() removes a cell's records (the shard-migration path uses
// it to ship leaving cells), and addMigrated() appends records received
// from peers as one more cell-sorted segment. The store tracks its spill
// traffic and its peak resident bytes so FrameworkStats can report — and
// tests can assert — the refine-phase memory bound.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "geom/geometry_batch.hpp"
#include "pfs/spill_store.hpp"

namespace mvio::core {

/// Charges one spill transfer to the rank's clock and phase breakdown
/// (bytes, isWrite). Supplied by the framework, which owns both.
using SpillChargeFn = std::function<void(std::uint64_t, bool)>;

class CellStore {
 public:
  /// `memoryBudget` 0 = resident regime.
  CellStore(pfs::SpillStore* store, std::string base, std::uint64_t memoryBudget,
            SpillChargeFn charge);

  // ---- Accumulation (exchange rounds) ---------------------------------
  /// Splice one round's received records; may flush a cell-sorted segment.
  void add(geom::GeometryBatch&& roundBatch);
  /// Close accumulation; the store becomes cell-readable.
  void finalize();

  // ---- Introspection ---------------------------------------------------
  [[nodiscard]] bool streaming() const { return budget_ != 0; }
  [[nodiscard]] std::uint64_t records() const { return records_; }
  /// Ascending distinct cell ids with at least one record.
  [[nodiscard]] std::vector<int> cells() const;
  /// loads[cell] += record count, for every cell present (skew measurement;
  /// `loads` must span the grid).
  void accumulateCellLoads(std::vector<std::uint64_t>& loads) const;
  /// Bytes the store holds resident: the owned batch (resident) or the
  /// tail segment (streaming; staged cells belong to the caller).
  [[nodiscard]] std::uint64_t trackedBytes() const { return resident_.memoryBytes(); }
  [[nodiscard]] std::uint64_t peakBytes() const { return peakBytes_; }
  /// Piece bytes reloaded by takeCellAssembled/extractCell.
  [[nodiscard]] std::uint64_t reloadBytes() const { return reloadBytes_; }

  // ---- Cell-major access (after finalize) ------------------------------
  /// Resident regime: the records of `cell` as a zero-copy view into the
  /// owned batch. Any cell order is correct.
  geom::BatchSpan cellSpan(int cell);
  /// Streaming regime: assemble `cell`'s records into an owned,
  /// self-contained batch. The refine group loader stages cells with it,
  /// so workers refine them while the store (which is not thread-safe)
  /// stays untouched (DESIGN.md §10). Any cell order is correct.
  [[nodiscard]] geom::GeometryBatch takeCellAssembled(int cell);
  /// Remove `cell` from the store and return its records (migration).
  /// Resident: the records are tombstoned with kNoCell in the owned batch
  /// so a later takeResidentBatch() cannot leak them to the task.
  [[nodiscard]] geom::GeometryBatch extractCell(int cell);
  /// Append records received from peers (cell tags intact). Streaming:
  /// flushed immediately as one more cell-sorted segment.
  void addMigrated(geom::GeometryBatch&& batch);
  /// Resident regime: the whole owned batch, for whole-run adoption.
  [[nodiscard]] geom::GeometryBatch takeResidentBatch();

  /// Drop every segment blob this store wrote from the SpillStore.
  void releaseBlobs();

 private:
  /// Directory entry for one cell's BatchShard inside a segment blob.
  struct Piece {
    int cell = 0;
    std::uint64_t offset = 0;  ///< byte offset in the segment blob
    std::uint64_t bytes = 0;   ///< encoded length (header included)
    std::uint32_t records = 0;
    bool dead = false;  ///< extracted (migrated away); skip on reload
  };
  /// One spilled segment: a blob of pieces in ascending cell order.
  struct Segment {
    std::string name;
    std::vector<Piece> pieces;
  };

  /// Sort `b`'s records by cell and write them out as one segment blob of
  /// per-cell pieces (directory kept in memory).
  void flushSegment(const geom::GeometryBatch& b);
  /// Append `cell`'s records from each segment's piece, then from the
  /// tail, to `out`; marks the pieces dead when `extract`.
  void assembleCell(int cell, geom::GeometryBatch& out, bool extract);

  pfs::SpillStore* store_;
  std::string base_;
  std::uint64_t budget_;
  SpillChargeFn charge_;

  bool finalized_ = false;
  std::uint64_t records_ = 0;
  std::uint64_t reloadBytes_ = 0;
  std::uint64_t peakBytes_ = 0;

  // Accumulating / resident state. After finalize, resident_ holds the
  // whole owned set (resident regime) or the under-half-budget tail
  // segment (streaming regime); cellIndex_ maps its records per cell.
  geom::GeometryBatch resident_;
  std::map<int, std::vector<std::uint32_t>> cellIndex_;

  // Streaming state.
  std::vector<Segment> segments_;
};

}  // namespace mvio::core
