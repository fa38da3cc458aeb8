#include "core/cell_store.hpp"

#include <algorithm>

#include "geom/batch_shard.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace mvio::core {

CellStore::CellStore(pfs::SpillStore* store, std::string base, std::uint64_t memoryBudget,
                     SpillChargeFn charge)
    : store_(store), base_(std::move(base)), budget_(memoryBudget), charge_(std::move(charge)) {}

void CellStore::add(geom::GeometryBatch&& roundBatch) {
  MVIO_CHECK(!finalized_, "CellStore: add after finalize");
  records_ += roundBatch.size();
  resident_.splice(std::move(roundBatch));
  if (streaming() && resident_.memoryBytes() > budget_) {
    flushSegment(resident_);
    resident_ = geom::GeometryBatch();
  }
}

void CellStore::finalize() {
  MVIO_CHECK(!finalized_, "CellStore: already finalized");
  finalized_ = true;
  // Streaming: the accumulated tail stays resident when it fits its half
  // of the budget (it is served through the same per-cell index as the
  // resident regime); otherwise it joins the cell-sorted segments. A run
  // whose owned set never outgrew the budget therefore spills nothing.
  if (streaming() && resident_.memoryBytes() > budget_ / 2) {
    flushSegment(resident_);
    resident_ = geom::GeometryBatch();
  }
  for (std::size_t i = 0; i < resident_.size(); ++i) {
    const int cell = resident_.cell(i);
    if (cell == geom::GeometryBatch::kNoCell) continue;
    cellIndex_[cell].push_back(static_cast<std::uint32_t>(i));
  }
  peakBytes_ = std::max(peakBytes_, resident_.memoryBytes());
}

void CellStore::flushSegment(const geom::GeometryBatch& b) {
  if (b.empty()) return;
  const std::size_t n = b.size();
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  // Stable: within a cell, records keep their arrival order, so the
  // concatenation of segments reproduces the resident regime's per-cell
  // record sequence.
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return b.cell(x) < b.cell(y);
  });

  // One blob per segment, one BatchShard per cell: a cell's records are a
  // single ranged read, and no piece carries another cell's bytes. The
  // blob is encoded whole before its one put, so a flush briefly holds it
  // next to the sorted segment (the flush-time slack of DESIGN.md §8).
  std::vector<int> cells(n);
  for (std::size_t k = 0; k < n; ++k) {
    cells[k] = b.cell(order[k]);
    MVIO_CHECK(cells[k] != geom::GeometryBatch::kNoCell, "CellStore: untagged record in owned set");
  }
  Segment segment;
  segment.name = base_ + ".seg" + std::to_string(segments_.size());
  std::string blob;
  for (const geom::ShardRun& run : geom::encodeShardRuns(b, order, cells, blob)) {
    segment.pieces.push_back(
        {run.key, run.offset, run.counts.encodedBytes(),
         static_cast<std::uint32_t>(run.counts.records), false});
  }
  charge_(blob.size(), /*isWrite=*/true);
  if (obs::tracingOn()) {
    obs::traceInstant("store.spill", segment.name + " (" + std::to_string(blob.size()) + " bytes)");
  }
  store_->put(segment.name, std::move(blob));
  segments_.push_back(std::move(segment));
}

std::vector<int> CellStore::cells() const {
  // Both regimes index the resident records (the whole set, or the
  // streaming tail) in cellIndex_; streaming adds the segment directories.
  std::vector<int> out;
  out.reserve(cellIndex_.size());
  for (const auto& [cell, ids] : cellIndex_) out.push_back(cell);
  if (segments_.empty()) return out;  // map iteration is already ascending
  for (const Segment& segment : segments_) {
    for (const Piece& piece : segment.pieces) {
      if (!piece.dead) out.push_back(piece.cell);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void CellStore::accumulateCellLoads(std::vector<std::uint64_t>& loads) const {
  for (const auto& [cell, ids] : cellIndex_) {
    loads[static_cast<std::size_t>(cell)] += ids.size();
  }
  for (const Segment& segment : segments_) {
    for (const Piece& piece : segment.pieces) {
      if (!piece.dead) loads[static_cast<std::size_t>(piece.cell)] += piece.records;
    }
  }
}

void CellStore::assembleCell(int cell, geom::GeometryBatch& out, bool extract) {
  // Spilled segments first (flush order), the resident tail last — the
  // concatenation is the cell's arrival order.
  for (Segment& segment : segments_) {
    const auto it = std::lower_bound(segment.pieces.begin(), segment.pieces.end(), cell,
                                     [](const Piece& p, int c) { return p.cell < c; });
    if (it == segment.pieces.end() || it->cell != cell || it->dead) continue;
    const std::string bytes = store_->fetch(segment.name, it->offset, it->bytes);
    charge_(bytes.size(), /*isWrite=*/false);
    reloadBytes_ += bytes.size();
    MVIO_CHECK(geom::decodeShard(bytes, out) == it->records,
               "CellStore: piece record count does not match its directory entry");
    if (extract) it->dead = true;
  }
  const auto tail = cellIndex_.find(cell);
  if (tail != cellIndex_.end()) {
    for (const std::uint32_t i : tail->second) out.appendRecordFrom(resident_, i, cell);
    if (extract) cellIndex_.erase(tail);
  }
}

geom::BatchSpan CellStore::cellSpan(int cell) {
  MVIO_CHECK(finalized_, "CellStore: cellSpan before finalize");
  MVIO_CHECK(!streaming(), "CellStore: cellSpan is a resident-regime call");
  const auto it = cellIndex_.find(cell);
  // Absent cells still get a span backed by a live batch, so tasks may
  // call span.batch() unconditionally.
  if (it == cellIndex_.end()) return {&resident_, nullptr, 0};
  return {&resident_, it->second.data(), it->second.size()};
}

geom::GeometryBatch CellStore::takeCellAssembled(int cell) {
  MVIO_CHECK(finalized_, "CellStore: takeCellAssembled before finalize");
  MVIO_CHECK(streaming(), "CellStore: takeCellAssembled is a streaming-regime call");
  geom::GeometryBatch out;
  assembleCell(cell, out, /*extract=*/false);
  return out;
}

geom::GeometryBatch CellStore::extractCell(int cell) {
  MVIO_CHECK(finalized_, "CellStore: extractCell before finalize");
  geom::GeometryBatch out;
  if (!streaming()) {
    const auto it = cellIndex_.find(cell);
    if (it == cellIndex_.end()) return out;
    for (const std::uint32_t i : it->second) {
      out.appendRecordFrom(resident_, i, cell);
      // Tombstone: the record stays in the arenas but is invisible to any
      // consumer that groups by cell tag (takeResidentBatch adoption).
      resident_.setCell(i, geom::GeometryBatch::kNoCell);
    }
    cellIndex_.erase(it);
  } else {
    assembleCell(cell, out, /*extract=*/true);
  }
  records_ -= out.size();
  return out;
}

void CellStore::addMigrated(geom::GeometryBatch&& batch) {
  MVIO_CHECK(finalized_, "CellStore: addMigrated before finalize");
  records_ += batch.size();
  if (!streaming()) {
    const std::size_t base = resident_.size();
    resident_.splice(std::move(batch));
    for (std::size_t i = base; i < resident_.size(); ++i) {
      const int cell = resident_.cell(i);
      MVIO_CHECK(cell != geom::GeometryBatch::kNoCell, "CellStore: untagged migrated record");
      cellIndex_[cell].push_back(static_cast<std::uint32_t>(i));
    }
    peakBytes_ = std::max(peakBytes_, resident_.memoryBytes());
    return;
  }
  // One more cell-sorted segment; the resident tail is left untouched.
  flushSegment(batch);
}

geom::GeometryBatch CellStore::takeResidentBatch() {
  MVIO_CHECK(!streaming(), "CellStore: takeResidentBatch is a resident-regime call");
  cellIndex_.clear();
  geom::GeometryBatch out = std::move(resident_);
  resident_ = geom::GeometryBatch();
  return out;
}

void CellStore::releaseBlobs() {
  for (const Segment& segment : segments_) store_->remove(segment.name);
  segments_.clear();
}

}  // namespace mvio::core
