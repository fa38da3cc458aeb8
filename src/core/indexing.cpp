#include "core/indexing.hpp"

#include <algorithm>
#include <vector>

#include "obs/trace.hpp"

namespace mvio::core {

void DistributedIndex::addBatch(geom::GeometryBatch&& b) {
  const std::size_t base = batch_.size();
  batch_.splice(std::move(b));
  for (std::size_t i = base; i < batch_.size(); ++i) {
    const int cell = batch_.cell(i);
    if (cell == geom::GeometryBatch::kNoCell) continue;
    CellIndex& ci = cells_[cell];
    ci.records.push_back(static_cast<std::uint32_t>(i));
    ci.stale = true;
    localGeometries_ += 1;
  }
}

void DistributedIndex::packTree(const CellIndex& ci) const {
  ci.rtree = geom::RTree();
  ci.rtree.bulkLoad(geom::BatchSpan(&batch_, ci.records.data(), ci.records.size()));
  ci.stale = false;
}

void DistributedIndex::buildTrees() const {
  for (const auto& [cell, ci] : cells_) {
    if (ci.stale) packTree(ci);
  }
}

std::uint64_t DistributedIndex::queryCount(const geom::Envelope& queryBox) const {
  std::uint64_t n = 0;
  query(queryBox, [&](std::size_t) { ++n; });
  return n;
}

void DistributedIndex::query(const geom::Envelope& queryBox,
                             const std::function<void(std::size_t)>& fn) const {
  if (queryBox.isNull()) return;
  // Only cells the box overlaps can hold a hit: a hit's reference point
  // lies inside the box, and its cell must be the visited one. The
  // thread's spare cell list is borrowed so a query issued from `fn`
  // still gets a list of its own.
  thread_local std::vector<int> spareCells;
  std::vector<int> overlapping = std::move(spareCells);
  overlapping.clear();
  map_.overlappingCells(queryBox, overlapping);
  for (const int cell : overlapping) {
    const auto it = cells_.find(cell);
    if (it == cells_.end()) continue;
    const CellIndex& ci = it->second;
    // Lazy re-bulk-load: streaming adoption appended ids since the tree
    // was last packed (or it was never packed at all).
    if (ci.stale) packTree(ci);
    ci.rtree.visit(queryBox, [&](std::uint64_t k) {
      const std::size_t id = ci.records[static_cast<std::size_t>(k)];
      const geom::Envelope& env = batch_.envelope(id);
      // Reference-point deduplication across replicated copies. Cell ids
      // are partition cells, so the reference point resolves through the
      // map.
      const geom::Coord ref{std::max(env.minX(), queryBox.minX()),
                            std::max(env.minY(), queryBox.minY())};
      if (map_.cellOfPoint(ref) != cell) return;
      // Exact refine straight on the batch record — no materialization.
      if (!geom::recordIntersectsBox(batch_, id, queryBox)) return;
      fn(id);
    });
  }
  spareCells = std::move(overlapping);
}

DistributedIndex DistributedIndex::fromBatch(geom::GeometryBatch&& batch, const GridSpec& grid) {
  DistributedIndex index;
  index.map_ = PartitionMap::uniform(grid);
  index.addBatch(std::move(batch));
  index.buildTrees();
  return index;
}

DistributedIndex buildDistributedIndex(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& data,
                                       const IndexingConfig& cfg, IndexingStats* stats) {
  DistributedIndex index;

  /// RefineTask that adopts the rank's post-exchange batch into the index
  /// through the appendable addBatch hook. No geometry is copied beyond
  /// the adoption splice, and no R-tree is packed per round — trees build
  /// once, below, after the last batch arrives.
  struct BuildTask final : RefineTask {
    DistributedIndex* index;

    void refineCellBatch(const GridSpec& /*grid*/, int /*cell*/, const geom::BatchSpan& /*r*/,
                         const geom::BatchSpan& /*s*/) override {
      // Grouping happens in addBatch from the adopted records' cell tags.
    }

    void adoptBatches(geom::GeometryBatch&& r, geom::GeometryBatch&& /*s*/) override {
      index->addBatch(std::move(r));
    }
  };

  BuildTask task;
  task.index = &index;
  IndexingStats local;
  IndexingStats& st = stats != nullptr ? *stats : local;
  static_cast<FrameworkStats&>(st) =
      runFilterRefine(comm, volume, data, nullptr, cfg.framework, task);
  index.map_ = st.partition;
  // A dead rank adopted nothing and joins no further collective: its
  // (empty) index is returned as-is.
  if (st.recovery.died) return index;
  mpi::Comm active = st.activeComm ? *st.activeComm : comm;

  // Pack the per-cell R-trees now (rather than at first query) so the
  // build phase of the figure benches keeps pricing the whole build.
  {
    obs::ScopedSpan span("compute");
    mpi::CpuCharge charge(comm);
    index.buildTrees();
    st.phases.compute += charge.stop();
  }

  if (stats != nullptr) stats->globalGeometries = active.allreduceSumU64(index.localGeometries());
  return index;
}

}  // namespace mvio::core
