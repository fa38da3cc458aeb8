#include "core/indexing.hpp"

#include <memory>

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

void DistributedIndex::buildTrees() const {
  for (const auto& [cell, ci] : cells_) {
    if (!ci.stale) continue;
    ci.rtree = geom::RTree();
    ci.rtree.bulkLoad(geom::BatchSpan(&batch_, ci.records.data(), ci.records.size()));
    ci.stale = false;
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
  for (const auto& [cell, ci] : cells_) {
    if (ci.stale) {
      // Lazy re-bulk-load: streaming adoption appended ids since the tree
      // was last packed (or it was never packed at all).
      ci.rtree = geom::RTree();
      ci.rtree.bulkLoad(geom::BatchSpan(&batch_, ci.records.data(), ci.records.size()));
      ci.stale = false;
    }
    ci.rtree.visit(queryBox, [&](std::uint64_t k) {
      const std::size_t id = ci.records[static_cast<std::size_t>(k)];
      const geom::Envelope& env = batch_.envelope(id);
      // Reference-point deduplication across replicated copies. Cell ids
      // are partition cells, so the reference point resolves through the
      // map (== the grid lookup for uniform runs).
      const geom::Coord ref{std::max(env.minX(), queryBox.minX()),
                            std::max(env.minY(), queryBox.minY())};
      const int refCell = map_.isUniform() ? grid_.cellOfPoint(ref) : map_.cellOfPoint(ref);
      if (refCell != cell) return;
      // Exact refine straight on the batch record — no materialization.
      if (!geom::recordIntersectsBox(batch_, id, queryBox)) return;
      fn(id);
    });
  }
}

DistributedIndex DistributedIndex::fromBatch(geom::GeometryBatch&& batch, const GridSpec& grid) {
  DistributedIndex index;
  index.grid_ = grid;
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

    std::unique_ptr<RefineTask> makeWorker() override {
      // Refine is a no-op for index building (grouping happens at
      // adoption, which stays on the main task), so workers are stateless
      // shells that keep the threaded pipeline uniform.
      auto w = std::make_unique<BuildTask>();
      w->index = nullptr;
      return w;
    }

    void mergeWorker(RefineTask& /*worker*/) override {}
  };

  BuildTask task;
  task.index = &index;
  IndexingStats local;
  IndexingStats& st = stats != nullptr ? *stats : local;
  static_cast<FrameworkStats&>(st) =
      runFilterRefine(comm, volume, data, nullptr, cfg.framework, task);
  index.grid_ = st.grid;
  index.map_ = st.partition;
  // A dead rank adopted nothing and joins no further collective: its
  // (empty) index is returned as-is.
  if (st.recovery.died) return index;
  mpi::Comm active = st.activeComm ? *st.activeComm : comm;

  // Pack the per-cell R-trees now (rather than at first query) so the
  // build phase of the figure benches keeps pricing the whole build.
  mpi::CpuCharge charge(comm);
  index.buildTrees();
  st.phases.compute += charge.stop();

  if (stats != nullptr) stats->globalGeometries = active.allreduceSumU64(index.localGeometries());
  return index;
}

}  // namespace mvio::core
