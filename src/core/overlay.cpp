#include "core/overlay.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "geom/clip.hpp"
#include "io/file.hpp"
#include "util/error.hpp"

namespace mvio::core {

namespace {

/// Accumulates clipped coverage per owned cell. Batch-native: measures
/// are clipped straight from the arena coordinates (recordClippedMeasure),
/// so no record is ever materialized.
///
/// A cell's records arrive in whatever order the exchange delivered them,
/// and the streaming pipeline's rounds interleave arrivals differently
/// than the one-shot pass. Floating-point addition is not associative, so
/// the per-record measures are sorted before summing — the cell total is
/// then a function of the record *multiset* alone, and chunked and
/// one-shot runs write bit-identical coverage rasters.
struct CoverageTask final : RefineTask {
  std::map<int, CellCoverage> cells;  // ordered: simplifies the strided write
  std::vector<double> measures;       // reused per-cell scratch

  double orderInsensitiveSum(const geom::BatchSpan& span, const geom::Envelope& box) {
    measures.clear();
    measures.reserve(span.size());
    for (std::size_t k = 0; k < span.size(); ++k) measures.push_back(span.clippedMeasure(k, box));
    std::sort(measures.begin(), measures.end());
    double sum = 0;
    for (const double m : measures) sum += m;
    return sum;
  }

  void refineCellBatch(const GridSpec& grid, int cell, const geom::BatchSpan& r,
                       const geom::BatchSpan& s) override {
    const geom::Envelope box = grid.cellEnvelope(cell);
    CellCoverage& cov = cells[cell];
    cov.measureR += orderInsensitiveSum(r, box);
    cov.measureS += orderInsensitiveSum(s, box);
  }

  std::unique_ptr<RefineTask> makeWorker() override { return std::make_unique<CoverageTask>(); }

  void mergeWorker(RefineTask& worker) override {
    // Each cell is refined exactly once per run, so folding a worker's
    // entries adds each sorted-sum to a zero-initialized slot — the merge
    // is bit-identical to the serial accumulation.
    auto& w = static_cast<CoverageTask&>(worker);
    for (auto& [cell, cov] : w.cells) {
      CellCoverage& mine = cells[cell];
      mine.measureR += cov.measureR;
      mine.measureS += cov.measureS;
    }
    w.cells.clear();
  }
};

}  // namespace

OverlayStats gridCoverageOverlay(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& r,
                                 const DatasetHandle* s, const OverlayConfig& cfg) {
  CoverageTask task;
  OverlayStats stats;
  static_cast<FrameworkStats&>(stats) = runFilterRefine(comm, volume, r, s, cfg.framework, task);
  if (stats.recovery.died) return stats;  // dead ranks join no further collective

  // The collective write (and the totals reduction) runs on the
  // communicator the pipeline finished on — after a recovery that is the
  // survivors.
  mpi::Comm active = stats.activeComm ? *stats.activeComm : comm;
  const int p = active.size();
  const int cellCount = stats.grid.cellCount();
  constexpr std::uint64_t kRecordBytes = sizeof(CellCoverage);
  static_assert(sizeof(CellCoverage) == 16, "coverage record must be two doubles");

  // Rank 0 creates the shared row-major output file; everyone then opens
  // it collectively.
  if (active.rank() == 0) {
    volume.createOrReplace(cfg.outputPath,
                           std::make_shared<pfs::MemoryBackingStore>(
                               static_cast<std::uint64_t>(cellCount) * kRecordBytes));
  }
  active.barrier();

  const double writeStart = active.clock().now();
  io::File out = io::File::open(active, volume, cfg.outputPath);

  // My owned cells, ascending: every uniform cell whose partition cell
  // stats.cellOwner (launch ranks) assigns to this rank. Under an adaptive
  // partition map the raster stays keyed by *uniform* cells (the refine
  // sub-spans see uniform cells, so the output bytes are
  // scheme-independent), but a uniform cell is written by whichever rank
  // owns its partition cell. The task only has entries for non-empty
  // cells, so fill the gaps with zero records.
  const PartitionMap& pm = stats.partition;
  std::vector<int> myCells;
  for (int c = 0; c < cellCount; ++c) {
    if (stats.cellOwner[static_cast<std::size_t>(pm.groupOf(c))] == comm.rank()) {
      myCells.push_back(c);
    }
  }
  const bool strided = pm.isUniform() && p == comm.size() &&
                       stats.cellOwner == roundRobinOwners(stats.cellOwner.size(), p);
  std::vector<CellCoverage> mine;
  mine.reserve(myCells.size());
  for (const int c : myCells) {
    auto it = task.cells.find(c);
    mine.push_back(it == task.cells.end() ? CellCoverage{} : it->second);
  }

  const auto record = mpi::Datatype::contiguous(static_cast<int>(kRecordBytes), mpi::Datatype::byte());
  if (strided) {
    // Figure 4's view: record `rank` of every group of P records (the
    // round-robin cell ownership of a uniform map on the full launch
    // communicator), written collectively in one call.
    const auto filetype = record.resized(0, static_cast<std::uint64_t>(p) * kRecordBytes);
    out.setView(static_cast<std::uint64_t>(active.rank()) * kRecordBytes, mpi::Datatype::byte(),
                filetype);
    out.writeAtAll(0, mine.data(), static_cast<int>(mine.size()), record);
  } else if (!myCells.empty()) {
    // Rebalanced ownership is irregular, so the view is an indexed
    // filetype over this rank's cell ids (one record block per cell),
    // pinned to the raster extent — the same collective Level-3 write,
    // with MPI_Type_indexed instead of a stride.
    const std::vector<int> ones(myCells.size(), 1);
    const auto filetype = mpi::Datatype::indexed(ones, myCells, record)
                              .resized(0, static_cast<std::uint64_t>(cellCount) * kRecordBytes);
    out.setView(0, mpi::Datatype::byte(), filetype);
    out.writeAtAll(0, mine.data(), static_cast<int>(mine.size()), record);
  } else {
    // No owned cells: still participate in the collective write.
    out.setView(0, mpi::Datatype::byte(), record);
    out.writeAtAll(0, nullptr, 0, record);
  }
  stats.phases.comm += active.clock().now() - writeStart;
  stats.cellsWritten = mine.size();

  double localR = 0, localS = 0;
  for (const auto& cov : mine) {
    localR += cov.measureR;
    localS += cov.measureS;
  }
  stats.totalR = active.allreduceSum(localR);
  stats.totalS = active.allreduceSum(localS);
  return stats;
}

}  // namespace mvio::core
