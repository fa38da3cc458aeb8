#include <algorithm>
#include <map>
#include <numeric>
#include <optional>

#include "core/stages.hpp"

namespace mvio::core {

namespace {

/// Ascending union of two sorted cell-id lists.
std::vector<int> mergeCellLists(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

/// Refine dispatch through the partition map. Uniform maps call straight
/// through (partition cells *are* grid cells). Adaptive maps sub-bucket
/// the partition cell's records by uniform member cell — re-running the
/// same overlappingCells arithmetic projection used, keeping only members
/// of this partition cell — and refine each member separately, so every
/// task sees exactly the uniform cells, spans and duplicate-avoidance
/// geometry the uniform-grid run would have produced.
void refineThroughMap(RefineTask& task, const PartitionMap& map, int cell,
                      const geom::BatchSpan& r, const geom::BatchSpan& s) {
  if (map.isUniform()) {
    task.refineCellBatch(map.grid(), cell, r, s);
    return;
  }
  const GridSpec& grid = map.grid();
  // Ascending uniform member id; each layer's sub-list keeps span order.
  std::map<int, std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>> sub;
  std::vector<int> cells;
  const auto bucket = [&](const geom::BatchSpan& span, bool isR) {
    for (std::size_t k = 0; k < span.size(); ++k) {
      cells.clear();
      grid.overlappingCells(span.envelope(k), cells);
      for (const int u : cells) {
        if (map.groupOf(u) != cell) continue;
        auto& lists = sub[u];
        (isR ? lists.first : lists.second)
            .push_back(static_cast<std::uint32_t>(span.recordIndex(k)));
      }
    }
  };
  bucket(r, true);
  bucket(s, false);
  for (const auto& [u, lists] : sub) {
    // An empty sub-list must become a default span: BatchSpan::batch()
    // dereferences, and r/s themselves may be default spans here.
    const geom::BatchSpan subR =
        lists.first.empty()
            ? geom::BatchSpan()
            : geom::BatchSpan(&r.batch(), lists.first.data(), lists.first.size());
    const geom::BatchSpan subS =
        lists.second.empty()
            ? geom::BatchSpan()
            : geom::BatchSpan(&s.batch(), lists.second.data(), lists.second.size());
    task.refineCellBatch(grid, u, subR, subS);
  }
}

}  // namespace

void runRefine(mpi::Comm& comm, RefineTask& task, util::ThreadPool* pool,
               std::vector<std::unique_ptr<RefineTask>>& workers, std::uint64_t groupBudget,
               CellStore& ownedR, CellStore& ownedS, FrameworkStats& stats) {
  // 6: cell-major refine (DESIGN.md §10). Owned cells are visited in
  // ascending cell-id order and staged into bounded groups; each group is
  // cut into contiguous ascending-cell blocks, one per refine worker,
  // proportional to record weight. Because the blocks are contiguous and
  // the workers are merged back in worker order after every group, the
  // fold into the main task replays the ascending-cell order — results
  // are bit-identical at any thread count. Without refine workers the
  // main task is the one worker and runs each group inline. The stores
  // (not thread-safe) are only touched here on the main thread; workers
  // read read-only resident spans or staged per-cell batches (streaming,
  // one ranged reload per spilled segment, adopted by the task cell by
  // cell).
  const std::uint64_t reloadBase = ownedR.reloadBytes() + ownedS.reloadBytes();
  // Main-thread CPU (loop bookkeeping, group assembly, inline refine,
  // merges, adoption) is measured by mainTimer; each worker dispatch
  // charges its critical path (max worker CPU) on top.
  const double blockStart = comm.clock().now();
  const bool measureCells = obs::metricsOn();
  obs::traceBegin("compute");
  sim::ThreadCpuTimer mainTimer;
  double workerSeconds = 0;
  const bool streamingRefine = ownedR.streaming();
  const std::vector<int> cells = mergeCellLists(ownedR.cells(), ownedS.cells());
  stats.cellsOwned = cells.size();
  const PartitionMap& map = stats.partition;

  const bool parallelRefine = !workers.empty();
  const int nw = parallelRefine ? static_cast<int>(workers.size()) : 1;
  struct CellWork {
    int cell = 0;
    geom::GeometryBatch r, s;  // staged owned batches (streaming)
    std::vector<std::uint32_t> idxR, idxS;
    geom::BatchSpan spanR, spanS;
  };
  std::vector<CellWork> group;
  std::uint64_t groupBytes = 0;

  const auto sealGroupSpans = [&group] {
    // Spans are built only once the group stops growing: vector
    // growth moves the CellWork structs (batch arenas stay put, but
    // the idx vectors' addresses must be final).
    for (CellWork& w : group) {
      w.spanR = geom::BatchSpan(&w.r, w.idxR.data(), w.idxR.size());
      w.spanS = geom::BatchSpan(&w.s, w.idxS.data(), w.idxS.size());
    }
  };
  const auto dispatchGroup = [&] {
    if (group.empty()) return;
    std::uint64_t totalWeight = 0;
    for (const CellWork& w : group) totalWeight += w.spanR.size() + w.spanS.size() + 1;
    // Deterministic proportional cuts over the weighted prefix.
    std::vector<std::size_t> cut(static_cast<std::size_t>(nw) + 1, group.size());
    cut[0] = 0;
    std::uint64_t prefix = 0;
    std::size_t i = 0;
    for (int t = 0; t + 1 < nw; ++t) {
      const std::uint64_t target =
          totalWeight * static_cast<std::uint64_t>(t + 1) / static_cast<std::uint64_t>(nw);
      while (i < group.size() && prefix < target) {
        prefix += group[i].spanR.size() + group[i].spanS.size() + 1;
        ++i;
      }
      cut[static_cast<std::size_t>(t) + 1] = i;
    }
    // Workers have no obs context: per-cell seconds land in a plain
    // array each worker owns a disjoint slice of; the rank thread
    // feeds the histogram (and the worker lanes) after the region.
    std::vector<double> cellSeconds;
    if (measureCells) cellSeconds.assign(group.size(), 0.0);
    const auto refineBlock = [&](RefineTask& worker, int t) {
      for (std::size_t k = cut[static_cast<std::size_t>(t)];
           k < cut[static_cast<std::size_t>(t) + 1]; ++k) {
        std::optional<sim::ThreadCpuTimer> cellTimer;
        if (measureCells) cellTimer.emplace();
        refineThroughMap(worker, map, group[k].cell, group[k].spanR, group[k].spanS);
        if (cellTimer) cellSeconds[k] = cellTimer->elapsed();
      }
    };
    if (parallelRefine) {
      const util::PoolTiming pt = pool->runOnWorkers(
          [&](int t) { refineBlock(*workers[static_cast<std::size_t>(t)], t); });
      // Worker-lane spans: the region starts where the final
      // advanceBy(mainSeconds + workerSeconds) will place it — block
      // start plus main CPU so far plus earlier regions' critical paths.
      obs::traceWorkerSpans("compute", blockStart + mainTimer.elapsed() + workerSeconds,
                            pt.perWorker);
      workerSeconds += pt.cpuMax;
      stats.phases.workerCpu += pt.cpuSum;
      stats.phases.workerCritical += pt.cpuMax;
      for (int t = 0; t < nw; ++t) task.mergeWorker(*workers[static_cast<std::size_t>(t)]);
    } else {
      refineBlock(task, 0);
    }
    for (const double cs : cellSeconds) obs::observe("refine.cell_seconds", cs);
    if (streamingRefine) {
      // Per-cell adoption in ascending order, after the merge so the
      // task sees results before their backing arenas move.
      for (CellWork& w : group) task.adoptBatches(std::move(w.r), std::move(w.s));
    }
    group.clear();
    groupBytes = 0;
  };

  // Streaming groups close at groupBudget (0 without refine
  // workers: one cell per group, so refine memory stays the resident
  // tails plus one cell); a resident run is one group.
  for (const int cell : cells) {
    CellWork work;
    work.cell = cell;
    if (streamingRefine) {
      work.r = ownedR.takeCellAssembled(cell);
      work.s = ownedS.takeCellAssembled(cell);
      groupBytes += work.r.memoryBytes() + work.s.memoryBytes();
      work.idxR.resize(work.r.size());
      std::iota(work.idxR.begin(), work.idxR.end(), std::uint32_t{0});
      work.idxS.resize(work.s.size());
      std::iota(work.idxS.begin(), work.idxS.end(), std::uint32_t{0});
    } else {
      work.spanR = ownedR.cellSpan(cell);
      work.spanS = ownedS.cellSpan(cell);
    }
    group.push_back(std::move(work));
    stats.refinePeakBytes = std::max(
        stats.refinePeakBytes, ownedR.trackedBytes() + ownedS.trackedBytes() + groupBytes);
    if (streamingRefine && groupBytes >= groupBudget) {
      sealGroupSpans();
      dispatchGroup();
    }
  }
  if (streamingRefine) sealGroupSpans();
  dispatchGroup();
  if (!streamingRefine) {
    // Whole-run adoption, as in the one-shot pipeline (records migrated
    // away by rebalancing are kNoCell-tombstoned).
    task.adoptBatches(ownedR.takeResidentBatch(), ownedS.takeResidentBatch());
  }
  const double mainSeconds = mainTimer.elapsed();
  comm.clock().advanceBy(mainSeconds + workerSeconds);
  stats.phases.compute += mainSeconds + workerSeconds;
  obs::traceEnd("compute");
  stats.refinePeakBytes = std::max({stats.refinePeakBytes, ownedR.peakBytes(), ownedS.peakBytes()});
  // Only the refine loop's reloads; migration-extraction reloads are
  // priced in the spill phase and counted in FrameworkStats::spill.
  stats.phases.refineSpillBytes = ownedR.reloadBytes() + ownedS.reloadBytes() - reloadBase;
}

}  // namespace mvio::core
