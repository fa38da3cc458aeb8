#pragma once
// Distributed spatial indexing (paper Figure 20: "in-memory spatial
// indexing of Road Network (137 GB) ... using 320 processes, spatial
// indexing of 717M edges takes only 90 seconds").
//
// The pipeline is the single-layer variant of the framework: partitioned
// read, parse, grid projection, all-to-all exchange, then a bulk-loaded
// R-tree per owned cell. The index is batch-native end to end: it adopts
// the rank's post-exchange GeometryBatch wholesale (no per-record copies
// or materialized Geometry objects), per-cell R-trees bulk-load from the
// arena-resident MBRs, and queries run filter + exact refine directly
// against batch records (recordIntersectsBox).
//
// Adoption is *incremental* (DESIGN.md §7): addBatch() splices a batch
// onto the index's arenas and appends its record ids to the per-cell
// lists, marking touched cells stale; stale R-trees re-bulk-load lazily
// at first query (or eagerly via buildTrees()), so a streaming run that
// delivers many batches pays one tree build per cell, not one per round.
// The resulting DistributedIndex answers rectangle queries against the
// rank's own cells; a query's global count is the sum of the ranks' local
// counts, which is what batchRangeQuery (core/range_query.hpp) reduces.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/framework.hpp"
#include "geom/rtree.hpp"

namespace mvio::core {

struct IndexingConfig {
  FrameworkConfig framework;
};

/// Per-rank result: one R-tree per owned cell over records of one adopted
/// GeometryBatch. Build and query perform zero per-record geom::Geometry
/// heap allocations; materialize() is the only record-granularity API
/// that allocates.
class DistributedIndex {
 public:
  struct CellIndex {
    std::vector<std::uint32_t> records;  ///< record ids into batch()
    /// Entry ids are positions into `records`. Mutable + dirty: addBatch
    /// only appends ids; the tree re-bulk-loads lazily on first query.
    mutable geom::RTree rtree;
    mutable bool stale = true;
  };

  [[nodiscard]] const GridSpec& grid() const { return map_.grid(); }
  /// The partition map the records were exchanged under. Cell ids in
  /// cells_ are *partition* cells; queries visit the cells the map says a
  /// box overlaps, and the reference-point dedup resolves through the same
  /// map or replicated records double-count. fromBatch uses the uniform
  /// map (ids == grid cells).
  [[nodiscard]] const PartitionMap& partition() const { return map_; }
  [[nodiscard]] std::size_t cellCount() const { return cells_.size(); }
  [[nodiscard]] std::uint64_t localGeometries() const { return localGeometries_; }
  /// The records this index serves, in the pipeline's arena layout. Views
  /// into it (coordsOf/userData/...) live as long as the index — until the
  /// next addBatch(), whose splice may reallocate the arenas.
  [[nodiscard]] const geom::GeometryBatch& batch() const { return batch_; }

  /// Incremental adoption: splice `b` onto the index's batch and append
  /// its records (skipping kNoCell tombstones) to the per-cell id lists.
  /// Touched cells are marked stale for lazy re-bulk-loading. Callable any
  /// number of times — this is the appendable form of adoptBatches.
  void addBatch(geom::GeometryBatch&& b);

  /// Eagerly (re)build every stale per-cell R-tree (what a query would do
  /// lazily). The collective build calls this once so query latency — and
  /// the benches' build/query split — stays honest.
  void buildTrees() const;

  /// Count local records whose MBR intersects `query` and whose exact
  /// geometry intersects it too (filter + refine), deduplicated with the
  /// reference-point rule so global sums are exact. Only the owned cells
  /// the box overlaps are searched. Allocation-free per record once trees
  /// are built: the exact test runs in place on the batch.
  [[nodiscard]] std::uint64_t queryCount(const geom::Envelope& query) const;

  /// Visit matching local records by batch record id; read them through
  /// batch() or materialize(id).
  void query(const geom::Envelope& query, const std::function<void(std::size_t)>& fn) const;

  /// Rebuild one matched record as a standalone Geometry (allocates).
  [[nodiscard]] geom::Geometry materialize(std::size_t id) const { return batch_.materialize(id); }

  /// Build locally from an already cell-tagged batch — the single-rank
  /// form of the MPI build (the collective path produces exactly this per
  /// rank), with geom::RTree's default fanout. Used by tests and the micro
  /// benches. Trees are built eagerly.
  static DistributedIndex fromBatch(geom::GeometryBatch&& batch, const GridSpec& grid);

 private:
  friend DistributedIndex buildDistributedIndex(mpi::Comm&, pfs::Volume&, const DatasetHandle&,
                                                const IndexingConfig&, struct IndexingStats*);

  /// Pack one cell's R-tree from its record ids and clear its stale mark.
  void packTree(const CellIndex& ci) const;

  PartitionMap map_;  ///< uniform unless the build ran an adaptive scheme
  geom::GeometryBatch batch_;
  std::unordered_map<int, CellIndex> cells_;
  std::uint64_t localGeometries_ = 0;
};

/// The pipeline's run result plus the global index size. Packing the
/// per-cell R-trees after the pipeline lands in the inherited
/// `phases.compute`.
struct IndexingStats : FrameworkStats {
  std::uint64_t globalGeometries = 0;  ///< geometries indexed across ranks (incl. replicas)
};

/// Build the distributed index over one dataset. Collective.
DistributedIndex buildDistributedIndex(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& data,
                                       const IndexingConfig& cfg, IndexingStats* stats = nullptr);

}  // namespace mvio::core
