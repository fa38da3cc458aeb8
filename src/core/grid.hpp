#pragma once
// Cellular-grid spatial partitioning (paper §4, Figures 1/2/5).
//
// After file partitioning, each rank projects its local geometries onto a
// uniform grid covering the global extent. A geometry is mapped to every
// cell its MBR overlaps (replication; duplicates are resolved later in
// the refine phase). Cells are the unit task: a rank-to-cell mapping
// (round-robin by default) assigns them to processes.
//
// The global extent comes from an MPI_UNION allreduce of per-rank local
// MBRs — the paper's flagship use of the spatial reduction operators.
//
// Cell lookup has two engines that differ at cell edges: the paper's
// R-tree over cellEnvelope rectangles (minX + k·cellW), and closed-form
// arithmetic, floor((x − minX)·invCellW), which cellOfPoint — the
// duplicate-avoidance lookup — shares. Being monotone, the arithmetic puts
// any point of a box in one of the box's cells; within an ulp of an edge
// the R-tree can miss that cell. The pipeline projects through the
// arithmetic; CellLocator serves bench_paper ablation_locator.

#include <cstdint>
#include <vector>

#include "geom/envelope.hpp"
#include "geom/geometry.hpp"
#include "geom/rtree.hpp"
#include "mpi/runtime.hpp"

namespace mvio::core {

/// Uniform grid over a bounding rectangle.
class GridSpec {
 public:
  GridSpec() = default;
  GridSpec(const geom::Envelope& bounds, int cellsX, int cellsY);

  /// A grid with ~`targetCells` cells, shaped to the bounds' aspect ratio.
  static GridSpec squarish(const geom::Envelope& bounds, int targetCells);

  [[nodiscard]] const geom::Envelope& bounds() const { return bounds_; }
  [[nodiscard]] int cellsX() const { return cellsX_; }
  [[nodiscard]] int cellsY() const { return cellsY_; }
  [[nodiscard]] int cellCount() const { return cellsX_ * cellsY_; }

  [[nodiscard]] geom::Envelope cellEnvelope(int cell) const;
  [[nodiscard]] int cellIdOf(int cx, int cy) const { return cy * cellsX_ + cx; }

  /// Cell owning a point (half-open cells; the max edge belongs to the
  /// last row/column). This is the duplicate-avoidance reference lookup.
  [[nodiscard]] int cellOfPoint(const geom::Coord& c) const;

  /// All cells whose rectangle intersects `box` (closed-form arithmetic).
  void overlappingCells(const geom::Envelope& box, std::vector<int>& out) const;

 private:
  geom::Envelope bounds_;
  int cellsX_ = 1;
  int cellsY_ = 1;
  // Cached cell extents and their inverses: cellOfPoint/overlappingCells
  // run once per geometry per lookup, so the per-call width()/cellsX_
  // divisions are replaced by one multiply.
  double cellW_ = 0.0;
  double cellH_ = 0.0;
  double invCellW_ = 0.0;  ///< 0 when the axis is degenerate
  double invCellH_ = 0.0;
};

/// Cell lookup through an R-tree of cell boundaries — the construction the
/// paper uses ("an R-tree is first built by inserting the individual cell
/// boundaries; the overlapping grid cells are determined by querying with
/// the geometry's MBR"). The pipeline does not use it (see above).
class CellLocator {
 public:
  explicit CellLocator(const GridSpec& grid);

  void overlappingCells(const geom::Envelope& box, std::vector<int>& out) const;

 private:
  const GridSpec* grid_;
  geom::RTree rtree_;
};

/// Round-robin rank-to-cell mapping (the paper's default task mapping).
inline int roundRobinOwner(int cell, int nprocs) { return cell % nprocs; }

/// Global grid construction: MPI_UNION-allreduce the local MBRs of
/// `localGeoms` across ranks, then lay a ~targetCells grid over the union.
GridSpec buildGlobalGrid(mpi::Comm& comm, const std::vector<geom::Geometry>& localGeoms,
                         int targetCells);

/// Same, from a precomputed local bounding rectangle (the batch pipeline
/// keeps per-record envelopes, so no geometry scan is needed here). A rank
/// with no data passes a null envelope.
GridSpec buildGlobalGrid(mpi::Comm& comm, const geom::Envelope& localBounds, int targetCells);

}  // namespace mvio::core
