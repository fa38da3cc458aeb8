#pragma once
// Grid-based overlay with row-major collective output — the scenario that
// motivates the paper's non-contiguous write support (Figure 4): "in a
// grid-based polygon overlay operation, the output needs to be written to
// a single file in which the storage order corresponds to that of the
// global grid data layout in row-major order. Since the spatial data is
// distributed among processes, this requires non-contiguous file writing.
// This ensures that the output file is same as if produced sequentially."
//
// The overlay product is a per-cell coverage raster: every geometry
// replicated to a cell is clipped to that cell (geom/clip.hpp), so the
// per-cell measures of each layer sum exactly to the layer's global
// measure — replication introduces no double counting. Each rank owns a
// set of grid cells and writes its records into the shared output file
// through a non-contiguous MPI file view with writeAtAll (Level 3): a
// regular strided view under the default round-robin ownership, or an
// indexed view over the rank's owned-cell list when skew-aware
// rebalancing (FrameworkConfig::rebalanceCells) has reassigned cells —
// either way the output file is identical to the sequentially produced
// raster.

#include <cstdint>
#include <string>

#include "core/framework.hpp"

namespace mvio::core {

/// One output record per grid cell (row-major in the output file).
struct CellCoverage {
  double measureR = 0;  ///< layer R: area (polygons) / length (lines) / count (points)
  double measureS = 0;  ///< layer S, or 0 for single-layer runs
};

struct OverlayConfig {
  FrameworkConfig framework;
  std::string outputPath = "overlay_coverage.bin";  ///< created on the volume
};

/// The pipeline's run result plus the overlay's totals. The collective
/// write's time lands in the inherited `phases.comm`.
struct OverlayStats : FrameworkStats {
  double totalR = 0;  ///< global sum of layer-R measures over all cells
  double totalS = 0;
  std::uint64_t cellsWritten = 0;  ///< this rank's output records
};

/// Run the overlay: filter-refine with a coverage-accumulating task, then
/// one collective non-contiguous write of the row-major coverage raster.
/// `s` may be null. Collective.
OverlayStats gridCoverageOverlay(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& r,
                                 const DatasetHandle* s, const OverlayConfig& cfg);

}  // namespace mvio::core
