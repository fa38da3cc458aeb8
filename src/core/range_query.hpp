#pragma once
// Batch range query — the paper's other framework exemplar ("for spatial
// query workload, the second collection can be treated as geometries from
// batch query").
//
// The batch is answered by the distributed index (core/indexing.hpp):
// the dataset is built into per-cell R-trees once, every rank runs the
// whole batch against the cells it owns (R-tree filter + exact refine +
// reference-point dedup), and per-query match counts are summed across
// ranks. Each rank already holds the full batch, so the boxes are never
// serialized, read or exchanged (DESIGN.md §6).

#include <cstdint>
#include <vector>

#include "core/indexing.hpp"

namespace mvio::core {

struct RangeQueryConfig {
  FrameworkConfig framework;
};

/// The index build's result plus the batch's total match count.
struct RangeQueryStats : IndexingStats {
  std::uint64_t totalMatches = 0;  ///< sum over all queries, all ranks
};

/// Run `queries` (rectangles, indexed 0..n-1 across all ranks: every rank
/// passes the SAME full batch) against the dataset. Returns global match
/// counts per query. Collective.
std::vector<std::uint64_t> batchRangeQuery(mpi::Comm& comm, pfs::Volume& volume,
                                           const DatasetHandle& data,
                                           const std::vector<geom::Envelope>& queries,
                                           const RangeQueryConfig& cfg,
                                           RangeQueryStats* stats = nullptr);

}  // namespace mvio::core
