#pragma once
// Batch range query — the paper's other framework exemplar ("for spatial
// query workload, the second collection can be treated as geometries from
// batch query").
//
// A batch of rectangle queries is treated as layer S of the framework:
// queries are projected to grid cells and exchanged exactly like data
// geometries, each cell matches its local data against its local queries
// (R-tree filter + exact refine + reference-point dedup), and per-query
// match counts are reduced across ranks.

#include <cstdint>
#include <vector>

#include "core/framework.hpp"

namespace mvio::core {

struct RangeQueryConfig {
  FrameworkConfig framework;
};

/// The pipeline's run result plus the batch's total match count.
struct RangeQueryStats : FrameworkStats {
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
