#pragma once
// Distributed spatial join (paper §2 "Spatial Join", §5.2 evaluation).
//
// Given layers R and S and a predicate θ, returns all pairs (r, s) with
// θ(r, s) true. Filter: per-cell R-tree over R's MBRs queried with each
// s's MBR. Refine: exact geometry predicate. Duplicate avoidance uses the
// reference-point rule: a pair found in a cell is reported only when the
// lower-left corner of the MBR intersection falls inside that cell —
// replicated geometries therefore produce each result exactly once
// ("duplicate avoidance is carried out later in the refinement phase").

#include <cstdint>
#include <vector>

#include "core/framework.hpp"

namespace mvio::core {

enum class JoinPredicate {
  kIntersects,  ///< shares any point (the paper's example operation)
  kContains,    ///< r contains s
};

struct JoinConfig {
  FrameworkConfig framework;
  JoinPredicate predicate = JoinPredicate::kIntersects;
};

/// One result pair, identified by content hashes of the geometries (stable
/// across ranks and runs; used for validation against the serial join).
struct JoinPair {
  std::uint64_t keyR = 0;
  std::uint64_t keyS = 0;

  friend bool operator==(const JoinPair& a, const JoinPair& b) {
    return a.keyR == b.keyR && a.keyS == b.keyS;
  }
  friend bool operator<(const JoinPair& a, const JoinPair& b) {
    return a.keyR != b.keyR ? a.keyR < b.keyR : a.keyS < b.keyS;
  }
};

/// The pipeline's run result (phases, grid, balance, recovery, spill, ...)
/// plus what the join adds on top of it.
struct JoinStats : FrameworkStats {
  std::uint64_t localPairs = 0;      ///< pairs this rank reported
  std::uint64_t globalPairs = 0;     ///< allreduced total
  std::uint64_t candidatePairs = 0;  ///< global filter-phase candidates
  std::uint64_t ownedRecords = 0;    ///< geometries this rank refined (post-exchange, both layers)
};

/// Content hash used for JoinPair keys (FNV-1a over the WKB encoding).
std::uint64_t geometryKey(const geom::Geometry& g);

/// Batch-native form: hashes record `i`'s WKB written straight from the
/// arenas into `scratch` (reused across calls, no Geometry materialized).
/// Identical to geometryKey(b.materialize(i)) because writeWkbTo writes
/// the same bytes as writeWkb — tests/test_spill_stream.cpp asserts it.
std::uint64_t geometryKey(const geom::GeometryBatch& b, std::size_t i, std::string& scratch);

/// Run the distributed join. Collective. When `localResults` is non-null
/// it receives this rank's result pairs (for validation).
JoinStats spatialJoin(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& r,
                      const DatasetHandle& s, const JoinConfig& cfg,
                      std::vector<JoinPair>* localResults = nullptr);

/// Serial reference join over two in-memory collections (nested loop with
/// envelope prefilter). Used by tests and the correctness harness.
std::vector<JoinPair> serialJoin(const std::vector<geom::Geometry>& r,
                                 const std::vector<geom::Geometry>& s, JoinPredicate predicate);

}  // namespace mvio::core
