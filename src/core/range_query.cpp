#include "core/range_query.hpp"

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace mvio::core {

std::vector<std::uint64_t> batchRangeQuery(mpi::Comm& comm, pfs::Volume& volume,
                                           const DatasetHandle& data,
                                           const std::vector<geom::Envelope>& queries,
                                           const RangeQueryConfig& cfg, RangeQueryStats* stats) {
  MVIO_CHECK(!queries.empty(), "empty query batch");

  RangeQueryStats local;
  RangeQueryStats& st = stats != nullptr ? *stats : local;
  const DistributedIndex index = buildDistributedIndex(comm, volume, data, {cfg.framework}, &st);

  std::vector<std::uint64_t> global(queries.size(), 0);
  // Dead ranks join no further collective; their (empty) counts are
  // covered by the survivors' reduction.
  if (st.recovery.died) return global;
  mpi::Comm active = st.activeComm ? *st.activeComm : comm;

  // Every rank holds the whole batch, so each answers it against its own
  // cells; the index's reference-point dedup makes the sum exact.
  std::vector<std::uint64_t> counts(queries.size(), 0);
  {
    obs::ScopedSpan span("compute");
    mpi::CpuCharge charge(comm);
    for (std::size_t q = 0; q < queries.size(); ++q) counts[q] = index.queryCount(queries[q]);
    st.phases.compute += charge.stop();
  }

  active.allreduce(counts.data(), global.data(), static_cast<int>(counts.size()),
                   mpi::Datatype::uint64(), mpi::Op::sum());

  st.totalMatches = 0;
  for (auto c : global) st.totalMatches += c;
  return global;
}

}  // namespace mvio::core
