#include "core/range_query.hpp"

#include <charconv>
#include <memory>

#include "geom/rtree.hpp"
#include "util/decimal.hpp"
#include "util/error.hpp"

namespace mvio::core {

namespace {

/// RefineTask matching data (layer R) against query boxes (layer S).
/// Query geometries carry their batch index in userData. Fully
/// batch-native: the filter phase bulk-loads an R-tree from arena
/// envelopes and the exact test runs in place on the batch records
/// (recordIntersectsBox) — no geometry is materialized on either side.
struct QueryTask final : RefineTask {
  explicit QueryTask(std::vector<std::uint64_t>* counts) : counts_(counts) {}

  void refineCellBatch(const GridSpec& grid, int cell, const geom::BatchSpan& r,
                       const geom::BatchSpan& s) override {
    if (r.empty() || s.empty()) return;
    geom::RTree index;
    index.bulkLoad(r);

    for (std::size_t k = 0; k < s.size(); ++k) {
      const std::string_view user = s.userData(k);
      std::size_t queryId = 0;
      const auto [ptr, ec] = std::from_chars(user.data(), user.data() + user.size(), queryId);
      MVIO_CHECK(ec == std::errc() && queryId < counts_->size(), "query geometry lost its batch index");
      const geom::Envelope qBox = s.envelope(k);
      index.visit(qBox, [&](std::uint64_t id) {
        const geom::Envelope& gEnv = r.envelope(id);
        const geom::Coord ref{std::max(gEnv.minX(), qBox.minX()), std::max(gEnv.minY(), qBox.minY())};
        if (grid.cellOfPoint(ref) != cell) return;
        if (!r.intersectsBox(static_cast<std::size_t>(id), qBox)) return;
        (*counts_)[queryId] += 1;
      });
    }
  }

  std::unique_ptr<RefineTask> makeWorker() override {
    auto w = std::make_unique<QueryTask>(nullptr);
    w->ownCounts_.assign(counts_->size(), 0);
    w->counts_ = &w->ownCounts_;
    return w;
  }

  void mergeWorker(RefineTask& worker) override {
    auto& w = static_cast<QueryTask&>(worker);
    for (std::size_t i = 0; i < counts_->size(); ++i) {
      (*counts_)[i] += w.ownCounts_[i];
      w.ownCounts_[i] = 0;
    }
  }

  std::vector<std::uint64_t>* counts_;
  std::vector<std::uint64_t> ownCounts_;  ///< worker-local hit counts
};

/// In-memory "parser" is not applicable for the query layer, so the batch
/// is injected after the framework's load step via a custom Parser that
/// replays pre-encoded query records. Each rank contributes a slice of the
/// batch to avoid duplicate injection.
class QueryBatchParser final : public Parser {
 public:
  bool parseRecord(std::string_view record, geom::Geometry& out) const override {
    // record: "<id> <minX> <minY> <maxX> <maxY>"
    std::size_t id = 0;
    double v[4] = {0, 0, 0, 0};
    const char* cur = record.data();
    const char* end = record.data() + record.size();
    auto skipSpace = [&] {
      while (cur < end && *cur == ' ') ++cur;
    };
    skipSpace();
    auto ri = std::from_chars(cur, end, id);
    MVIO_CHECK(ri.ec == std::errc(), "bad query record id");
    cur = ri.ptr;
    for (double& x : v) {
      skipSpace();
      auto rd = util::parseDouble(cur, end, x);
      MVIO_CHECK(rd.ec == std::errc(), "bad query record coordinate");
      cur = rd.ptr;
    }
    out = geom::Geometry::box(geom::Envelope(v[0], v[1], v[2], v[3]));
    out.userData = std::to_string(id);
    return true;
  }
};

}  // namespace

std::vector<std::uint64_t> batchRangeQuery(mpi::Comm& comm, pfs::Volume& volume,
                                           const DatasetHandle& data,
                                           const std::vector<geom::Envelope>& queries,
                                           const RangeQueryConfig& cfg, RangeQueryStats* stats) {
  MVIO_CHECK(!queries.empty(), "empty query batch");

  // Encode the batch as a virtual text dataset so the query layer flows
  // through the identical pipeline (partitioned read, parse, project,
  // exchange) as a real file layer.
  const std::string queryFile = "__query_batch_rank_all";
  if (comm.rank() == 0) {
    std::string all;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const geom::Envelope& q = queries[i];
      all += std::to_string(i) + " " + std::to_string(q.minX()) + " " + std::to_string(q.minY()) + " " +
             std::to_string(q.maxX()) + " " + std::to_string(q.maxY()) + "\n";
    }
    volume.createOrReplace(queryFile, std::make_shared<pfs::MemoryBackingStore>(std::move(all)));
  }
  comm.barrier();

  std::vector<std::uint64_t> counts(queries.size(), 0);
  QueryTask task(&counts);

  QueryBatchParser queryParser;
  DatasetHandle queryHandle;
  queryHandle.path = queryFile;
  queryHandle.parser = &queryParser;
  queryHandle.partition = PartitionConfig{};  // equal split, message strategy

  RangeQueryStats local;
  RangeQueryStats& st = stats != nullptr ? *stats : local;
  static_cast<FrameworkStats&>(st) =
      runFilterRefine(comm, volume, data, &queryHandle, cfg.framework, task);

  std::vector<std::uint64_t> global(queries.size(), 0);
  // Dead ranks join no further collective; their (empty) counts are
  // covered by the survivors' reduction.
  if (st.recovery.died) return global;
  mpi::Comm active = st.activeComm ? *st.activeComm : comm;

  // Reduce per-query counts across the live ranks.
  active.allreduce(counts.data(), global.data(), static_cast<int>(counts.size()),
                   mpi::Datatype::uint64(), mpi::Op::sum());

  st.totalMatches = 0;
  for (auto c : global) st.totalMatches += c;
  return global;
}

}  // namespace mvio::core
