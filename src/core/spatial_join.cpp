#include "core/spatial_join.hpp"

#include <algorithm>
#include <memory>

#include "geom/rtree.hpp"
#include "geom/wkb.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mvio::core {

namespace {

using util::fnv1a;

/// The join's refine test on record `i` of `r` and record `j` of `s`.
bool applyPredicate(JoinPredicate predicate, const geom::GeometryBatch& r, std::size_t i,
                    const geom::GeometryBatch& s, std::size_t j) {
  switch (predicate) {
    case JoinPredicate::kIntersects:
      return geom::recordIntersects(r, i, s, j);
    case JoinPredicate::kContains:
      return geom::recordContains(r, i, s, j);
  }
  return false;
}

/// RefineTask running the per-cell filter (R-tree) + refine (exact
/// predicate) with reference-point duplicate avoidance. Operates on batch
/// spans and never leaves the arenas: the filter index bulk-loads from
/// arena-resident envelopes, the refine runs the record predicates on the
/// two records in place, and the result keys hash WKB written straight
/// from the arenas (no Geometry, no per-pair WKB string).
class JoinTask final : public RefineTask {
 public:
  JoinTask(const JoinConfig& cfg, std::vector<JoinPair>* results)
      : cfg_(cfg), results_(results) {}

  void refineCellBatch(const GridSpec& grid, int cell, const geom::BatchSpan& r,
                       const geom::BatchSpan& s) override {
    if (r.empty() || s.empty()) return;

    // Filter: bulk-load an R-tree straight from R's arena-resident MBRs.
    geom::RTree index;
    index.bulkLoad(r);

    // Per-record key cache for this cell: computed lazily, batch-native.
    std::vector<std::uint64_t> rKeys(r.size());
    std::vector<char> rKeySet(r.size(), 0);
    auto keyOfR = [&](std::size_t id) {
      if (!rKeySet[id]) {
        rKeys[id] = geometryKey(r.batch(), r.recordIndex(id), scratch_);
        rKeySet[id] = 1;
      }
      return rKeys[id];
    };

    for (std::size_t k = 0; k < s.size(); ++k) {
      const geom::Envelope& sEnv = s.envelope(k);
      std::uint64_t sKey = 0;
      bool sKeySet = false;
      index.visit(sEnv, [&](std::uint64_t id) {
        ++candidates_;
        const geom::Envelope& rEnv = r.envelope(id);
        // Duplicate avoidance: only the cell containing the reference
        // point (lower-left corner of the MBR intersection) reports.
        const geom::Coord ref{std::max(rEnv.minX(), sEnv.minX()), std::max(rEnv.minY(), sEnv.minY())};
        if (grid.cellOfPoint(ref) != cell) return;
        if (!applyPredicate(cfg_.predicate, r.batch(), r.recordIndex(id), s.batch(), s.recordIndex(k))) {
          return;
        }
        ++pairs_;
        if (results_ != nullptr) {
          if (!sKeySet) {
            sKey = geometryKey(s.batch(), s.recordIndex(k), scratch_);
            sKeySet = true;
          }
          results_->push_back({keyOfR(static_cast<std::size_t>(id)), sKey});
        }
      });
    }
  }

  [[nodiscard]] std::uint64_t pairs() const { return pairs_; }
  [[nodiscard]] std::uint64_t candidates() const { return candidates_; }

  std::unique_ptr<RefineTask> makeWorker() override {
    auto w = std::make_unique<JoinTask>(cfg_, nullptr);
    if (results_ != nullptr) {
      w->ownResults_ = std::make_unique<std::vector<JoinPair>>();
      w->results_ = w->ownResults_.get();
    }
    return w;
  }

  void mergeWorker(RefineTask& worker) override {
    auto& w = static_cast<JoinTask&>(worker);
    pairs_ += w.pairs_;
    candidates_ += w.candidates_;
    w.pairs_ = 0;
    w.candidates_ = 0;
    if (results_ != nullptr && w.ownResults_ != nullptr) {
      results_->insert(results_->end(), w.ownResults_->begin(), w.ownResults_->end());
      w.ownResults_->clear();
    }
  }

 private:
  const JoinConfig& cfg_;
  std::vector<JoinPair>* results_;
  /// Worker clones stage pairs here; mergeWorker appends them to the main
  /// task's results in worker (= ascending cell) order.
  std::unique_ptr<std::vector<JoinPair>> ownResults_;
  std::string scratch_;  ///< reused WKB staging buffer for batch-native keys
  std::uint64_t pairs_ = 0;
  std::uint64_t candidates_ = 0;
};

}  // namespace

std::uint64_t geometryKey(const geom::Geometry& g) { return fnv1a(geom::writeWkb(g)); }

std::uint64_t geometryKey(const geom::GeometryBatch& b, std::size_t i, std::string& scratch) {
  scratch.clear();
  geom::appendWkb(b, i, scratch);
  return fnv1a(scratch);
}

JoinStats spatialJoin(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& r,
                      const DatasetHandle& s, const JoinConfig& cfg,
                      std::vector<JoinPair>* localResults) {
  JoinTask task(cfg, localResults);
  JoinStats stats;
  static_cast<FrameworkStats&>(stats) = runFilterRefine(comm, volume, r, &s, cfg.framework, task);
  stats.ownedRecords = stats.localR + stats.localS;
  if (stats.recovery.died) return stats;  // dead ranks join no further collective
  mpi::Comm active = stats.activeComm ? *stats.activeComm : comm;
  stats.localPairs = task.pairs();
  stats.globalPairs = active.allreduceSumU64(task.pairs());
  stats.candidatePairs = active.allreduceSumU64(task.candidates());
  return stats;
}

std::vector<JoinPair> serialJoin(const std::vector<geom::Geometry>& r,
                                 const std::vector<geom::Geometry>& s, JoinPredicate predicate) {
  // Encoded once, so the pair loop runs the record predicates as the
  // distributed refine does.
  geom::GeometryBatch rb;
  geom::GeometryBatch sb;
  for (const auto& g : r) rb.append(g, std::string_view());
  for (const auto& g : s) sb.append(g, std::string_view());
  std::vector<JoinPair> out;
  for (std::size_t i = 0; i < r.size(); ++i) {
    for (std::size_t j = 0; j < s.size(); ++j) {
      if (!rb.envelope(i).intersects(sb.envelope(j))) continue;
      if (!applyPredicate(predicate, rb, i, sb, j)) continue;
      out.push_back({geometryKey(r[i]), geometryKey(s[j])});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mvio::core
