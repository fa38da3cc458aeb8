#include "core/indexing.hpp"

#include <memory>

#include "geom/batch_shard.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mvio::core {

namespace {

constexpr std::uint32_t kManifestMagic = 0x4D53564Du;  // "MVSM" little-endian
// v2 appends the encoded partition map (length-prefixed, "" = uniform)
// between the grid shape and the trailing checksum.
constexpr std::uint32_t kManifestVersion = 2;

using util::putScalar;
using util::readScalar;

}  // namespace

void DistributedIndex::addBatch(geom::GeometryBatch&& b) {
  const std::size_t base = batch_.size();
  batch_.splice(std::move(b));
  for (std::size_t i = base; i < batch_.size(); ++i) {
    const int cell = batch_.cell(i);
    if (cell == geom::GeometryBatch::kNoCell) continue;
    CellIndex& ci = cells_[cell];
    ci.records.push_back(static_cast<std::uint32_t>(i));
    ci.stale = true;
    localGeometries_ += 1;
  }
}

void DistributedIndex::buildTrees() const {
  for (const auto& [cell, ci] : cells_) {
    if (!ci.stale) continue;
    ci.rtree = geom::RTree(fanout_);
    ci.rtree.bulkLoad(geom::BatchSpan(&batch_, ci.records.data(), ci.records.size()));
    ci.stale = false;
  }
}

std::uint64_t DistributedIndex::queryCount(const geom::Envelope& queryBox) const {
  std::uint64_t n = 0;
  query(queryBox, [&](std::size_t) { ++n; });
  return n;
}

void DistributedIndex::query(const geom::Envelope& queryBox,
                             const std::function<void(std::size_t)>& fn) const {
  if (queryBox.isNull()) return;
  for (const auto& [cell, ci] : cells_) {
    if (ci.stale) {
      // Lazy re-bulk-load: streaming adoption appended ids since the tree
      // was last packed (or it was never packed at all).
      ci.rtree = geom::RTree(fanout_);
      ci.rtree.bulkLoad(geom::BatchSpan(&batch_, ci.records.data(), ci.records.size()));
      ci.stale = false;
    }
    ci.rtree.visit(queryBox, [&](std::uint64_t k) {
      const std::size_t id = ci.records[static_cast<std::size_t>(k)];
      const geom::Envelope& env = batch_.envelope(id);
      // Reference-point deduplication across replicated copies. Cell ids
      // are partition cells, so the reference point resolves through the
      // map (== the grid lookup for uniform runs).
      const geom::Coord ref{std::max(env.minX(), queryBox.minX()),
                            std::max(env.minY(), queryBox.minY())};
      const int refCell = map_.isUniform() ? grid_.cellOfPoint(ref) : map_.cellOfPoint(ref);
      if (refCell != cell) return;
      // Exact refine straight on the batch record — no materialization.
      if (!geom::recordIntersectsBox(batch_, id, queryBox)) return;
      fn(id);
    });
  }
}

void DistributedIndex::saveShards(pfs::SpillStore& store, const std::string& base,
                                  std::uint64_t maxShardBytes) const {
  // Split the adopted batch into contiguous record ranges whose encoded
  // size stays under the bound (geom::forEachShardRange).
  std::uint64_t shards = 0;
  geom::forEachShardRange(batch_, maxShardBytes,
                          [&](std::size_t lo, std::size_t hi, std::uint64_t bytes) {
                            std::string blob;
                            blob.reserve(static_cast<std::size_t>(bytes));
                            geom::encodeShard(batch_, lo, hi, blob);
                            store.put(base + "." + std::to_string(shards), std::move(blob));
                            ++shards;
                          });

  std::string manifest;
  putScalar<std::uint32_t>(manifest, kManifestMagic);
  putScalar<std::uint32_t>(manifest, kManifestVersion);
  putScalar<std::uint64_t>(manifest, shards);
  putScalar<std::uint64_t>(manifest, localGeometries_);
  putScalar<std::uint64_t>(manifest, fanout_);
  const geom::Envelope& gb = grid_.bounds();
  putScalar<std::uint8_t>(manifest, gb.isNull() ? 1 : 0);
  putScalar<double>(manifest, gb.isNull() ? 0.0 : gb.minX());
  putScalar<double>(manifest, gb.isNull() ? 0.0 : gb.minY());
  putScalar<double>(manifest, gb.isNull() ? 0.0 : gb.maxX());
  putScalar<double>(manifest, gb.isNull() ? 0.0 : gb.maxY());
  putScalar<std::int32_t>(manifest, grid_.cellsX());
  putScalar<std::int32_t>(manifest, grid_.cellsY());
  const std::string mapBlob = map_.isUniform() ? std::string() : encodePartitionMap(map_);
  putScalar<std::uint32_t>(manifest, static_cast<std::uint32_t>(mapBlob.size()));
  util::putBytes(manifest, mapBlob.data(), mapBlob.size());
  // Checksum-before-trust, like the shards: covers every preceding byte.
  putScalar<std::uint64_t>(manifest, util::fnv1a(manifest.data(), manifest.size()));
  store.put(base + ".manifest", std::move(manifest));
}

DistributedIndex DistributedIndex::loadShards(pfs::SpillStore& store, const std::string& base,
                                              const std::vector<int>* cellOwner, int selfRank) {
  const std::string manifestName = base + ".manifest";
  MVIO_CHECK(store.contains(manifestName), "index shards: missing manifest " + manifestName);
  const std::string m = store.fetch(manifestName);
  // Fixed prefix through the grid shape, then the length-prefixed map
  // blob and the trailing checksum.
  constexpr std::size_t kFixedBytes = 4 + 4 + 8 + 8 + 8 + 1 + 4 * 8 + 4 + 4;
  MVIO_CHECK(m.size() >= kFixedBytes + 4 + 8, "index shards: truncated manifest");
  const auto mapBytes = static_cast<std::size_t>(readScalar<std::uint32_t>(m.data() + kFixedBytes));
  MVIO_CHECK(m.size() == kFixedBytes + 4 + mapBytes + 8, "index shards: truncated manifest");
  MVIO_CHECK(util::fnv1a(m.data(), m.size() - 8) ==
                 readScalar<std::uint64_t>(m.data() + m.size() - 8),
             "index shards: corrupted manifest (checksum mismatch)");
  MVIO_CHECK(readScalar<std::uint32_t>(m.data()) == kManifestMagic, "index shards: bad manifest magic");
  MVIO_CHECK(readScalar<std::uint32_t>(m.data() + 4) == kManifestVersion,
             "index shards: unsupported manifest version");
  const auto shards = readScalar<std::uint64_t>(m.data() + 8);
  const auto expectedRecords = readScalar<std::uint64_t>(m.data() + 16);
  const auto fanout = static_cast<std::size_t>(readScalar<std::uint64_t>(m.data() + 24));
  const bool nullGrid = readScalar<std::uint8_t>(m.data() + 32) != 0;
  const double minX = readScalar<double>(m.data() + 33);
  const double minY = readScalar<double>(m.data() + 41);
  const double maxX = readScalar<double>(m.data() + 49);
  const double maxY = readScalar<double>(m.data() + 57);
  const auto cellsX = readScalar<std::int32_t>(m.data() + 65);
  const auto cellsY = readScalar<std::int32_t>(m.data() + 69);

  DistributedIndex index;
  index.fanout_ = fanout;
  if (!nullGrid) index.grid_ = GridSpec(geom::Envelope(minX, minY, maxX, maxY), cellsX, cellsY);
  if (mapBytes > 0) {
    std::optional<PartitionMap> decoded =
        decodePartitionMap(std::string_view(m.data() + kFixedBytes + 4, mapBytes));
    MVIO_CHECK(decoded.has_value(), "index shards: corrupt partition map in manifest");
    index.map_ = std::move(*decoded);
  }

  for (std::uint64_t k = 0; k < shards; ++k) {
    const std::string name = base + "." + std::to_string(k);
    MVIO_CHECK(store.contains(name), "index shards: missing shard " + name);
    geom::GeometryBatch b;
    geom::decodeShard(store.fetch(name), b);
    if (cellOwner != nullptr) validateCellOwnership(b, *cellOwner, selfRank, "index shards");
    index.addBatch(std::move(b));
  }
  MVIO_CHECK(index.localGeometries_ == expectedRecords,
             "index shards: record count does not match the manifest");
  return index;
}

DistributedIndex DistributedIndex::fromBatch(geom::GeometryBatch&& batch, const GridSpec& grid) {
  DistributedIndex index;
  index.grid_ = grid;
  index.addBatch(std::move(batch));
  index.buildTrees();
  return index;
}

DistributedIndex buildDistributedIndex(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& data,
                                       const IndexingConfig& cfg, IndexingStats* stats) {
  DistributedIndex index;

  /// RefineTask that adopts the rank's post-exchange batch into the index
  /// through the appendable addBatch hook. No geometry is copied beyond
  /// the adoption splice, and no R-tree is packed per round — trees build
  /// once, below, after the last batch arrives.
  struct BuildTask final : RefineTask {
    DistributedIndex* index;

    void refineCellBatch(const GridSpec& /*grid*/, int /*cell*/, const geom::BatchSpan& /*r*/,
                         const geom::BatchSpan& /*s*/) override {
      // Grouping happens in addBatch from the adopted records' cell tags.
    }

    void adoptBatches(geom::GeometryBatch&& r, geom::GeometryBatch&& /*s*/) override {
      index->addBatch(std::move(r));
    }

    std::unique_ptr<RefineTask> makeWorker() override {
      // Refine is a no-op for index building (grouping happens at
      // adoption, which stays on the main task), so workers are stateless
      // shells that keep the threaded pipeline uniform.
      auto w = std::make_unique<BuildTask>();
      w->index = nullptr;
      return w;
    }

    void mergeWorker(RefineTask& /*worker*/) override {}
  };

  BuildTask task;
  task.index = &index;
  IndexingStats local;
  IndexingStats& st = stats != nullptr ? *stats : local;
  static_cast<FrameworkStats&>(st) =
      runFilterRefine(comm, volume, data, nullptr, cfg.framework, task);
  index.grid_ = st.grid;
  index.map_ = st.partition;
  // A dead rank adopted nothing and joins no further collective: its
  // (empty) index is returned as-is.
  if (st.recovery.died) return index;
  mpi::Comm active = st.activeComm ? *st.activeComm : comm;

  // Pack the per-cell R-trees now (rather than at first query) so the
  // build phase of the figure benches keeps pricing the whole build.
  mpi::CpuCharge charge(comm);
  index.buildTrees();
  st.phases.compute += charge.stop();

  if (stats != nullptr) stats->globalGeometries = active.allreduceSumU64(index.localGeometries());
  return index;
}

}  // namespace mvio::core
