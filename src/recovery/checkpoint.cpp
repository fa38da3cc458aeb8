#include "recovery/checkpoint.hpp"

#include <algorithm>

#include "core/exchange.hpp"
#include "core/partition_map.hpp"
#include "geom/batch_shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace mvio::recovery {

namespace {

using util::fnv1a;
using util::putScalar;
using util::readScalar;

constexpr std::uint32_t kSealMagic = 0x4743564Du;      // "MVCG" little-endian
constexpr std::uint32_t kManifestMagic = 0x5243564Du;  // "MVCR"
constexpr std::uint32_t kIngestMagic = 0x4943564Du;    // "MVCI"
constexpr std::uint32_t kBaseMagic = 0x4243564Du;      // "MVCB"
constexpr std::uint32_t kVersion = 1;
/// Ingest-manifest-only version: v2 holds the extent log (v1 held the
/// chunk counts of a log of parsed-batch blobs).
constexpr std::uint32_t kIngestVersion = 2;
/// Seal-only version: v2 appends the run's encoded partition map
/// (length-prefixed) between the manifest checksums and the trailing
/// checksum. The other blob codecs are unchanged and keep kVersion.
constexpr std::uint32_t kSealVersion = 2;

std::string manifestName(bool base, std::uint64_t epoch) {
  return base ? "base.manifest" : "ep" + std::to_string(epoch) + ".manifest";
}

std::string sealName(std::uint64_t epoch) { return "ep" + std::to_string(epoch) + ".seal"; }

/// Fetch a blob that may legitimately be absent. Returns false when it is.
bool fetchIfPresent(pfs::Volume& volume, const std::string& prefix, const std::string& name,
                    std::string& out, std::uint64_t* bytesRead) {
  pfs::SpillStore store(volume, prefix);
  if (!store.contains(name)) return false;
  out = store.fetch(name);
  if (bytesRead != nullptr) *bytesRead += out.size();
  return true;
}

}  // namespace

std::string rankPrefix(const std::string& dir, int worldRank) {
  return dir + "/rank" + std::to_string(worldRank);
}

std::string globalPrefix(const std::string& dir) { return dir + "/global"; }

std::string shardName(bool base, std::uint64_t epoch, int layer, std::uint64_t shard) {
  return (base ? "base" : "ep") + std::to_string(epoch) + "." + layerTag(layer) + "." +
         std::to_string(shard);
}

std::string encodeIngestManifest(const IngestLog& log) {
  std::string m;
  putScalar<std::uint32_t>(m, kIngestMagic);
  putScalar<std::uint32_t>(m, kIngestVersion);
  for (const std::vector<LoggedChunk>& chunks : log.chunks) {
    putScalar<std::uint64_t>(m, chunks.size());
    for (const LoggedChunk& c : chunks) {
      putScalar<std::uint64_t>(m, c.extents.size());
      putScalar<std::uint64_t>(m, c.crc);
      for (const core::FileExtent& e : c.extents) {
        putScalar<std::uint64_t>(m, e.offset);
        putScalar<std::uint64_t>(m, e.length);
      }
    }
  }
  putScalar<std::uint64_t>(m, fnv1a(m.data(), m.size()));
  return m;
}

std::string encodeShardSetManifest(const ShardSetManifest& set) {
  std::string m;
  putScalar<std::uint32_t>(m, set.base ? kBaseMagic : kManifestMagic);
  putScalar<std::uint32_t>(m, kVersion);
  putScalar<std::uint64_t>(m, set.epoch);
  putScalar<std::uint64_t>(m, set.rounds);
  for (int layer = 0; layer < 2; ++layer) {
    putScalar<std::uint64_t>(m, set.records[layer]);
    putScalar<std::uint64_t>(m, set.shards[layer].size());
    for (const auto& s : set.shards[layer]) {
      putScalar<std::uint64_t>(m, s.bytes);
      putScalar<std::uint64_t>(m, s.checksum);
    }
  }
  putScalar<std::uint64_t>(m, fnv1a(m.data(), m.size()));
  return m;
}

std::string encodeEpochSeal(const EpochSeal& seal) {
  std::string s;
  putScalar<std::uint32_t>(s, kSealMagic);
  putScalar<std::uint32_t>(s, kSealVersion);
  putScalar<std::uint64_t>(s, seal.epoch);
  putScalar<std::uint64_t>(s, seal.roundsCompleted);
  putScalar<std::uint32_t>(s, static_cast<std::uint32_t>(seal.worldSize));
  putScalar<std::uint32_t>(s, static_cast<std::uint32_t>(seal.cellOwner.size()));
  for (const int owner : seal.cellOwner) putScalar<std::int32_t>(s, owner);
  for (const std::uint64_t load : seal.cellLoads) putScalar<std::uint64_t>(s, load);
  for (const std::uint64_t c : seal.rankManifestChecksums) putScalar<std::uint64_t>(s, c);
  putScalar<std::uint32_t>(s, static_cast<std::uint32_t>(seal.partitionMap.size()));
  util::putBytes(s, seal.partitionMap.data(), seal.partitionMap.size());
  putScalar<std::uint64_t>(s, fnv1a(s.data(), s.size()));
  return s;
}

CheckpointCoordinator::CheckpointCoordinator(mpi::Comm& comm, pfs::Volume& volume,
                                             const core::StreamConfig& cfg,
                                             core::PhaseBreakdown* phases)
    : comm_(&comm),
      volume_(&volume),
      cfg_(cfg),
      phases_(phases),
      rankStore_(volume, rankPrefix(cfg_.checkpointDir, comm.worldRank())),
      pricer_(pfs::SpillPricer::onVolume(volume, comm.nodeId())) {}

void CheckpointCoordinator::charge(std::uint64_t bytes, bool isWrite, bool compaction) {
  const double t0 = comm_->clock().now();
  const double t = pricer_.seconds(bytes, isWrite, t0);
  comm_->clock().advanceBy(t);
  obs::traceSpanAt(compaction ? "compaction" : "checkpoint", t0, comm_->clock().now());
  obs::addCount(compaction ? (isWrite ? "compaction.write_bytes" : "compaction.read_bytes")
                           : (isWrite ? "checkpoint.write_bytes" : "checkpoint.read_bytes"),
                bytes);
  (compaction ? phases_->compaction : phases_->checkpoint) += t;
  if (isWrite) (compaction ? phases_->compactionBytes : phases_->checkpointBytes) += bytes;
}

void CheckpointCoordinator::put(const std::string& name, std::string bytes, bool compaction) {
  charge(bytes.size(), /*isWrite=*/true, compaction);
  rankStore_.put(name, std::move(bytes));
}

std::uint64_t CheckpointCoordinator::writeShardSet(ShardSetManifest& set,
                                                   geom::GeometryBatch (&batches)[2]) {
  for (int layer = 0; layer < 2; ++layer) {
    const geom::GeometryBatch& b = batches[layer];
    set.records[layer] = b.size();
    std::uint64_t k = 0;
    // The bounded-shard rule shared with migrateShards.
    geom::forEachShardRange(b, kMaxShardBytes, [&](std::size_t lo, std::size_t hi,
                                                   std::uint64_t bytes) {
      std::string blob;
      blob.reserve(static_cast<std::size_t>(bytes));
      geom::encodeShard(b, lo, hi, blob);
      set.shards[layer].push_back({blob.size(), geom::shardChecksum(blob)});
      put(shardName(set.base, set.epoch, layer, k++), std::move(blob), set.base);
    });
    batches[layer] = geom::GeometryBatch();
  }
  std::string m = encodeShardSetManifest(set);
  const std::uint64_t checksum = fnv1a(m.data(), m.size() - 8);
  put(manifestName(set.base, set.epoch), std::move(m), set.base);
  return checksum;
}

void CheckpointCoordinator::logChunk(int layer, const std::vector<core::FileExtent>& extents,
                                     std::string_view text) {
  if (!enabled()) return;
  std::uint64_t bytes = 0;
  for (const core::FileExtent& e : extents) bytes += e.length;
  MVIO_CHECK(bytes == text.size(), "extent log: the extents do not cover the chunk text");
  log_.chunks[layer].push_back({extents, util::crc32c(text.data(), text.size())});
}

void CheckpointCoordinator::sealIngest() {
  if (!enabled()) return;
  put("ing.manifest", encodeIngestManifest(log_));
}

void CheckpointCoordinator::noteRound(int layer, const geom::GeometryBatch& delivered) {
  if (!enabled()) return;
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    const int cell = delivered.cell(i);
    if (cell == geom::GeometryBatch::kNoCell) continue;
    if (cellLoads_.size() <= static_cast<std::size_t>(cell)) {
      cellLoads_.resize(static_cast<std::size_t>(cell) + 1, 0);
    }
    cellLoads_[static_cast<std::size_t>(cell)] += 1;
  }
  delta_[layer].splice(delivered);
}

bool CheckpointCoordinator::maybeCheckpoint(std::uint64_t globalRound,
                                            const std::vector<int>& cellOwner) {
  if (!enabled() || globalRound == 0 || globalRound % cfg_.checkpointEveryRounds != 0) {
    return false;
  }
  epoch_ += 1;

  // 1. Delta shards + per-rank manifest (rank-local writes).
  ShardSetManifest delta;
  delta.epoch = epoch_;
  delta.rounds = globalRound;
  const std::uint64_t manifestChecksum = writeShardSet(delta, delta_);

  // 2. Collective seal: global cumulative loads, every rank's manifest
  // checksum, and the cell→rank map, committed by rank 0's seal write.
  const std::size_t cells = cellOwner.size();
  std::vector<std::uint64_t> localLoads = cellLoads_;
  localLoads.resize(cells, 0);
  std::vector<std::uint64_t> globalLoads(cells, 0);
  if (!localLoads.empty()) {
    comm_->allreduce(localLoads.data(), globalLoads.data(), static_cast<int>(cells),
                     mpi::Datatype::uint64(), mpi::Op::sum());
  }
  std::vector<std::uint64_t> checksums(static_cast<std::size_t>(comm_->size()), 0);
  comm_->gather(&manifestChecksum, 1, mpi::Datatype::uint64(), checksums.data(), 0);

  if (comm_->rank() == 0) {
    EpochSeal sealData;
    sealData.epoch = epoch_;
    sealData.roundsCompleted = globalRound;
    sealData.worldSize = comm_->size();
    sealData.cellOwner = cellOwner;
    sealData.cellLoads = std::move(globalLoads);
    sealData.rankManifestChecksums = checksums;
    sealData.partitionMap = partitionMap_;
    std::string seal = encodeEpochSeal(sealData);
    if (cfg_.tearEpochSeal == epoch_) {
      // Torn-write injection: the writer "died" mid-seal. Recovery must
      // treat this epoch as never committed.
      seal.resize(seal.size() / 2);
    }
    charge(seal.size(), /*isWrite=*/true);
    pfs::SpillStore globalStore(*volume_, globalPrefix(cfg_.checkpointDir));
    globalStore.put(sealName(epoch_), std::move(seal));
  }
  // The seal write is the commit point; later rounds (and the kill point
  // itself) begin only after every rank leaves this barrier, so a sealed
  // epoch is either fully visible to recovery or not attempted.
  comm_->barrier();
  obs::traceInstant("checkpoint.seal", "epoch " + std::to_string(epoch_));
  phases_->checkpointEpochs += 1;
  maybeCompact(cellOwner);
  return true;
}

void CheckpointCoordinator::maybeCompact(const std::vector<int>& cellOwner) {
  const std::uint64_t every = cfg_.compaction.everyEpochs;
  if (every == 0 || epoch_ % every != 0) return;
  // A torn seal means this epoch never committed; folding up to it would
  // leave recovery with a base newer than the newest *valid* seal.
  if (cfg_.tearEpochSeal == epoch_) return;
  const std::uint64_t target =
      epoch_ > kCompactKeepEpochs ? epoch_ - kCompactKeepEpochs : 0;
  if (target == 0 || target <= baseEpoch_) return;

  const int me = comm_->worldRank();
  const std::string& dir = cfg_.checkpointDir;
  std::uint64_t readBytes = 0;

  // 1. Splice the current base (if any) and the folding epochs' deltas
  // back together, in epoch order — the same arrival-ordered
  // concatenation recovery would have produced, through the same
  // checksum, ownership and record-count checks.
  const std::vector<ShardSetManifest> sets = readShardSets(*volume_, dir, me, target, &readBytes);
  const bool hasBase = !sets.empty() && sets.front().base;
  MVIO_CHECK(hasBase == (baseEpoch_ != 0) && (!hasBase || sets.front().epoch == baseEpoch_),
             "compaction: base manifest missing or stale");
  geom::GeometryBatch folded[2];
  for (const ShardSetManifest& set : sets) {
    for (int layer = 0; layer < 2; ++layer) {
      loadShardSet(*volume_, dir, me, set, layer, cellOwner, folded[layer], &readBytes);
    }
  }
  charge(readBytes, /*isWrite=*/false, /*compaction=*/true);

  // 2. Write the new base shards, then commit with the base manifest.
  ShardSetManifest next;
  next.base = true;
  next.epoch = target;
  next.rounds = target * cfg_.checkpointEveryRounds;
  writeShardSet(next, folded);

  // 3. GC everything the new base supersedes: the old base and the folded
  // delta shards (their manifests stay — the seal scan validates against
  // them). Deletes are metadata operations: no time is charged, only the
  // reclaimed volume counted.
  std::uint64_t reclaimed = 0;
  for (const ShardSetManifest& set : sets) {
    for (int layer = 0; layer < 2; ++layer) {
      for (std::size_t k = 0; k < set.shards[layer].size(); ++k) {
        const std::string name = shardName(set.base, set.epoch, layer, k);
        if (rankStore_.contains(name)) {
          reclaimed += set.shards[layer][k].bytes;
          rankStore_.remove(name);
        }
      }
    }
  }
  phases_->reclaimedBytes += reclaimed;
  baseEpoch_ = target;
}

std::optional<EpochSeal> readEpochSeal(pfs::Volume& volume, const std::string& dir,
                                       std::uint64_t epoch, std::uint64_t* bytesRead) {
  std::string blob;
  if (!fetchIfPresent(volume, globalPrefix(dir), sealName(epoch), blob, bytesRead)) {
    return std::nullopt;
  }
  constexpr std::size_t kFixed = 4 + 4 + 8 + 8 + 4 + 4;
  if (blob.size() < kFixed + 4 + 8) return std::nullopt;
  if (readScalar<std::uint32_t>(blob.data()) != kSealMagic) return std::nullopt;
  if (readScalar<std::uint32_t>(blob.data() + 4) != kSealVersion) return std::nullopt;
  EpochSeal seal;
  seal.epoch = readScalar<std::uint64_t>(blob.data() + 8);
  seal.roundsCompleted = readScalar<std::uint64_t>(blob.data() + 16);
  seal.worldSize = static_cast<int>(readScalar<std::uint32_t>(blob.data() + 24));
  const auto cells = static_cast<std::size_t>(readScalar<std::uint32_t>(blob.data() + 28));
  // v2 layout: fixed header, owner/load arrays, manifest checksums, then
  // the length-prefixed partition map and the trailing checksum. Bound
  // both counts by the bytes left (by division: a crafted count must not
  // wrap the product) before any of them sizes an array.
  std::size_t left = blob.size() - (kFixed + 4 + 8);
  if (seal.worldSize < 1 || cells > left / (4 + 8)) return std::nullopt;
  left -= cells * (4 + 8);
  if (static_cast<std::size_t>(seal.worldSize) > left / 8) return std::nullopt;
  const std::size_t arraysEnd =
      kFixed + cells * (4 + 8) + static_cast<std::size_t>(seal.worldSize) * 8;
  const auto mapBytes = static_cast<std::size_t>(readScalar<std::uint32_t>(blob.data() + arraysEnd));
  const std::size_t expect = arraysEnd + 4 + mapBytes + 8;
  if (blob.size() != expect || seal.epoch != epoch) return std::nullopt;
  if (fnv1a(blob.data(), expect - 8) != readScalar<std::uint64_t>(blob.data() + expect - 8)) {
    return std::nullopt;
  }
  const char* p = blob.data() + kFixed;
  seal.cellOwner.resize(cells);
  for (std::size_t c = 0; c < cells; ++c, p += 4) {
    seal.cellOwner[c] = readScalar<std::int32_t>(p);
  }
  seal.cellLoads.resize(cells);
  for (std::size_t c = 0; c < cells; ++c, p += 8) {
    seal.cellLoads[c] = readScalar<std::uint64_t>(p);
  }
  seal.rankManifestChecksums.resize(static_cast<std::size_t>(seal.worldSize));
  for (auto& c : seal.rankManifestChecksums) {
    c = readScalar<std::uint64_t>(p);
    p += 8;
  }
  seal.partitionMap.assign(blob.data() + arraysEnd + 4, mapBytes);
  // Defense in depth: an embedded map must itself decode (its own magic,
  // canonical-grouping and checksum validation), not just survive the
  // seal's outer checksum.
  if (!seal.partitionMap.empty() && !core::decodePartitionMap(seal.partitionMap)) {
    return std::nullopt;
  }
  return seal;
}

std::optional<ShardSetManifest> readShardSetManifest(pfs::Volume& volume, const std::string& dir,
                                                     int worldRank, bool base, std::uint64_t epoch,
                                                     std::uint64_t* bytesRead) {
  std::string blob;
  if (!fetchIfPresent(volume, rankPrefix(dir, worldRank), manifestName(base, epoch), blob,
                      bytesRead)) {
    return std::nullopt;
  }
  if (blob.size() < 4 + 4 + 8 + 8 + 8) return std::nullopt;
  if (fnv1a(blob.data(), blob.size() - 8) !=
      readScalar<std::uint64_t>(blob.data() + blob.size() - 8)) {
    return std::nullopt;
  }
  if (readScalar<std::uint32_t>(blob.data()) != (base ? kBaseMagic : kManifestMagic)) {
    return std::nullopt;
  }
  if (readScalar<std::uint32_t>(blob.data() + 4) != kVersion) return std::nullopt;
  ShardSetManifest set;
  set.base = base;
  set.epoch = readScalar<std::uint64_t>(blob.data() + 8);
  set.rounds = readScalar<std::uint64_t>(blob.data() + 16);
  const char* p = blob.data() + 24;
  const char* end = blob.data() + blob.size() - 8;
  for (int layer = 0; layer < 2; ++layer) {
    if (end - p < 16) return std::nullopt;
    set.records[layer] = readScalar<std::uint64_t>(p);
    const auto shards = readScalar<std::uint64_t>(p + 8);
    p += 16;
    if (shards > static_cast<std::uint64_t>(end - p) / 16) return std::nullopt;
    set.shards[layer].resize(static_cast<std::size_t>(shards));
    for (auto& s : set.shards[layer]) {
      s.bytes = readScalar<std::uint64_t>(p);
      s.checksum = readScalar<std::uint64_t>(p + 8);
      p += 16;
    }
  }
  if (p != end || set.epoch == 0 || (epoch != 0 && set.epoch != epoch)) return std::nullopt;
  return set;
}

std::vector<ShardSetManifest> readShardSets(pfs::Volume& volume, const std::string& dir,
                                            int worldRank, std::uint64_t lastEpoch,
                                            std::uint64_t* bytesRead) {
  std::vector<ShardSetManifest> sets;
  if (std::optional<ShardSetManifest> base =
          readShardSetManifest(volume, dir, worldRank, /*base=*/true, 0, bytesRead)) {
    MVIO_CHECK(base->epoch <= lastEpoch,
               "checkpoint: base of rank " + std::to_string(worldRank) +
                   " is newer than epoch " + std::to_string(lastEpoch));
    sets.push_back(std::move(*base));
  }
  for (std::uint64_t e = sets.empty() ? 1 : sets.front().epoch + 1; e <= lastEpoch; ++e) {
    std::optional<ShardSetManifest> delta =
        readShardSetManifest(volume, dir, worldRank, /*base=*/false, e, bytesRead);
    MVIO_CHECK(delta.has_value(), "checkpoint: missing or corrupt epoch " + std::to_string(e) +
                                      " manifest of rank " + std::to_string(worldRank));
    sets.push_back(std::move(*delta));
  }
  return sets;
}

std::optional<EpochSeal> findLastSealedEpoch(pfs::Volume& volume, const std::string& dir,
                                             int worldSize, std::uint64_t maxEpoch,
                                             std::uint64_t* bytesRead, SealScanCache* cache) {
  for (std::uint64_t epoch = maxEpoch; epoch >= 1; --epoch) {
    if (cache != nullptr) {
      // Memoized verdicts: a fully validated seal is final (the blobs are
      // immutable once sealed), and a rejected epoch stays rejected.
      if (cache->validated && cache->validated->epoch == epoch) return cache->validated;
      if (std::find(cache->rejected.begin(), cache->rejected.end(), epoch) !=
          cache->rejected.end()) {
        continue;
      }
    }
    std::optional<EpochSeal> seal = readEpochSeal(volume, dir, epoch, bytesRead);
    bool complete = seal.has_value() && seal->worldSize == worldSize;
    for (int r = 0; r < worldSize && complete; ++r) {
      // The manifest must exist, re-checksum to the value the seal
      // recorded, and name this epoch — otherwise the epoch is partial.
      std::string blob;
      if (!fetchIfPresent(volume, rankPrefix(dir, r), manifestName(false, epoch), blob,
                          bytesRead) ||
          blob.size() < 8 ||
          fnv1a(blob.data(), blob.size() - 8) !=
              seal->rankManifestChecksums[static_cast<std::size_t>(r)]) {
        complete = false;
      }
    }
    if (complete) {
      if (cache != nullptr) cache->validated = seal;
      return seal;
    }
    if (cache != nullptr) cache->rejected.push_back(epoch);
  }
  return std::nullopt;
}

std::uint64_t loadShardSet(pfs::Volume& volume, const std::string& dir, int worldRank,
                           const ShardSetManifest& set, int layer,
                           const std::vector<int>& sealOwner, geom::GeometryBatch& out,
                           std::uint64_t* bytesRead) {
  const char* what = set.base ? "checkpoint base" : "checkpoint epoch delta";
  const std::size_t before = out.size();
  pfs::SpillStore store(volume, rankPrefix(dir, worldRank));
  for (std::size_t k = 0; k < set.shards[layer].size(); ++k) {
    const std::string name = shardName(set.base, set.epoch, layer, k);
    MVIO_CHECK(store.contains(name), std::string(what) + ": missing shard " + name);
    const std::string blob = store.fetch(name);
    if (bytesRead != nullptr) *bytesRead += blob.size();
    const ShardSetManifest::Shard& ref = set.shards[layer][k];
    // The ref pins the header word; decodeShard checks the header against
    // it and the payload against the header.
    MVIO_CHECK(blob.size() == ref.bytes && blob.size() >= geom::kShardHeaderBytes &&
                   geom::shardChecksum(blob) == ref.checksum,
               std::string(what) + ": shard " + name + " does not match its manifest");
    geom::GeometryBatch piece;
    geom::decodeShard(blob, piece);
    core::validateCellOwnership(piece, sealOwner, worldRank, what);
    out.splice(std::move(piece));
  }
  const std::uint64_t appended = out.size() - before;
  MVIO_CHECK(appended == set.records[layer],
             std::string(what) + ": record count does not match its manifest");
  return appended;
}

IngestLog readIngestLog(pfs::Volume& volume, const std::string& dir, int worldRank,
                        const std::array<std::uint64_t, 2>& inputBytes, std::uint64_t* bytesRead) {
  const std::string who = " for rank " + std::to_string(worldRank);
  std::string blob;
  MVIO_CHECK(fetchIfPresent(volume, rankPrefix(dir, worldRank), "ing.manifest", blob, bytesRead),
             "recovery: no ingest manifest" + who);
  MVIO_CHECK(blob.size() >= 4 + 4 + 8 + 8 + 8 &&
                 fnv1a(blob.data(), blob.size() - 8) ==
                     readScalar<std::uint64_t>(blob.data() + blob.size() - 8) &&
                 readScalar<std::uint32_t>(blob.data()) == kIngestMagic &&
                 readScalar<std::uint32_t>(blob.data() + 4) == kIngestVersion,
             "recovery: corrupt ingest manifest" + who);
  const char* p = blob.data() + 8;
  const char* const end = blob.data() + blob.size() - 8;
  const auto word = [&] {
    MVIO_CHECK(end - p >= 8, "recovery: truncated ingest manifest" + who);
    const auto w = readScalar<std::uint64_t>(p);
    p += 8;
    return w;
  };
  // A chunk and an extent each take 16 bytes: every count is bounded by
  // the bytes left, by division, before it sizes anything.
  const auto count = [&] {
    const std::uint64_t n = word();
    MVIO_CHECK(n <= static_cast<std::uint64_t>(end - p) / 16,
               "recovery: ingest manifest count exceeds its bytes" + who);
    return static_cast<std::size_t>(n);
  };
  IngestLog log;
  for (std::size_t layer = 0; layer < 2; ++layer) {
    log.chunks[layer].resize(count());
    for (LoggedChunk& c : log.chunks[layer]) {
      c.extents.resize(count());
      const std::uint64_t crc = word();
      MVIO_CHECK(crc <= UINT32_MAX, "recovery: corrupt ingest manifest" + who);
      c.crc = static_cast<std::uint32_t>(crc);
      for (core::FileExtent& e : c.extents) {
        e.offset = word();
        e.length = word();
        MVIO_CHECK(e.length <= inputBytes[layer] && e.offset <= inputBytes[layer] - e.length,
                   "recovery: ingest manifest extent ends past its input file" + who);
      }
    }
  }
  MVIO_CHECK(p == end, "recovery: corrupt ingest manifest" + who);
  return log;
}

void ChunkReadAhead::enqueue(const core::DatasetHandle& input, const LoggedChunk& chunk) {
  queue_.push_back({&input, &chunk, {}, 0});
}

void ChunkReadAhead::post() {
  const double now = comm_->clock().now();
  for (; posted_ < queue_.size(); ++posted_) {
    Pending& next = queue_[posted_];
    const std::shared_ptr<pfs::FileObject> file = volume_->lookup(next.input->path);
    std::uint64_t bytes = 0;
    for (const core::FileExtent& e : next.chunk->extents) {
      MVIO_CHECK(e.length <= file->data->size() && e.offset <= file->data->size() - e.length,
                 "recovery: logged extent ends past " + next.input->path);
      bytes += e.length;
    }
    const std::uint64_t width =
        file->stripe.stripeSize * static_cast<std::uint64_t>(file->stripe.stripeCount);
    if (posted_ > 0 && postedBytes_ + bytes > width) break;
    next.text.resize(static_cast<std::size_t>(bytes));
    std::size_t at = 0;
    next.done = now;
    for (const core::FileExtent& e : next.chunk->extents) {
      if (e.length == 0) continue;
      file->data->read(e.offset, next.text.data() + at, static_cast<std::size_t>(e.length));
      at += static_cast<std::size_t>(e.length);
      next.done = std::max(next.done, volume_->model().read(comm_->nodeId(), file->stripe,
                                                            e.offset, e.length, now));
    }
    postedBytes_ += bytes;
  }
}

std::uint64_t ChunkReadAhead::take(const LoggedChunk& chunk, geom::GeometryBatch& out) {
  MVIO_CHECK(!queue_.empty() && queue_.front().chunk == &chunk,
             "recovery: logged chunk re-read out of order");
  post();
  Pending front = std::move(queue_.front());
  queue_.pop_front();
  --posted_;
  postedBytes_ -= front.text.size();
  comm_->clock().advanceTo(front.done);
  post();
  MVIO_CHECK(util::crc32c(front.text.data(), front.text.size()) == chunk.crc,
             "recovery: " + front.input->path +
                 " changed since ingest (logged chunk checksum mismatch)");
  front.input->reader().parseAll(front.text, out);
  return front.text.size();
}

}  // namespace mvio::recovery
