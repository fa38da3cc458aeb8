#include "recovery/checkpoint.hpp"

#include <algorithm>

#include "core/exchange.hpp"
#include "core/partition_map.hpp"
#include "geom/batch_shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"
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
/// Seal-only version: v2 appends the run's encoded partition map
/// (length-prefixed) between the manifest checksums and the trailing
/// checksum. The other blob codecs are unchanged and keep kVersion.
constexpr std::uint32_t kSealVersion = 2;

std::string chunkName(int layer, std::uint64_t chunk) {
  return std::string("ing.") + layerTag(layer) + "." + std::to_string(chunk);
}

std::string baseManifestName() { return "base.manifest"; }

std::string deltaName(std::uint64_t epoch, int layer, std::uint64_t shard) {
  return "ep" + std::to_string(epoch) + "." + layerTag(layer) + "." + std::to_string(shard);
}

std::string manifestName(std::uint64_t epoch) { return "ep" + std::to_string(epoch) + ".manifest"; }

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

/// Split `b` into bounded shards (geom::forEachShardRange — the rule
/// shared with DistributedIndex::saveShards and migrateShards),
/// appending {bytes, checksum} refs and handing each blob to `emit`.
template <typename Emit>
void encodeDeltaShards(const geom::GeometryBatch& b, std::uint64_t maxShardBytes,
                       std::vector<RankEpochManifest::Shard>& refs, Emit&& emit) {
  std::uint64_t shard = 0;
  geom::forEachShardRange(b, maxShardBytes,
                          [&](std::size_t lo, std::size_t hi, std::uint64_t bytes) {
                            std::string blob;
                            blob.reserve(static_cast<std::size_t>(bytes));
                            geom::encodeShard(b, lo, hi, blob);
                            refs.push_back({blob.size(), fnv1a(blob.data(), blob.size())});
                            emit(shard++, std::move(blob));
                          });
}

}  // namespace

std::string rankPrefix(const std::string& dir, int worldRank) {
  return dir + "/rank" + std::to_string(worldRank);
}

std::string globalPrefix(const std::string& dir) { return dir + "/global"; }

std::string baseShardName(std::uint64_t baseEpoch, int layer, std::uint64_t shard) {
  return "base" + std::to_string(baseEpoch) + "." + layerTag(layer) + "." + std::to_string(shard);
}

std::string encodeIngestManifest(const IngestLog& log) {
  std::string m;
  putScalar<std::uint32_t>(m, kIngestMagic);
  putScalar<std::uint32_t>(m, kVersion);
  putScalar<std::uint64_t>(m, log.chunks[0]);
  putScalar<std::uint64_t>(m, log.chunks[1]);
  putScalar<std::uint64_t>(m, fnv1a(m.data(), m.size()));
  return m;
}

std::string encodeRankManifest(const RankEpochManifest& manifest) {
  std::string m;
  putScalar<std::uint32_t>(m, kManifestMagic);
  putScalar<std::uint32_t>(m, kVersion);
  putScalar<std::uint64_t>(m, manifest.epoch);
  putScalar<std::uint64_t>(m, manifest.globalRound);
  for (int layer = 0; layer < 2; ++layer) {
    putScalar<std::uint64_t>(m, manifest.records[layer]);
    putScalar<std::uint64_t>(m, manifest.shards[layer].size());
    for (const auto& s : manifest.shards[layer]) {
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

std::string encodeBaseManifest(const BaseManifest& base) {
  std::string m;
  putScalar<std::uint32_t>(m, kBaseMagic);
  putScalar<std::uint32_t>(m, kVersion);
  putScalar<std::uint64_t>(m, base.baseEpoch);
  putScalar<std::uint64_t>(m, base.roundsCovered);
  for (int layer = 0; layer < 2; ++layer) {
    putScalar<std::uint64_t>(m, base.records[layer]);
    putScalar<std::uint64_t>(m, base.shards[layer].size());
    for (const auto& s : base.shards[layer]) {
      putScalar<std::uint64_t>(m, s.bytes);
      putScalar<std::uint64_t>(m, s.checksum);
    }
  }
  putScalar<std::uint64_t>(m, fnv1a(m.data(), m.size()));
  return m;
}

CheckpointCoordinator::CheckpointCoordinator(mpi::Comm& comm, pfs::Volume& volume,
                                             CheckpointConfig cfg, core::PhaseBreakdown* phases)
    : comm_(&comm),
      volume_(&volume),
      cfg_(std::move(cfg)),
      phases_(phases),
      rankStore_(volume, rankPrefix(cfg_.dir, comm.worldRank())),
      pricer_(pfs::SpillPricer::onVolume(volume, comm.nodeId())) {}

void CheckpointCoordinator::charge(std::uint64_t bytes, bool isWrite) {
  const double t0 = comm_->clock().now();
  const double t = pricer_.seconds(bytes, isWrite, t0);
  comm_->clock().advanceBy(t);
  obs::traceSpanAt("checkpoint", t0, comm_->clock().now());
  obs::addCount(isWrite ? "checkpoint.write_bytes" : "checkpoint.read_bytes", bytes);
  phases_->checkpoint += t;
  if (isWrite) phases_->checkpointBytes += bytes;
}

void CheckpointCoordinator::put(const std::string& name, std::string bytes) {
  charge(bytes.size(), /*isWrite=*/true);
  rankStore_.put(name, std::move(bytes));
}

void CheckpointCoordinator::chargeCompact(std::uint64_t bytes, bool isWrite) {
  const double t0 = comm_->clock().now();
  const double t = pricer_.seconds(bytes, isWrite, t0);
  comm_->clock().advanceBy(t);
  obs::traceSpanAt("compaction", t0, comm_->clock().now());
  obs::addCount(isWrite ? "compaction.write_bytes" : "compaction.read_bytes", bytes);
  phases_->compaction += t;
  if (isWrite) phases_->compactionBytes += bytes;
}

void CheckpointCoordinator::setRoundSchedule(std::uint64_t roundsR, std::uint64_t roundsS) {
  roundsR_ = roundsR;
  roundsS_ = roundsS;
  scheduleKnown_ = true;
}

void CheckpointCoordinator::logChunk(int layer, const geom::GeometryBatch& chunk) {
  if (!enabled()) return;
  std::string blob;
  blob.reserve(geom::shardEncodedSize(chunk, 0, chunk.size()));
  geom::encodeShard(chunk, blob);
  chunkBytes_[layer].push_back(blob.size());
  put(chunkName(layer, chunks_[layer]), std::move(blob));
  chunks_[layer] += 1;
}

void CheckpointCoordinator::sealIngest() {
  if (!enabled()) return;
  IngestLog log;
  log.chunks[0] = chunks_[0];
  log.chunks[1] = chunks_[1];
  put("ing.manifest", encodeIngestManifest(log));
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
  if (!enabled() || globalRound == 0 || globalRound % cfg_.everyRounds != 0) return false;
  epoch_ += 1;

  // 1. Delta shards + per-rank manifest (rank-local writes).
  RankEpochManifest manifest;
  manifest.epoch = epoch_;
  manifest.globalRound = globalRound;
  for (int layer = 0; layer < 2; ++layer) {
    manifest.records[layer] = delta_[layer].size();
    encodeDeltaShards(delta_[layer], cfg_.maxShardBytes, manifest.shards[layer],
                      [&](std::uint64_t k, std::string blob) {
                        put(deltaName(epoch_, layer, k), std::move(blob));
                      });
    delta_[layer] = geom::GeometryBatch();
  }
  std::string m = encodeRankManifest(manifest);
  const std::uint64_t manifestChecksum = fnv1a(m.data(), m.size() - 8);
  put(manifestName(epoch_), std::move(m));

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
    const double st0 = comm_->clock().now();
    const double t = pricer_.seconds(seal.size(), /*isWrite=*/true, st0);
    comm_->clock().advanceBy(t);
    obs::traceSpanAt("checkpoint", st0, comm_->clock().now());
    obs::addCount("checkpoint.write_bytes", seal.size());
    phases_->checkpoint += t;
    phases_->checkpointBytes += seal.size();
    pfs::SpillStore globalStore(*volume_, globalPrefix(cfg_.dir));
    globalStore.put(sealName(epoch_), std::move(seal));
  }
  // The seal write is the commit point; later rounds (and the kill point
  // itself) begin only after every rank leaves this barrier, so a sealed
  // epoch is either fully visible to recovery or not attempted.
  comm_->barrier();
  obs::traceInstant("checkpoint.seal", "epoch " + std::to_string(epoch_));
  phases_->checkpointEpochs += 1;
  maybeCompact();
  return true;
}

void CheckpointCoordinator::maybeCompact() {
  if (cfg_.compactEveryEpochs == 0 || epoch_ % cfg_.compactEveryEpochs != 0) return;
  // A torn seal means this epoch never committed; folding up to it would
  // leave recovery with a base newer than the newest *valid* seal.
  if (cfg_.tearEpochSeal == epoch_) return;
  const std::uint64_t target =
      epoch_ > kCompactKeepEpochs ? epoch_ - kCompactKeepEpochs : 0;
  if (target == 0 || target <= baseEpoch_) return;

  const int me = comm_->worldRank();
  std::uint64_t readBytes = 0;

  // 1. Splice the current base (if any) and the folding epochs' deltas
  // back together, in epoch order — the same arrival-ordered
  // concatenation recovery would have produced.
  geom::GeometryBatch folded[2];
  std::optional<BaseManifest> oldBase;
  if (baseEpoch_ != 0) {
    oldBase = readBaseManifest(*volume_, cfg_.dir, me, &readBytes);
    MVIO_CHECK(oldBase.has_value() && oldBase->baseEpoch == baseEpoch_,
               "compaction: base manifest missing or stale");
    for (int layer = 0; layer < 2; ++layer) {
      for (std::size_t k = 0; k < oldBase->shards[layer].size(); ++k) {
        const std::string name = baseShardName(baseEpoch_, layer, k);
        MVIO_CHECK(rankStore_.contains(name), "compaction: missing base shard " + name);
        const std::string blob = rankStore_.fetch(name);
        readBytes += blob.size();
        geom::decodeShard(blob, folded[layer]);
      }
    }
  }
  std::vector<RankEpochManifest> foldedManifests;
  for (std::uint64_t e = baseEpoch_ + 1; e <= target; ++e) {
    std::optional<RankEpochManifest> man = readRankManifest(*volume_, cfg_.dir, me, e, &readBytes);
    MVIO_CHECK(man.has_value(), "compaction: epoch manifest " + std::to_string(e) + " unreadable");
    for (int layer = 0; layer < 2; ++layer) {
      for (std::size_t k = 0; k < man->shards[layer].size(); ++k) {
        const std::string name = deltaName(e, layer, k);
        MVIO_CHECK(rankStore_.contains(name), "compaction: missing delta shard " + name);
        const std::string blob = rankStore_.fetch(name);
        readBytes += blob.size();
        geom::decodeShard(blob, folded[layer]);
      }
    }
    foldedManifests.push_back(std::move(*man));
  }
  chargeCompact(readBytes, /*isWrite=*/false);

  // 2. Write the new base shards, then commit with the base manifest.
  BaseManifest next;
  next.baseEpoch = target;
  next.roundsCovered = target * cfg_.everyRounds;
  for (int layer = 0; layer < 2; ++layer) {
    next.records[layer] = folded[layer].size();
    encodeDeltaShards(folded[layer], cfg_.maxShardBytes, next.shards[layer],
                      [&](std::uint64_t k, std::string blob) {
                        chargeCompact(blob.size(), /*isWrite=*/true);
                        rankStore_.put(baseShardName(target, layer, k), std::move(blob));
                      });
  }
  std::string m = encodeBaseManifest(next);
  chargeCompact(m.size(), /*isWrite=*/true);
  rankStore_.put(baseManifestName(), std::move(m));

  // 3. GC everything the new base supersedes: the old base, the folded
  // delta shards (their manifests stay — the seal scan validates against
  // them), and the chunk-log rounds the base covers. Deletes are metadata
  // operations: no time is charged, only the reclaimed volume counted.
  std::uint64_t reclaimed = 0;
  if (oldBase.has_value()) {
    for (int layer = 0; layer < 2; ++layer) {
      for (std::size_t k = 0; k < oldBase->shards[layer].size(); ++k) {
        const std::string name = baseShardName(oldBase->baseEpoch, layer, k);
        if (rankStore_.contains(name)) {
          reclaimed += oldBase->shards[layer][k].bytes;
          rankStore_.remove(name);
        }
      }
    }
  }
  for (std::size_t i = 0; i < foldedManifests.size(); ++i) {
    const RankEpochManifest& man = foldedManifests[i];
    for (int layer = 0; layer < 2; ++layer) {
      for (std::size_t k = 0; k < man.shards[layer].size(); ++k) {
        const std::string name = deltaName(man.epoch, layer, k);
        if (rankStore_.contains(name)) {
          reclaimed += man.shards[layer][k].bytes;
          rankStore_.remove(name);
        }
      }
    }
  }
  if (scheduleKnown_) {
    const std::uint64_t coveredRounds =
        std::min(next.roundsCovered, roundsR_ + roundsS_);
    for (std::uint64_t t = truncatedRounds_ + 1; t <= coveredRounds; ++t) {
      const int layer = t <= roundsR_ ? 0 : 1;
      const std::uint64_t idx = layer == 0 ? t - 1 : t - roundsR_ - 1;
      if (idx >= chunkBytes_[layer].size()) continue;  // this rank logged fewer chunks
      const std::string name = chunkName(layer, idx);
      if (rankStore_.contains(name)) {
        reclaimed += chunkBytes_[layer][idx];
        rankStore_.remove(name);
      }
    }
    truncatedRounds_ = std::max(truncatedRounds_, coveredRounds);
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
  if (blob.size() < kFixed + 8) return std::nullopt;
  if (readScalar<std::uint32_t>(blob.data()) != kSealMagic) return std::nullopt;
  if (readScalar<std::uint32_t>(blob.data() + 4) != kSealVersion) return std::nullopt;
  EpochSeal seal;
  seal.epoch = readScalar<std::uint64_t>(blob.data() + 8);
  seal.roundsCompleted = readScalar<std::uint64_t>(blob.data() + 16);
  seal.worldSize = static_cast<int>(readScalar<std::uint32_t>(blob.data() + 24));
  const auto cells = static_cast<std::size_t>(readScalar<std::uint32_t>(blob.data() + 28));
  // v2 layout: fixed header, owner/load arrays, manifest checksums, then
  // the length-prefixed partition map and the trailing checksum.
  const std::size_t arraysEnd =
      kFixed + cells * (4 + 8) + static_cast<std::size_t>(seal.worldSize) * 8;
  if (blob.size() < arraysEnd + 4 + 8) return std::nullopt;
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

std::optional<RankEpochManifest> readRankManifest(pfs::Volume& volume, const std::string& dir,
                                                  int worldRank, std::uint64_t epoch,
                                                  std::uint64_t* bytesRead) {
  std::string blob;
  if (!fetchIfPresent(volume, rankPrefix(dir, worldRank), manifestName(epoch), blob, bytesRead)) {
    return std::nullopt;
  }
  if (blob.size() < 4 + 4 + 8 + 8 + 8) return std::nullopt;
  if (fnv1a(blob.data(), blob.size() - 8) !=
      readScalar<std::uint64_t>(blob.data() + blob.size() - 8)) {
    return std::nullopt;
  }
  if (readScalar<std::uint32_t>(blob.data()) != kManifestMagic) return std::nullopt;
  if (readScalar<std::uint32_t>(blob.data() + 4) != kVersion) return std::nullopt;
  RankEpochManifest manifest;
  manifest.epoch = readScalar<std::uint64_t>(blob.data() + 8);
  manifest.globalRound = readScalar<std::uint64_t>(blob.data() + 16);
  const char* p = blob.data() + 24;
  const char* end = blob.data() + blob.size() - 8;
  for (int layer = 0; layer < 2; ++layer) {
    if (p + 16 > end) return std::nullopt;
    manifest.records[layer] = readScalar<std::uint64_t>(p);
    const auto shards = readScalar<std::uint64_t>(p + 8);
    p += 16;
    if (static_cast<std::uint64_t>(end - p) < shards * 16) return std::nullopt;
    manifest.shards[layer].resize(static_cast<std::size_t>(shards));
    for (auto& s : manifest.shards[layer]) {
      s.bytes = readScalar<std::uint64_t>(p);
      s.checksum = readScalar<std::uint64_t>(p + 8);
      p += 16;
    }
  }
  if (p != end || manifest.epoch != epoch) return std::nullopt;
  return manifest;
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
      if (!fetchIfPresent(volume, rankPrefix(dir, r), manifestName(epoch), blob, bytesRead) ||
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

std::optional<BaseManifest> readBaseManifest(pfs::Volume& volume, const std::string& dir,
                                             int worldRank, std::uint64_t* bytesRead) {
  std::string blob;
  if (!fetchIfPresent(volume, rankPrefix(dir, worldRank), baseManifestName(), blob, bytesRead)) {
    return std::nullopt;
  }
  if (blob.size() < 4 + 4 + 8 + 8 + 8) return std::nullopt;
  if (fnv1a(blob.data(), blob.size() - 8) !=
      readScalar<std::uint64_t>(blob.data() + blob.size() - 8)) {
    return std::nullopt;
  }
  if (readScalar<std::uint32_t>(blob.data()) != kBaseMagic) return std::nullopt;
  if (readScalar<std::uint32_t>(blob.data() + 4) != kVersion) return std::nullopt;
  BaseManifest base;
  base.baseEpoch = readScalar<std::uint64_t>(blob.data() + 8);
  base.roundsCovered = readScalar<std::uint64_t>(blob.data() + 16);
  const char* p = blob.data() + 24;
  const char* end = blob.data() + blob.size() - 8;
  for (int layer = 0; layer < 2; ++layer) {
    if (p + 16 > end) return std::nullopt;
    base.records[layer] = readScalar<std::uint64_t>(p);
    const auto shards = readScalar<std::uint64_t>(p + 8);
    p += 16;
    if (static_cast<std::uint64_t>(end - p) < shards * 16) return std::nullopt;
    base.shards[layer].resize(static_cast<std::size_t>(shards));
    for (auto& s : base.shards[layer]) {
      s.bytes = readScalar<std::uint64_t>(p);
      s.checksum = readScalar<std::uint64_t>(p + 8);
      p += 16;
    }
  }
  if (p != end || base.baseEpoch == 0) return std::nullopt;
  return base;
}

std::uint64_t loadBaseCheckpoint(pfs::Volume& volume, const std::string& dir, int worldRank,
                                 const BaseManifest& base, int layer,
                                 const std::vector<int>& sealOwner, geom::GeometryBatch& out,
                                 std::uint64_t* bytesRead) {
  const std::size_t before = out.size();
  pfs::SpillStore store(volume, rankPrefix(dir, worldRank));
  for (std::size_t k = 0; k < base.shards[layer].size(); ++k) {
    const std::string name = baseShardName(base.baseEpoch, layer, k);
    MVIO_CHECK(store.contains(name), "recovery: missing base checkpoint shard " + name);
    const std::string blob = store.fetch(name);
    if (bytesRead != nullptr) *bytesRead += blob.size();
    const RankEpochManifest::Shard& ref = base.shards[layer][k];
    MVIO_CHECK(blob.size() == ref.bytes && fnv1a(blob.data(), blob.size()) == ref.checksum,
               "recovery: base checkpoint shard " + name + " does not match its manifest");
    geom::GeometryBatch piece;
    geom::decodeShard(blob, piece);
    core::validateCellOwnership(piece, sealOwner, worldRank, "recovery base checkpoint");
    out.splice(std::move(piece));
  }
  const std::uint64_t appended = out.size() - before;
  MVIO_CHECK(appended == base.records[layer],
             "recovery: base checkpoint record count does not match its manifest");
  return appended;
}

std::uint64_t loadEpochDelta(pfs::Volume& volume, const std::string& dir, int worldRank,
                             const RankEpochManifest& manifest, int layer,
                             const std::vector<int>& sealOwner, geom::GeometryBatch& out,
                             std::uint64_t* bytesRead) {
  const std::size_t before = out.size();
  pfs::SpillStore store(volume, rankPrefix(dir, worldRank));
  for (std::size_t k = 0; k < manifest.shards[layer].size(); ++k) {
    const std::string name = deltaName(manifest.epoch, layer, k);
    MVIO_CHECK(store.contains(name), "recovery: missing epoch delta shard " + name);
    const std::string blob = store.fetch(name);
    if (bytesRead != nullptr) *bytesRead += blob.size();
    const RankEpochManifest::Shard& ref = manifest.shards[layer][k];
    MVIO_CHECK(blob.size() == ref.bytes && fnv1a(blob.data(), blob.size()) == ref.checksum,
               "recovery: epoch delta shard " + name + " does not match its manifest");
    geom::GeometryBatch piece;
    geom::decodeShard(blob, piece);
    core::validateCellOwnership(piece, sealOwner, worldRank, "recovery epoch delta");
    out.splice(std::move(piece));
  }
  const std::uint64_t appended = out.size() - before;
  MVIO_CHECK(appended == manifest.records[layer],
             "recovery: epoch delta record count does not match the manifest");
  return appended;
}

IngestLog readIngestLog(pfs::Volume& volume, const std::string& dir, int worldRank,
                        std::uint64_t* bytesRead) {
  std::string blob;
  MVIO_CHECK(fetchIfPresent(volume, rankPrefix(dir, worldRank), "ing.manifest", blob, bytesRead),
             "recovery: rank " + std::to_string(worldRank) + " has no ingest manifest");
  constexpr std::size_t kBytes = 4 + 4 + 8 + 8 + 8;
  MVIO_CHECK(blob.size() == kBytes &&
                 fnv1a(blob.data(), kBytes - 8) == readScalar<std::uint64_t>(blob.data() + kBytes - 8) &&
                 readScalar<std::uint32_t>(blob.data()) == kIngestMagic &&
                 readScalar<std::uint32_t>(blob.data() + 4) == kVersion,
             "recovery: corrupt ingest manifest for rank " + std::to_string(worldRank));
  IngestLog log;
  log.chunks[0] = readScalar<std::uint64_t>(blob.data() + 8);
  log.chunks[1] = readScalar<std::uint64_t>(blob.data() + 16);
  return log;
}

std::uint64_t loadLoggedChunk(pfs::Volume& volume, const std::string& dir, int worldRank,
                              int layer, std::uint64_t chunk, geom::GeometryBatch& out,
                              std::uint64_t* bytesRead) {
  std::string blob;
  MVIO_CHECK(fetchIfPresent(volume, rankPrefix(dir, worldRank), chunkName(layer, chunk), blob,
                            bytesRead),
             "recovery: missing logged chunk " + chunkName(layer, chunk) + " of rank " +
                 std::to_string(worldRank));
  return geom::decodeShard(blob, out);
}

}  // namespace mvio::recovery
