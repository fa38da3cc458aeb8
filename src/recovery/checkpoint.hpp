#pragma once
// Epoch-stamped checkpointing for the streaming pipeline (DESIGN.md §9).
//
// The filter-refine rounds assume every rank survives the run; at scale
// that assumption fails, and restarting a multi-hour ingest because one
// rank died is unacceptable. This module makes the pipeline's state
// recoverable by persisting two kinds of durable, self-describing blobs
// on the pfs::Volume (both reuse the checksummed BatchShard codec the
// spill and migration paths already speak):
//
//  * Chunk log (write-ahead): at ingest time every parsed chunk is
//    written to "<dir>/rank<w>/ing.<layer>.<i>" before any exchange
//    round runs, plus a per-rank "ing.manifest" recording the chunk
//    counts. Because projection and ownership are deterministic, any
//    survivor can later re-derive any round's deliveries from these
//    blobs alone — no re-read of the input file, and no dependence on
//    the ring protocol of the kMessage partitioner.
//
//  * Epoch checkpoints: every StreamConfig::checkpointEveryRounds data
//    rounds, each rank writes the records that arrived in its owned
//    cells since the previous epoch as delta shards
//    ("<dir>/rank<w>/ep<E>.<layer>.<k>") plus a checksummed per-rank
//    manifest; rank 0 then seals the epoch with a global manifest
//    ("<dir>/global/ep<E>.seal": epoch id, rounds completed, the
//    cell→rank map, global per-cell loads, and every rank's manifest
//    checksum). The seal is written last — it is the commit point, so a
//    torn or partial epoch (missing seal, truncated seal, corrupt or
//    missing rank manifest) is detectable and recovery falls back to the
//    previous sealed epoch.
//
// The concatenation of a rank's delta shards over epochs 1..E is exactly
// the records delivered to it in rounds 1..roundsCompleted(E) — the
// arrival-ordered owned-cell state DistributedIndex::loadShards-style
// consumers splice back together. Recovery (recovery.hpp) restores a
// dead rank's cells from these deltas and replays everything after the
// seal from the chunk log.
//
// All durable traffic is priced through the Volume's storage model
// (pfs::SpillPricer::onVolume — checkpoints contend with every other
// rank's PFS traffic) and lands in PhaseBreakdown::{checkpoint,
// checkpointBytes, checkpointEpochs}.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/phases.hpp"
#include "geom/geometry_batch.hpp"
#include "mpi/runtime.hpp"
#include "pfs/spill_store.hpp"
#include "pfs/volume.hpp"

namespace mvio::recovery {

struct CheckpointConfig {
  std::uint64_t everyRounds = 0;  ///< seal an epoch every N data rounds (0 = off)
  std::string dir = "__ckpt";     ///< durable volume directory
  std::uint64_t tearEpochSeal = 0;  ///< test hook: write this epoch's seal truncated
  /// Encoded-size bound for one epoch delta shard (a delta larger than
  /// this splits into several blobs).
  std::uint64_t maxShardBytes = 1ull << 20;
  /// Epoch compaction + GC (core::CompactionPolicy semantics): after
  /// every compactEveryEpochs-th valid seal E, fold epochs up to
  /// E - kCompactKeepEpochs into the base checkpoint and delete the folded
  /// delta shards, the superseded base, and the chunk-log blobs the base
  /// covers. 0 = never compact.
  std::uint64_t compactEveryEpochs = 0;
};

/// Epochs a compaction fold keeps as deltas behind the newest seal: a fold
/// at seal E stops at E-1, so a torn seal E still has a delta tail to fall
/// back through.
inline constexpr std::uint64_t kCompactKeepEpochs = 1;

/// Layer index used in blob names: 0 = R, 1 = S.
inline const char* layerTag(int layer) { return layer == 0 ? "r" : "s"; }

/// Volume prefix of one rank's durable blobs / of the global seals.
std::string rankPrefix(const std::string& dir, int worldRank);
std::string globalPrefix(const std::string& dir);

/// Writer side, one instance per rank per run. All methods are rank-local
/// except maybeCheckpoint, which is collective over `comm` when it fires.
class CheckpointCoordinator {
 public:
  CheckpointCoordinator(mpi::Comm& comm, pfs::Volume& volume, CheckpointConfig cfg,
                        core::PhaseBreakdown* phases);

  [[nodiscard]] bool enabled() const { return cfg_.everyRounds != 0; }
  [[nodiscard]] std::uint64_t epochsSealed() const { return epoch_; }

  /// Write-ahead chunk log: persist one parsed (pre-projection) chunk of
  /// `layer` durably. Called from the ingest loop, so every chunk of
  /// every rank is on the volume before the first exchange round.
  void logChunk(int layer, const geom::GeometryBatch& chunk);

  /// Close the chunk log (per-rank ingest manifest with the final chunk
  /// counts). Call once, after both layers ingested.
  void sealIngest();

  /// Record one data round's deliveries to this rank (the post-exchange
  /// owned records, cell tags set). Copies the batch into the pending
  /// epoch delta — the checkpoint overhead the bench sweeps.
  void noteRound(int layer, const geom::GeometryBatch& delivered);

  /// Seal an epoch when `globalRound` is a checkpoint boundary: write the
  /// delta shards and the per-rank manifest, then collectively seal
  /// (loads allreduce + manifest-checksum gather + rank 0's seal write).
  /// `cellOwner` is the active cell→rank map in world ranks. Returns
  /// true when an epoch was sealed (collective call on those rounds).
  /// When the compaction policy fires on this seal, each rank then folds
  /// its old epochs into the base checkpoint and garbage-collects
  /// (rank-local, after the seal barrier).
  bool maybeCheckpoint(std::uint64_t globalRound, const std::vector<int>& cellOwner);

  /// Tell the coordinator the agreed data-round schedule (allreduced
  /// chunk counts per layer) so chunk-log GC can map covered rounds back
  /// to blob names. Without it compaction still folds epochs but leaves
  /// the chunk log alone.
  void setRoundSchedule(std::uint64_t roundsR, std::uint64_t roundsS);

  /// Attach the run's encoded partition map (core/partition_map.hpp) so
  /// every epoch seal carries it. Call after the map is built, before the
  /// first checkpoint boundary; recovery validates the sealed copy
  /// against the live map before replaying through it.
  void setPartitionMap(std::string encoded) { partitionMap_ = std::move(encoded); }

 private:
  void charge(std::uint64_t bytes, bool isWrite);
  void chargeCompact(std::uint64_t bytes, bool isWrite);
  void put(const std::string& name, std::string bytes);
  void maybeCompact();

  mpi::Comm* comm_;
  pfs::Volume* volume_;
  CheckpointConfig cfg_;
  core::PhaseBreakdown* phases_;
  pfs::SpillStore rankStore_;
  pfs::SpillPricer pricer_;

  geom::GeometryBatch delta_[2];          ///< arrivals since the last epoch, per layer
  std::vector<std::uint64_t> cellLoads_;  ///< cumulative per-cell arrival counts
  std::uint64_t chunks_[2] = {0, 0};
  std::vector<std::uint64_t> chunkBytes_[2];  ///< encoded size of each logged chunk (GC accounting)
  std::uint64_t epoch_ = 0;
  std::uint64_t baseEpoch_ = 0;           ///< newest committed base (0 = none)
  std::uint64_t truncatedRounds_ = 0;     ///< chunk-log rounds already GC'd
  std::uint64_t roundsR_ = 0, roundsS_ = 0;
  bool scheduleKnown_ = false;
  std::string partitionMap_;  ///< encoded map embedded in every seal ("" = pre-map runs)
};

// ---- Reader side (recovery + crash-consistency tests) --------------------

/// One rank's per-epoch manifest, checksum-validated.
struct RankEpochManifest {
  std::uint64_t epoch = 0;
  std::uint64_t globalRound = 0;  ///< data rounds completed at the seal
  struct Shard {
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;  ///< fnv1a of the encoded shard blob
  };
  std::uint64_t records[2] = {0, 0};
  std::vector<Shard> shards[2];
};

/// A validated global epoch seal.
struct EpochSeal {
  std::uint64_t epoch = 0;
  std::uint64_t roundsCompleted = 0;  ///< data rounds covered by epochs 1..epoch
  int worldSize = 0;
  std::vector<int> cellOwner;                        ///< world ranks at seal time
  std::vector<std::uint64_t> cellLoads;              ///< global cumulative loads
  std::vector<std::uint64_t> rankManifestChecksums;  ///< one per world rank
  /// Encoded PartitionMap the epoch was taken under ("" = uniform run
  /// that never attached one). Recovery re-projects through exactly this
  /// map, so a post-failure rebuild can never drift from the sealed
  /// cell assignment.
  std::string partitionMap;
};

/// Base checkpoint manifest: epochs 1..baseEpoch folded into one set of
/// checksummed shards per layer. Written (and overwritten) by compaction;
/// the manifest write is the fold's commit point.
struct BaseManifest {
  std::uint64_t baseEpoch = 0;      ///< newest epoch the base covers
  std::uint64_t roundsCovered = 0;  ///< data rounds covered by epochs 1..baseEpoch
  std::uint64_t records[2] = {0, 0};
  std::vector<RankEpochManifest::Shard> shards[2];
};

/// Per-rank chunk counts from the ingest manifest (see readIngestLog).
struct IngestLog {
  std::uint64_t chunks[2] = {0, 0};
};

// ---- Durable codec encoders -----------------------------------------------
// The exact byte layouts the readers below validate, exposed so
// crash-consistency and fuzz tests can build well-formed blobs and then
// corrupt them. Every encoding ends with a trailing fnv1a checksum of all
// preceding bytes.
std::string encodeIngestManifest(const IngestLog& log);
std::string encodeRankManifest(const RankEpochManifest& manifest);
std::string encodeEpochSeal(const EpochSeal& seal);
std::string encodeBaseManifest(const BaseManifest& base);

/// Blob name of one base-checkpoint shard under the owning rank's prefix.
std::string baseShardName(std::uint64_t baseEpoch, int layer, std::uint64_t shard);

/// Decode + checksum-validate one epoch seal. nullopt when the blob is
/// missing, truncated, torn, or fails its checksum.
std::optional<EpochSeal> readEpochSeal(pfs::Volume& volume, const std::string& dir,
                                       std::uint64_t epoch, std::uint64_t* bytesRead = nullptr);

/// Decode + checksum-validate one rank's epoch manifest.
std::optional<RankEpochManifest> readRankManifest(pfs::Volume& volume, const std::string& dir,
                                                  int worldRank, std::uint64_t epoch,
                                                  std::uint64_t* bytesRead = nullptr);

/// Decode + checksum-validate one rank's base-checkpoint manifest.
/// nullopt when the rank has no base (never compacted) or the blob is
/// corrupt.
std::optional<BaseManifest> readBaseManifest(pfs::Volume& volume, const std::string& dir,
                                             int worldRank, std::uint64_t* bytesRead = nullptr);

/// Memo for findLastSealedEpoch across cascading recovery passes: the
/// newest fully validated seal and the epochs already rejected. A second
/// scan over the same history answers from the cache without re-reading
/// (or re-checksumming) any seal or rank manifest.
struct SealScanCache {
  std::optional<EpochSeal> validated;
  std::vector<std::uint64_t> rejected;
};

/// Newest epoch ≤ maxEpoch that is *fully* sealed: its seal decodes and
/// every rank's manifest exists, matches the seal's recorded checksum,
/// and names the same epoch. Torn or partial epochs are skipped — the
/// scan falls back toward older epochs and returns nullopt when none
/// survives validation (recovery then replays from round 0). `cache`,
/// when given, memoizes per-epoch verdicts so repeated scans (cascading
/// recoveries) cost zero reads.
std::optional<EpochSeal> findLastSealedEpoch(pfs::Volume& volume, const std::string& dir,
                                             int worldSize, std::uint64_t maxEpoch,
                                             std::uint64_t* bytesRead = nullptr,
                                             SealScanCache* cache = nullptr);

/// Reload one rank's epoch delta for `layer`, appending to `out`:
/// validates each blob against the manifest's per-shard checksum, decodes
/// (the shard codec re-validates header + payload), and applies the
/// stale-manifest guard — every record must sit in a cell `sealOwner`
/// maps to `worldRank`. Returns the records appended.
std::uint64_t loadEpochDelta(pfs::Volume& volume, const std::string& dir, int worldRank,
                             const RankEpochManifest& manifest, int layer,
                             const std::vector<int>& sealOwner,
                             geom::GeometryBatch& out, std::uint64_t* bytesRead = nullptr);

/// Reload one rank's base checkpoint for `layer`, appending to `out`,
/// with the same per-shard checksum + ownership + record-count validation
/// as loadEpochDelta. Returns the records appended.
std::uint64_t loadBaseCheckpoint(pfs::Volume& volume, const std::string& dir, int worldRank,
                                 const BaseManifest& base, int layer,
                                 const std::vector<int>& sealOwner, geom::GeometryBatch& out,
                                 std::uint64_t* bytesRead = nullptr);

/// Per-rank chunk counts from the ingest manifest. Throws util::Error
/// when the manifest is missing or corrupt (the chunk log is the replay
/// source of truth; without it recovery is impossible).
IngestLog readIngestLog(pfs::Volume& volume, const std::string& dir, int worldRank,
                        std::uint64_t* bytesRead = nullptr);

/// Reload one logged chunk (pre-projection records), appending to `out`.
std::uint64_t loadLoggedChunk(pfs::Volume& volume, const std::string& dir, int worldRank,
                              int layer, std::uint64_t chunk, geom::GeometryBatch& out,
                              std::uint64_t* bytesRead = nullptr);

}  // namespace mvio::recovery
