#pragma once
// Epoch-stamped checkpointing for the streaming pipeline (DESIGN.md §9).
//
// The filter-refine rounds assume every rank survives the run; at scale
// that assumption fails, and restarting a multi-hour ingest because one
// rank died is unacceptable. This module makes the pipeline's state
// recoverable by persisting durable, self-describing blobs on the
// pfs::Volume:
//
//  * Extent log (write-ahead): the input file is already durable and does
//    not change during a run, so the log keeps no copy of it. For every
//    chunk a rank ingests it records where the chunk's text lies in the
//    layer's input file — the PartitionReader's extents — and the
//    CRC-32C of those bytes. At the end of ingest, before any exchange
//    round runs, each rank writes them all in one "<dir>/rank<w>/
//    ing.manifest". Because parsing, projection and ownership are
//    deterministic, any survivor can later re-derive any round's
//    deliveries by re-reading a chunk's extents from the input file with
//    independent reads and re-parsing them with the layer's FormatReader
//    — no dependence on the ring protocol of the kMessage partitioner. A
//    changed input fails the CRC check and is a util::Error, never a
//    silently different result.
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
//  * Base checkpoint (StreamConfig::compaction): every few seals each
//    rank folds its old epochs into one base ("base<E>.<layer>.<k>" +
//    "base.manifest") and garbage-collects what the base covers.
//
// A delta and the base are both a ShardSetManifest over the checksummed
// BatchShard codec the spill and migration paths speak: one codec, one
// loader (loadShardSet), told apart only by magic and blob names. The
// concatenation of a rank's sets up to epoch E (readShardSets: base,
// then the later deltas) is exactly the records delivered to it in
// rounds 1..roundsCompleted(E) — the arrival-ordered owned-cell state.
// Recovery (recovery.hpp) restores a dead rank's cells from these sets
// and replays the rounds between the seal and the kill from the extent
// log; the round loop then resumes on the survivors, and only the dead
// ranks' logged chunks are re-read for the rounds after the kill
// (AdoptedLogs). The compaction fold reads through the same path as the
// restore.
//
// All durable traffic is priced through the Volume's storage model
// (pfs::SpillPricer::onVolume — checkpoints contend with every other
// rank's PFS traffic) and lands in PhaseBreakdown::{checkpoint,
// checkpointBytes, checkpointEpochs} (the fold in {compaction,
// compactionBytes, reclaimedBytes}). Extent re-reads are priced on the
// input file's own stripes (ChunkReadAhead).

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/framework.hpp"
#include "core/phases.hpp"
#include "geom/geometry_batch.hpp"
#include "mpi/runtime.hpp"
#include "pfs/spill_store.hpp"
#include "pfs/volume.hpp"

namespace mvio::recovery {

/// Encoded-size bound for one checkpoint shard (a delta or base layer
/// larger than this splits into several blobs).
inline constexpr std::uint64_t kMaxShardBytes = 1ull << 20;

/// Epochs a compaction fold keeps as deltas behind the newest seal: a fold
/// at seal E stops at E-1, so a torn seal E still has a delta tail to fall
/// back through.
inline constexpr std::uint64_t kCompactKeepEpochs = 1;

/// Layer index used in blob names: 0 = R, 1 = S.
inline const char* layerTag(int layer) { return layer == 0 ? "r" : "s"; }

/// Volume prefix of one rank's durable blobs / of the global seals.
std::string rankPrefix(const std::string& dir, int worldRank);
std::string globalPrefix(const std::string& dir);

struct ShardSetManifest;

/// One logged chunk: the input-file extents its text was read from, in
/// order, and the CRC-32C of their concatenated bytes.
struct LoggedChunk {
  std::vector<core::FileExtent> extents;
  std::uint32_t crc = 0;
  bool operator==(const LoggedChunk&) const = default;
};

/// One rank's extent log, as the ingest manifest records it: every chunk
/// the rank ingested, per layer (0 = R, 1 = S), in ingest order.
struct IngestLog {
  std::vector<LoggedChunk> chunks[2];
  bool operator==(const IngestLog&) const = default;
};

/// Writer side, one instance per rank per run. Reads its settings from
/// the run's StreamConfig: checkpointEveryRounds (0 = off), checkpointDir,
/// tearEpochSeal and compaction. All methods are rank-local except
/// maybeCheckpoint, which is collective over `comm` when it fires.
class CheckpointCoordinator {
 public:
  CheckpointCoordinator(mpi::Comm& comm, pfs::Volume& volume, const core::StreamConfig& cfg,
                        core::PhaseBreakdown* phases);

  [[nodiscard]] bool enabled() const { return cfg_.checkpointEveryRounds != 0; }
  [[nodiscard]] std::uint64_t epochsSealed() const { return epoch_; }

  /// Write-ahead extent log: note one ingested chunk of `layer` — the
  /// `extents` of the layer's input file whose bytes, concatenated, are
  /// `text` — with the CRC-32C of `text`. Called from the ingest loop for
  /// every chunk, empty ones included; nothing is written until
  /// sealIngest.
  void logChunk(int layer, const std::vector<core::FileExtent>& extents, std::string_view text);

  /// Make the extent log durable: write every logged chunk's extents and
  /// checksum in the per-rank ingest manifest. Call once, after both
  /// layers ingested and before the first exchange round.
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

  /// Attach the run's encoded partition map (core/partition_map.hpp) so
  /// every epoch seal carries it. Call after the map is built, before the
  /// first checkpoint boundary; recovery validates the sealed copy
  /// against the live map before replaying through it.
  void setPartitionMap(std::string encoded) { partitionMap_ = std::move(encoded); }

 private:
  /// Price `bytes` of durable I/O on the rank clock. Checkpoint writes
  /// land in the `checkpoint` span, counters and phase fields; compaction
  /// traffic (`compaction` set) in the `compaction` ones.
  void charge(std::uint64_t bytes, bool isWrite, bool compaction = false);
  void put(const std::string& name, std::string bytes, bool compaction = false);
  /// Write both layers of `batches` (consumed) as bounded shards named
  /// after `set`, filling its record counts and shard refs, then commit
  /// `set`'s manifest. A base set is compaction traffic. Returns the
  /// manifest's checksum.
  std::uint64_t writeShardSet(ShardSetManifest& set, geom::GeometryBatch (&batches)[2]);
  void maybeCompact(const std::vector<int>& cellOwner);

  mpi::Comm* comm_;
  pfs::Volume* volume_;
  core::StreamConfig cfg_;
  core::PhaseBreakdown* phases_;
  pfs::SpillStore rankStore_;
  pfs::SpillPricer pricer_;

  geom::GeometryBatch delta_[2];          ///< arrivals since the last epoch, per layer
  std::vector<std::uint64_t> cellLoads_;  ///< cumulative per-cell arrival counts
  IngestLog log_;                         ///< the extent log, written by sealIngest
  std::uint64_t epoch_ = 0;
  std::uint64_t baseEpoch_ = 0;           ///< newest committed base (0 = none)
  std::string partitionMap_;  ///< encoded map embedded in every seal ("" = pre-map runs)
};

// ---- Reader side (recovery + crash-consistency tests) --------------------

/// One rank's checksummed shard set: an epoch delta (the records that
/// arrived since the previous epoch) or, with `base` set, the compaction
/// base (epochs 1..epoch folded together). Both share one layout — magic
/// (MVCR delta / MVCB base), version, epoch, rounds, then per layer a
/// record count and the {bytes, header-checksum word} refs of its
/// shards, then a trailing checksum — and differ only in magic and blob
/// names:
/// "ep<E>.manifest" + "ep<E>.<layer>.<k>" for a delta, "base.manifest" +
/// "base<E>.<layer>.<k>" for the base. The manifest write is the set's
/// commit point.
struct ShardSetManifest {
  bool base = false;         ///< compaction base vs epoch delta
  std::uint64_t epoch = 0;   ///< the delta's epoch / the newest epoch the base covers
  std::uint64_t rounds = 0;  ///< data rounds completed by `epoch`
  struct Shard {
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;  ///< the shard's header-checksum word (geom::shardChecksum)
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

// ---- Durable codec encoders -----------------------------------------------
// The exact byte layouts the readers below validate, exposed so
// crash-consistency and fuzz tests can build well-formed blobs and then
// corrupt them. Every encoding ends with a trailing fnv1a checksum of all
// preceding bytes. The ingest manifest (v2) is magic "MVCI", version, then
// per layer a chunk count and per chunk [extent count u64][CRC-32C u64]
// [offset u64, length u64]...
std::string encodeIngestManifest(const IngestLog& log);
std::string encodeShardSetManifest(const ShardSetManifest& set);
std::string encodeEpochSeal(const EpochSeal& seal);

/// Blob name of shard `shard` of `layer` in the delta of epoch `epoch`
/// or (`base`) in the base covering epochs 1..epoch, under the owning
/// rank's prefix.
std::string shardName(bool base, std::uint64_t epoch, int layer, std::uint64_t shard);

/// Decode + checksum-validate one epoch seal. nullopt when the blob is
/// missing, truncated, torn, or fails its checksum.
std::optional<EpochSeal> readEpochSeal(pfs::Volume& volume, const std::string& dir,
                                       std::uint64_t epoch, std::uint64_t* bytesRead = nullptr);

/// Decode + checksum-validate one rank's shard-set manifest: the delta of
/// `epoch`, or (`base`) the base checkpoint, which must cover exactly
/// `epoch` unless `epoch` is 0. nullopt when the blob is missing (a rank
/// that never compacted has no base), corrupt, or names another epoch.
std::optional<ShardSetManifest> readShardSetManifest(pfs::Volume& volume, const std::string& dir,
                                                     int worldRank, bool base, std::uint64_t epoch,
                                                     std::uint64_t* bytesRead = nullptr);

/// One rank's durable history up to `lastEpoch`, in order: its base
/// checkpoint when compaction folded one, then the delta of every later
/// epoch — the sets whose concatenation is the rank's arrivals in rounds
/// 1..rounds(lastEpoch). Throws util::Error when a delta manifest is
/// missing or corrupt, or the base is newer than `lastEpoch`.
std::vector<ShardSetManifest> readShardSets(pfs::Volume& volume, const std::string& dir,
                                            int worldRank, std::uint64_t lastEpoch,
                                            std::uint64_t* bytesRead = nullptr);

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

/// Reload one layer of a rank's shard set, appending to `out`: validates
/// each blob against the manifest's per-shard checksum, decodes (the
/// shard codec re-validates header + payload), applies the
/// stale-manifest guard — every record must sit in a cell `sealOwner`
/// maps to `worldRank` — and checks the manifest's record count. Returns
/// the records appended.
std::uint64_t loadShardSet(pfs::Volume& volume, const std::string& dir, int worldRank,
                           const ShardSetManifest& set, int layer,
                           const std::vector<int>& sealOwner, geom::GeometryBatch& out,
                           std::uint64_t* bytesRead = nullptr);

/// One rank's extent log from its ingest manifest. `inputBytes` holds
/// the size of each layer's input file (0 for an absent layer). Throws
/// util::Error when the manifest is missing or corrupt — a bad checksum,
/// a chunk or extent count larger than the bytes left can hold (checked
/// before anything is allocated), or an extent that ends past its input
/// file (the log is the replay source of truth; without it recovery is
/// impossible).
IngestLog readIngestLog(pfs::Volume& volume, const std::string& dir, int worldRank,
                        const std::array<std::uint64_t, 2>& inputBytes,
                        std::uint64_t* bytesRead = nullptr);

/// Re-reads logged chunks of the input layers, in the order they will be
/// parsed, with their extent reads posted ahead. Every chunk's extents are
/// known from the ingest manifest before the first re-read, so the reads
/// of the upcoming chunks reach the storage model up to one stripe width
/// of their input ahead of the chunk being parsed (at least one chunk) and
/// queue on the input's OSTs together, so a reader buffers at most one
/// stripe width of text (or one chunk, where a chunk is larger) besides
/// the chunk it parses. Each extent is one
/// independent read of the input file, priced on its own stripes as
/// issued by `comm`'s node, and is read exactly once.
class ChunkReadAhead {
 public:
  ChunkReadAhead(mpi::Comm& comm, pfs::Volume& volume) : comm_(&comm), volume_(&volume) {}

  /// Append `chunk` of `input` to the re-read order. Both must outlive
  /// the reader.
  void enqueue(const core::DatasetHandle& input, const LoggedChunk& chunk);

  /// Post the queued chunks' extent reads, in order, until the posted
  /// chunks not yet taken hold one stripe width of their input.
  void post();

  /// Re-read `chunk`, the next in the order: wait for its reads (the clock
  /// advances to their completion), top the window up, check the bytes
  /// against the logged CRC-32C and parse them with the layer's
  /// FormatReader (serially), appending the pre-projection records to
  /// `out`. Throws util::Error when the bytes no longer match (the input
  /// changed since ingest). Returns the bytes read.
  std::uint64_t take(const LoggedChunk& chunk, geom::GeometryBatch& out);

 private:
  struct Pending {
    const core::DatasetHandle* input = nullptr;
    const LoggedChunk* chunk = nullptr;
    std::string text;  ///< the extents' bytes, once posted
    double done = 0;   ///< modelled completion of its last read
  };
  mpi::Comm* comm_;
  pfs::Volume* volume_;
  std::deque<Pending> queue_;      ///< unparsed chunks in order; the first posted_ are in flight
  std::size_t posted_ = 0;
  std::uint64_t postedBytes_ = 0;  ///< bytes of the posted chunks not yet taken
};

}  // namespace mvio::recovery
