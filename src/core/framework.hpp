#pragma once
// The distributed filter-and-refine framework (paper §4.3, Figure 7).
//
// Steps, executed collectively by every rank:
//   1. Partitioned read of the input file(s)     (file_partition.hpp)
//   2. Parse records into geometries             (parser.hpp)
//   3. Global grid from MPI_UNION of local MBRs  (grid.hpp)
//   4. Project geometries to overlapping cells   (filter: MBR vs cells)
//   5. All-to-all exchange for spatial locality  (exchange.hpp)
//      5b. optional skew-aware owned-cell rebalancing: LPT reassignment
//          of cells over globally-reduced loads + point-to-point shard
//          migration (exchange.hpp, FrameworkConfig::rebalanceCells)
//   6. Per-cell refine tasks in ascending cell-id order, scheduled by
//      the (possibly rebalanced) rank-to-cell mapping
//
// The pipeline runs in bounded-memory *rounds* (DESIGN.md §7–8): each
// rank reads and parses its partition in StreamConfig::chunkBytes chunks,
// steps 4–5 execute once per chunk (a multi-round exchange closed by a
// final empty round), and received records accumulate into the rank's
// owned CellStore (core/cell_store.hpp). Whenever a stage's working set
// exceeds StreamConfig::memoryBudget, pending batches are spilled to a
// pfs::SpillStore as BatchShards — the owned set as *cell-sorted*
// segments of per-cell pieces — and the refine phase streams cell by
// cell, reading each piece back once, instead of reassembling the owned
// batch. The
// default StreamConfig — one round, unlimited budget — is exactly the
// classic one-shot pass with a fully resident refine.
//
// Applications extend RefineTask — "spatial computation can be carried
// out by extending [the] refine interface that receives two collections
// of geometries in a cell". The collections arrive as BatchSpan views
// into the rank's post-exchange GeometryBatch (never as materialized
// Geometry vectors). Spatial join (spatial_join.hpp), batch range query
// (range_query.hpp), grid overlay (overlay.hpp) and distributed indexing
// (indexing.hpp) are the shipped exemplars.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/exchange.hpp"
#include "core/file_partition.hpp"
#include "core/format.hpp"
#include "core/grid.hpp"
#include "core/parser.hpp"
#include "core/partition_map.hpp"
#include "core/phases.hpp"
#include "pfs/spill_store.hpp"
#include "pfs/volume.hpp"

namespace mvio::core {

/// One input layer: a file on a volume plus how to partition and parse it.
/// Exactly one of `parser` / `format` must be set. `parser` is the classic
/// delimited-text entry point (WKT/CSV/user parsers, wrapped internally in
/// a TextFormatReader); `format` selects any registered FormatReader —
/// including the framed binary WKB fast path, whose boundary resolution
/// walks record length headers and whose parseChunk decodes straight into
/// the batch arenas (DESIGN.md §12).
struct DatasetHandle {
  std::string path;
  const Parser* parser = nullptr;
  PartitionConfig partition;
  const FormatReader* format = nullptr;
};

/// Checkpoint GC + epoch compaction (DESIGN.md §11). When enabled, after
/// every `everyEpochs`-th *valid* (untorn) seal E each rank folds its delta
/// shards for epochs `oldBase+1 .. E-1` — plus any previous base — into
/// one checksummed base checkpoint, commits it by writing a
/// `base.manifest`, and then garbage-collects the folded delta shards,
/// the superseded base, and the ingest chunk blobs for every round the
/// new base covers. Recovery loads one base + the bounded delta tail
/// instead of scanning the full epoch history; the per-rank epoch
/// manifests and global seals are kept (they are tiny and the seal scan
/// validates against them). Bytes written by the fold land in
/// PhaseBreakdown::{compaction, compactionBytes}; bytes deleted land in
/// PhaseBreakdown::reclaimedBytes.
struct CompactionPolicy {
  /// Fold every N valid sealed epochs (0 = compaction disabled).
  std::uint64_t everyEpochs = 0;
};

/// Streaming-round controls (DESIGN.md §7). The defaults reproduce the
/// one-shot pipeline: a single round over the whole partition, nothing
/// ever spilled.
struct StreamConfig {
  /// Per-rank read/parse chunk size; 0 = one-shot (whole partition in one
  /// round). When set it becomes the per-iteration file block size, so it
  /// must still fit the largest record (PartitionConfig::maxGeometryBytes
  /// semantics apply unchanged).
  std::uint64_t chunkBytes = 0;
  /// Per-rank byte bound on each streaming stage's resident batch set
  /// (pending parsed chunks; the accumulating owned batch). 0 = unbounded.
  /// When a stage exceeds it, batches spill to the volume as BatchShards
  /// and reload on demand. The bound is per stage structure, not a strict
  /// whole-process cap: one in-flight chunk plus the cell being refined
  /// are always resident, and while an owned segment flushes its encoded
  /// blob is held next to it (up to about twice the store's share).
  std::uint64_t memoryBudget = 0;
  /// Modelled node-local scratch bandwidth for spill writes + reloads
  /// (charged to the rank clock; lands in PhaseBreakdown::spill).
  double spillBytesPerSecond = 2.0e9;
  /// When true the scratch directory lives on the parallel filesystem:
  /// spill writes and reloads are priced by the Volume's storage model
  /// (pfs::SpillPricer::onVolume — OST/NSD queue contention with every
  /// other rank's traffic) instead of the flat node-local rate above.
  bool spillOnPfs = false;
  /// Volume directory for spill shards; each rank uses
  /// "<spillDir>/rank<worldRank>". Scratch blobs are removed when the run
  /// finishes.
  std::string spillDir = "__spill";

  // ---- Checkpoint/recovery (DESIGN.md §9) -----------------------------
  /// Seal a durable epoch checkpoint every N exchange data rounds
  /// (0 = no checkpoints). When set, each parsed chunk is also written to
  /// a durable per-rank chunk log at ingest time (the replay source), and
  /// at every boundary each rank persists the records that arrived since
  /// the previous epoch as BatchShard blobs plus a per-rank manifest;
  /// rank 0 then seals the epoch with a checksummed global manifest.
  /// Torn or partial epochs are detected at recovery time and skipped.
  std::uint64_t checkpointEveryRounds = 0;
  /// Volume directory for durable checkpoint state: per-rank blobs under
  /// "<checkpointDir>/rank<worldRank>", global epoch seals under
  /// "<checkpointDir>/global". Unlike spillDir, blobs survive the run.
  std::string checkpointDir = "__ckpt";
  /// Torn-write injection (tests): the seal of this epoch is written
  /// truncated, as if the writer died mid-write. Recovery must reject it
  /// and fall back to the previous sealed epoch. 0 = off.
  std::uint64_t tearEpochSeal = 0;
  /// Checkpoint GC + epoch compaction policy (DESIGN.md §11). Disabled by
  /// default: every sealed epoch stays on the volume forever.
  CompactionPolicy compaction;

  // ---- Round overlap (DESIGN.md §10) ----------------------------------
  /// Double-buffered streaming: round N's exchange overlaps round N+1's
  /// parse + grid projection and the owned-store flush of round N−1's
  /// arrivals. Execution order — and therefore every result bit — is
  /// unchanged; the overlap is applied in the sim-clock accounting, which
  /// replays each chunk's deferred prep time through a two-deep pipeline
  /// recurrence and charges only the *exposed* remainder to its phase
  /// (the hidden seconds land in PhaseBreakdown::overlapped). Requires
  /// chunkBytes > 0; ignored in one-shot runs, which have no rounds to
  /// overlap.
  bool overlapRounds = false;
};

struct FrameworkConfig {
  int gridCells = 1024;       ///< target number of grid cells (unit tasks)
  int windowPhases = 1;       ///< sliding-window exchange phases
  /// Per-rank worker-pool size (util/thread_pool.hpp): chunk parsing and
  /// the cell-major refine loop fan out over this many threads, with the
  /// rank clock charged by each region's critical path. 1 = the classic
  /// serial rank (no pool is created). Results are bit-identical at any
  /// value — parallel parse splices slice batches back in slice order and
  /// parallel refine visits ascending contiguous cell blocks merged in
  /// worker order (DESIGN.md §10).
  int threadsPerRank = 1;
  bool rtreeCellLocator = true;  ///< cell lookup via R-tree (paper) vs arithmetic
  /// Sample-based adaptive partitioning (DESIGN.md §13): a pilot pass
  /// samples record envelopes during ingest, the samples are allgathered,
  /// and every rank builds the same variable-extent PartitionMap —
  /// quadtree refinement of hot regions or Hilbert-curve range splits —
  /// that then drives projection, exchange, ownership, checkpoint seals
  /// and rebalancing end to end. The default (kUniform) is the classic
  /// uniform grid with zero overhead: no pilot pass, no sample exchange,
  /// and the map's uniform fast path keeps every lookup branch-free.
  PartitionerConfig partition;
  io::Hints ioHints;          ///< MPI-IO hints for the underlying file opens
  StreamConfig stream;        ///< chunked-round + spill controls
  /// Skew-aware owned-cell rebalancing: after the exchange phase, reduce
  /// per-cell record counts globally, recompute the cell→rank map with a
  /// greedy LPT pass (lptAssignCells) and migrate leaving cells between
  /// ranks as checksummed shard blobs (migrateShards). The refine phase
  /// and FrameworkStats::cellOwner then follow the new map. Default off:
  /// ownership stays round-robin, nothing moves.
  ///
  /// The migration respects StreamConfig::memoryBudget: leaving cells are
  /// extracted and shipped in bounded passes, so a rank stages at most
  /// roughly one budget share of outgoing records (plus one cell of
  /// slack for a cell larger than the budget) at a time.
  bool rebalanceCells = false;
  /// Adaptive rebalance trigger: the migration pass only runs when the
  /// allreduced max/mean per-rank load ratio is at least this value.
  /// 1.0 (or anything ≤ 1) keeps the unconditional behaviour; e.g. 1.5
  /// skips the pass — and its wire traffic — when the owned loads are
  /// already within 50% of the mean. The measured imbalance and the
  /// decision are recorded in RebalanceStats either way.
  double rebalanceThreshold = 1.0;
  /// Failure injection (fail-stop, sim::FailureEvent): each event names a
  /// world rank, the data-round boundary it dies at (>= 1, within the
  /// run's round schedule), and — for cascading failures — which recovery
  /// pass it dies during. Events sharing a boundary/pass die together;
  /// events at later boundaries or passes are detected by the survivors'
  /// next detection allgather and trigger another recovery pass over the
  /// shrunken communicator. Empty = no injection. Requires
  /// StreamConfig::checkpointEveryRounds > 0 so survivors can recover; a
  /// rank may die at most once, at least one rank must survive the whole
  /// schedule, and the first wave must strike at a round boundary
  /// (duringRecoveryPass 0). runFilterRefine rejects any other schedule.
  std::vector<sim::FailureEvent> failSchedule;
};

/// Refine callback: receives the two record collections of one cell as
/// batch-span views (the second is empty for single-layer pipelines).
/// Implementations must apply their own duplicate avoidance
/// (grid.cellOfPoint on a reference point).
///
/// The interface is batch-native: envelopes, userData, and the exact
/// predicates (BatchSpan::intersectsBox / clippedMeasure) read straight
/// from the batch arenas; materialize only the records a general
/// geometry-vs-geometry test actually needs. The spans are valid only for
/// the duration of the call — a task whose output must outlive the
/// pipeline (e.g. the distributed index) records the *record indices* and
/// takes ownership of the underlying batches via adoptBatches().
class RefineTask {
 public:
  virtual ~RefineTask() = default;
  virtual void refineCellBatch(const GridSpec& grid, int cell, const geom::BatchSpan& r,
                               const geom::BatchSpan& s) = 0;
  /// Offers ownership of the rank's post-exchange batches. Record indices
  /// seen through the spans stay valid in the adopted batches (moving a
  /// batch moves its arenas, it never reindexes records). The hook is
  /// *appendable*: in the one-shot/resident regime the framework calls it
  /// once, after the last refineCellBatch, with the whole owned batch
  /// (records migrated away by rebalancing are tombstoned with kNoCell);
  /// in the streaming regime (StreamConfig::memoryBudget set) it is
  /// called once per refined cell with that cell's records — and other
  /// streaming consumers (shard reloads, DistributedIndex::loadShards)
  /// deliver incrementally too — so an implementation that keeps state
  /// must splice subsequent batches onto what it already holds rather
  /// than replace it. The default discards the batches, which is correct
  /// for tasks that fully reduce in refine.
  virtual void adoptBatches(geom::GeometryBatch&& r, geom::GeometryBatch&& s);

  // ---- Parallel refine (FrameworkConfig::threadsPerRank > 1) ----------
  // The framework fans the cell-major loop out by cloning one *worker*
  // task per pool thread and running refineCellBatch on the clones over
  // disjoint, contiguous, ascending cell blocks. After each block group
  // it folds every worker back with mergeWorker() in worker order — which
  // is ascending cell order — so the main task accumulates exactly the
  // state the serial visit would have produced. Workers only ever see
  // refineCellBatch (adoption always happens on the main task), and a
  // merge must drain the worker so it can be reused for the next group.

  /// A fresh worker clone with private scratch, or nullptr (the default)
  /// to opt out — the framework then refines serially regardless of
  /// threadsPerRank.
  [[nodiscard]] virtual std::unique_ptr<RefineTask> makeWorker() { return nullptr; }
  /// Fold `worker`'s accumulated per-cell results into this task and
  /// reset the worker for reuse. Called in worker order after every block
  /// group; `worker` is always an object this task's makeWorker returned.
  virtual void mergeWorker(RefineTask& worker);
};

/// What the skew-aware rebalancing pass did for this rank (all zero when
/// FrameworkConfig::rebalanceCells is off).
struct RebalanceStats {
  ShardTransportStats transport;         ///< wire volumes, both layers
  std::uint64_t ownedRecordsBefore = 0;  ///< this rank's records at exchange end
  std::uint64_t ownedRecordsAfter = 0;   ///< after migration
  std::uint64_t cellsMoved = 0;          ///< cells that changed owner (global count)
  /// Allreduced max/mean per-rank load ratio measured before the pass
  /// (1.0 = perfectly balanced; 0 when the pass never ran or the grid
  /// holds no records).
  double imbalance = 0;
  /// True when the measured imbalance stayed below
  /// FrameworkConfig::rebalanceThreshold and the migration was skipped.
  bool skipped = false;
  /// Bounded migration passes executed, summed over both layers (one per
  /// layer when each leaving set fit one StreamConfig::memoryBudget
  /// share, or when no budget is set).
  std::uint64_t migrationPasses = 0;
  /// Cost-model verdict on the LPT proposal (adaptive partition schemes
  /// only; see PartitionCostModel). When the projected migration seconds
  /// outweigh the projected refine seconds saved, the pass is skipped and
  /// `skipped` + `costGated` are both set.
  bool costGated = false;
  double costGainSeconds = 0;     ///< projected refine seconds the move saves
  double costMigrateSeconds = 0;  ///< projected wire seconds the move costs
};

/// What the checkpoint/recovery subsystem did for this rank (all zero
/// when StreamConfig::checkpointEveryRounds is 0 and no failure was
/// injected). Byte/time volumes live in PhaseBreakdown::{checkpoint,
/// recovery, checkpointBytes, recoveryBytes, recoveryRounds}.
struct RecoveryStats {
  /// This rank was killed by the injection hook: it left the job at the
  /// kill point and its FrameworkStats describe only the rounds it lived
  /// through. Its refine task never ran.
  bool died = false;
  /// A failure struck and this rank ran the recovery protocol.
  bool recovered = false;
  std::uint64_t deadRanks = 0;        ///< ranks lost across all waves (cumulative)
  std::uint64_t epochUsed = 0;        ///< sealed epoch restored from (0 = none valid)
  std::uint64_t restoredRecords = 0;  ///< records this rank reloaded from dead ranks' epochs
  std::uint64_t replayedRecords = 0;  ///< records this rank re-derived from the chunk log
  /// Recovery passes this rank ran (1 for a single failure wave; each
  /// cascading death detected mid-recovery adds another pass).
  std::uint64_t recoveryPasses = 0;
};

struct FrameworkStats {
  PhaseBreakdown phases;        ///< this rank's per-phase virtual seconds
  ExchangeStats exchange;       ///< this rank's exchange volumes
  ParseStats parseR, parseS;
  PartitionResult ioR, ioS;
  GridSpec grid;
  /// The cell map the run executed under. Uniform scheme: the identity
  /// over `grid`. Adaptive schemes: the variable-extent map every rank
  /// built from the allgathered pilot samples — cell ids seen by
  /// exchange, CellStore, ownership, seals and cellOwner are *partition*
  /// ids (groupings of whole uniform cells); refine still sees uniform
  /// cells via the framework's sub-bucketing dispatch.
  PartitionMap partition;
  /// The pilot pass's cost-model prediction (adaptive schemes; zeroed
  /// under uniform). bench_partition checks it against the measured run.
  PartitionPlan plan;
  pfs::SpillStats spill;        ///< this rank's shard spill/reload volumes
  RebalanceStats balance;       ///< owned-cell migration volumes (rebalanceCells)
  RecoveryStats recovery;       ///< failure injection / recovery outcome
  /// The communicator the pipeline finished on. Engaged only after a
  /// recovery shrank the job to the survivors — consumers must run their
  /// post-pipeline collectives (result reductions, the overlay's
  /// collective write) on it instead of the launch communicator, whose
  /// dead ranks will never participate again. Dead ranks (recovery.died)
  /// must skip those collectives entirely.
  std::optional<mpi::Comm> activeComm;
  /// Post-rebalance / post-recovery cell→rank map in *world* ranks,
  /// identical on every live rank. Empty when neither rebalancing nor
  /// recovery ran — ownership is then roundRobinOwner, which consumers
  /// with per-owned-cell output (the overlay writer) fall back to.
  std::vector<int> cellOwner;
  /// Peak bytes resident in the refine phase's serving structures
  /// (resident tail + current cell in the streaming regime, summed over
  /// both layer stores — two-layer runs split the budget between them;
  /// the owned batch in the resident regime). Streaming runs keep this
  /// within StreamConfig::memoryBudget, plus the one-resident-cell slack:
  /// a cell must be resident in full to be refined, so a single cell
  /// larger than its store's budget share exceeds the bound by exactly
  /// its own size.
  std::uint64_t refinePeakBytes = 0;
  std::uint64_t cellsOwned = 0;
  std::uint64_t localR = 0, localS = 0;  ///< geometries held after exchange
};

/// Phase-4 grid projection: map every record of `geoms` to its
/// overlapping partition cells in place (a k-cell geometry appends k-1
/// replicas; no-cell records are tombstoned with kNoCell). `locator`,
/// when given, resolves uniform cells via the R-tree of cell boundaries
/// and the map translates them. Deterministic for a given map — the
/// recovery replay re-derives lost exchange rounds by re-running it over
/// the durable chunk log.
geom::GeometryBatch projectToCells(const PartitionMap& map, const CellLocator* locator,
                                   geom::GeometryBatch&& geoms);

/// Run the full pipeline. `s` may be null (single-layer workloads such as
/// indexing). Collective: all ranks of `comm` must call.
FrameworkStats runFilterRefine(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& r,
                               const DatasetHandle* s, const FrameworkConfig& cfg, RefineTask& task);

}  // namespace mvio::core
