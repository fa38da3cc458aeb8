#include "core/framework.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <optional>

#include "core/cell_store.hpp"
#include "geom/batch_shard.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recovery/recovery.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mvio::core {

void RefineTask::adoptBatches(geom::GeometryBatch&& /*r*/, geom::GeometryBatch&& /*s*/) {
  // Default: drop the batches. Tasks that fully reduce inside
  // refineCellBatch (join counts, coverage sums) need nothing more; tasks
  // whose product outlives the pipeline (DistributedIndex) override this
  // and take the arenas wholesale.
}

void RefineTask::mergeWorker(RefineTask& /*worker*/) {
  // Partner of the nullptr makeWorker default: a task that opts out of
  // parallel refine never has workers to merge.
}

namespace {

/// Largest encoded blob one migrateShards message carries.
constexpr std::uint64_t kMigrationBlobBytes = 1ull << 20;

std::uint64_t allreduceMaxU64(mpi::Comm& comm, std::uint64_t v) {
  std::uint64_t out = 0;
  comm.allreduce(&v, &out, 1, mpi::Datatype::uint64(), mpi::Op::max());
  return out;
}

/// Rank-local spill plumbing shared by the streaming stages: encodes
/// batches to BatchShards on the rank's SpillStore and charges the
/// modelled scratch-I/O time (flat node-local rate, or the Volume's
/// storage model when the scratch lives on the PFS) to the rank clock /
/// spill phase.
struct Spiller {
  mpi::Comm* comm;
  pfs::SpillStore* store;
  pfs::SpillPricer pricer;
  PhaseBreakdown* phases;
  /// Round-overlap mode: when set, charge() banks the modelled seconds
  /// here instead of advancing the clock — the round loop replays them
  /// through the store-flush pipeline stage so round N−1's owned-store
  /// flush hides under round N's exchange (DESIGN.md §10). The framework
  /// toggles this only around CellStore::add during data rounds; the
  /// BatchStager holds a defer-less copy, so staging spills always charge
  /// synchronously.
  double* defer = nullptr;

  void charge(std::uint64_t bytes, bool isWrite) const {
    const double t = pricer.seconds(bytes, isWrite, comm->clock().now());
    obs::addCount(isWrite ? "spill.write_bytes" : "spill.read_bytes", bytes);
    if (defer != nullptr) {
      *defer += t;  // replayed as a flush-lane span by the round loop
      return;
    }
    const double t0 = comm->clock().now();
    comm->clock().advanceBy(t);
    obs::traceSpanAt("spill", t0, comm->clock().now());
    phases->spill += t;
  }

  void spill(const std::string& name, const geom::GeometryBatch& b) const {
    std::string bytes;
    bytes.reserve(geom::shardEncodedSize(b, 0, b.size()));
    geom::encodeShard(b, bytes);
    charge(bytes.size(), /*isWrite=*/true);
    store->put(name, std::move(bytes));
  }

  /// Reload a shard, *appending* its records to `out`, and drop the blob.
  void reload(const std::string& name, geom::GeometryBatch& out) const {
    const std::string bytes = store->fetch(name);
    charge(bytes.size(), /*isWrite=*/false);
    geom::decodeShard(bytes, out);
    store->remove(name);
  }
};

/// One chunk's deferred prep charge under round overlap (DESIGN.md §10):
/// the rank clock when its read completed and the parse critical path the
/// round loop's pipeline recurrence still has to account for.
struct ChunkPrep {
  double readDoneAt = 0;
  double prepSeconds = 0;
};

/// FIFO of parsed-but-not-yet-exchanged chunk batches with a resident-byte
/// budget: when the queue's in-memory bytes exceed the budget, the oldest
/// resident batches are written out as shards (oldest first — they are
/// also the first to be reloaded, so the resident tail stays hot). Each
/// slot also carries its chunk's ChunkPrep (zero unless round overlap).
class BatchStager {
 public:
  BatchStager(const Spiller& spiller, std::string base, std::uint64_t budget)
      : spiller_(spiller), base_(std::move(base)), budget_(budget) {}

  void push(geom::GeometryBatch&& b, ChunkPrep prep) {
    Slot slot;
    slot.bytes = b.memoryBytes();
    slot.batch = std::move(b);
    slot.prep = prep;
    resident_ += slot.bytes;
    slots_.push_back(std::move(slot));
    enforceBudget();
  }

  /// Pop the oldest chunk (reloading it if spilled) and its prep. Returns
  /// false when the queue is empty — callers then run an empty round.
  bool pop(geom::GeometryBatch& out, ChunkPrep& prep) {
    if (slots_.empty()) return false;
    Slot& front = slots_.front();
    if (front.spilled) {
      out = geom::GeometryBatch();
      spiller_.reload(front.shard, out);
    } else {
      resident_ -= front.bytes;
      out = std::move(front.batch);
    }
    prep = front.prep;
    slots_.pop_front();
    if (spillCursor_ > 0) --spillCursor_;
    return true;
  }

  [[nodiscard]] std::size_t pending() const { return slots_.size(); }

  /// Drop every pending chunk without reloading it — the post-recovery
  /// path re-derives the remaining rounds from the durable chunk log, so
  /// the staged copies (and their scratch blobs) are dead weight. Returns
  /// the dropped chunks' prep seconds, which the round loop never reached.
  double discard() {
    double prepSeconds = 0;
    for (const Slot& slot : slots_) {
      if (slot.spilled) spiller_.store->remove(slot.shard);
      prepSeconds += slot.prep.prepSeconds;
    }
    slots_.clear();
    resident_ = 0;
    spillCursor_ = 0;
    return prepSeconds;
  }

 private:
  struct Slot {
    geom::GeometryBatch batch;
    std::string shard;
    std::uint64_t bytes = 0;
    bool spilled = false;
    ChunkPrep prep;
  };

  void enforceBudget() {
    // Invariant: slots_[0, spillCursor_) are spilled, the rest resident —
    // spilling proceeds front-to-back and pop() removes the front, so the
    // cursor avoids rescanning already-spilled slots on every push.
    while (resident_ > budget_ && spillCursor_ < slots_.size()) {
      Slot& slot = slots_[spillCursor_++];
      slot.shard = base_ + "." + std::to_string(seq_++);
      spiller_.spill(slot.shard, slot.batch);
      resident_ -= slot.bytes;
      slot.batch = geom::GeometryBatch();
      slot.spilled = true;
    }
  }

  Spiller spiller_;
  std::string base_;
  std::uint64_t budget_;
  std::deque<Slot> slots_;
  std::uint64_t resident_ = 0;
  std::size_t seq_ = 0;
  std::size_t spillCursor_ = 0;  ///< first not-yet-spilled slot
};

/// Pilot pass for adaptive partitioning (DESIGN.md §13): a deterministic
/// stride sample of every parsed record's envelope, shared across chunks
/// and layers so the rate holds over the whole ingest.
struct PilotSampler {
  std::uint64_t stride = 100;
  std::uint64_t seen = 0;
  std::vector<geom::Envelope> envelopes;

  explicit PilotSampler(const PartitionerConfig& cfg) {
    const double rate = std::clamp(cfg.sampleRate, 1e-6, 1.0);
    stride = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(1.0 / rate));
  }

  void observe(const geom::GeometryBatch& chunk) {
    for (std::size_t i = 0; i < chunk.size(); ++i, ++seen) {
      if (seen % stride != 0 || envelopes.size() >= kMaxPilotSamplesPerRank) continue;
      envelopes.push_back(chunk.envelope(i));
    }
  }
};

/// Phases 1+2 for one layer, chunk by chunk: partitioned read then parse
/// straight into a per-chunk batch (no per-record Geometry objects),
/// staged for the exchange rounds. Accumulates the layer's local MBR for
/// grid construction along the way. With checkpointing enabled every
/// parsed chunk is also written to the durable chunk log — the replay
/// source recovery re-derives lost rounds from.
///
/// With a worker pool (threadsPerRank > 1) the chunk text is parsed in
/// parallel record-boundary slices and the clock is charged the critical
/// path — max worker CPU plus the serial splice — instead of the summed
/// CPU. With `deferPrep` set (round overlap) the parse charge is not
/// applied here at all: it rides in the chunk's stager slot to the round
/// loop's pipeline recurrence, where it can hide under exchanges.
void ingestLayer(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& ds,
                 const FrameworkConfig& cfg, BatchStager& stage, geom::Envelope& localBounds,
                 ParseStats& parseStats, PartitionResult& ioStats, PhaseBreakdown& phases,
                 recovery::CheckpointCoordinator& ckpt, int layer, util::ThreadPool* pool,
                 bool deferPrep, PilotSampler* pilot) {
  // Resolve the layer's ingest format: an explicit FormatReader wins; a
  // bare Parser is wrapped in a TextFormatReader shim (byte-identical to
  // the classic text path).
  const FormatReader* fmt = ds.format;
  std::optional<TextFormatReader> textShim;
  if (fmt == nullptr) {
    MVIO_CHECK(ds.parser != nullptr, "dataset needs a parser or format");
    textShim.emplace(ds.parser);
    fmt = &*textShim;
  } else {
    MVIO_CHECK(ds.parser == nullptr, "dataset has both a parser and a format; set exactly one");
  }
  io::File file = io::File::open(comm, volume, ds.path);
  PartitionReader reader(comm, file, ds.partition, cfg.stream.chunkBytes, fmt);

  std::string text;
  while (true) {
    const double t0 = comm.clock().now();
    const bool more = reader.next(text);
    phases.read += comm.clock().now() - t0;
    if (!more) break;
    const double readDoneAt = comm.clock().now();
    obs::traceSpanAt("read", t0, readDoneAt);

    geom::GeometryBatch chunk;
    ParseTiming pt;
    const ParseStats ps = fmt->parseChunk(text, chunk, pool, &pt);
    if (pool != nullptr) {
      phases.workerCpu += pt.cpuSum;
      phases.workerCritical += pt.critical;
    }
    parseStats.records += ps.records;
    parseStats.badRecords += ps.badRecords;
    parseStats.bytes += ps.bytes;
    ChunkPrep prep;
    if (deferPrep) {
      prep = {readDoneAt, pt.critical};
    } else {
      const double p0 = comm.clock().now();
      comm.clock().advanceBy(pt.critical);
      obs::traceSpanAt("parse", p0, comm.clock().now());
      phases.parse += pt.critical;
    }
    localBounds.expandToInclude(chunk.bounds());
    if (pilot != nullptr) pilot->observe(chunk);
    ckpt.logChunk(layer, chunk);
    stage.push(std::move(chunk), prep);
  }
  ioStats = reader.counters();
}

/// Ascending union of two sorted cell-id lists.
std::vector<int> mergeCellLists(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

/// Refine dispatch through the partition map. Uniform maps call straight
/// through (partition cells *are* grid cells). Adaptive maps sub-bucket
/// the partition cell's records by uniform member cell — re-running the
/// same overlappingCells arithmetic projection used, keeping only members
/// of this partition cell — and refine each member separately, so every
/// task sees exactly the uniform cells, spans and duplicate-avoidance
/// geometry the uniform-grid run would have produced.
void refineThroughMap(RefineTask& task, const PartitionMap& map, int cell,
                      const geom::BatchSpan& r, const geom::BatchSpan& s) {
  if (map.isUniform()) {
    task.refineCellBatch(map.grid(), cell, r, s);
    return;
  }
  const GridSpec& grid = map.grid();
  // Ascending uniform member id; each layer's sub-list keeps span order.
  std::map<int, std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>> sub;
  std::vector<int> cells;
  const auto bucket = [&](const geom::BatchSpan& span, bool isR) {
    for (std::size_t k = 0; k < span.size(); ++k) {
      cells.clear();
      grid.overlappingCells(span.envelope(k), cells);
      for (const int u : cells) {
        if (map.groupOf(u) != cell) continue;
        auto& lists = sub[u];
        (isR ? lists.first : lists.second)
            .push_back(static_cast<std::uint32_t>(span.recordIndex(k)));
      }
    }
  };
  bucket(r, true);
  bucket(s, false);
  for (const auto& [u, lists] : sub) {
    // An empty sub-list must become a default span: BatchSpan::batch()
    // dereferences, and r/s themselves may be default spans here.
    const geom::BatchSpan subR =
        lists.first.empty()
            ? geom::BatchSpan()
            : geom::BatchSpan(&r.batch(), lists.first.data(), lists.first.size());
    const geom::BatchSpan subS =
        lists.second.empty()
            ? geom::BatchSpan()
            : geom::BatchSpan(&s.batch(), lists.second.data(), lists.second.size());
    task.refineCellBatch(grid, u, subR, subS);
  }
}

}  // namespace

geom::GeometryBatch projectToCells(const PartitionMap& map, const CellLocator* locator,
                                   geom::GeometryBatch&& geoms) {
  const std::size_t n = geoms.size();
  std::vector<int> cells;
  for (std::size_t i = 0; i < n; ++i) {
    cells.clear();
    if (locator != nullptr) {
      // The locator resolves uniform cells; adaptive maps translate its
      // (already sorted) result into partition ids in place.
      locator->overlappingCells(geoms.envelope(i), cells);
      map.translateCells(cells, 0);
    } else {
      map.overlappingCells(geoms.envelope(i), cells);
    }
    if (cells.empty()) {
      geoms.setCell(i, geom::GeometryBatch::kNoCell);
      continue;
    }
    geoms.setCell(i, cells[0]);
    for (std::size_t k = 1; k < cells.size(); ++k) geoms.appendRecordFrom(geoms, i, cells[k]);
  }
  return std::move(geoms);
}

FrameworkStats runFilterRefine(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& r,
                               const DatasetHandle* s, const FrameworkConfig& cfg, RefineTask& task) {
  MVIO_CHECK(cfg.gridCells >= 1, "need at least one grid cell");
  FrameworkStats stats;
  const StreamConfig& sc = cfg.stream;
  const std::uint64_t budget = sc.memoryBudget == 0 ? UINT64_MAX : sc.memoryBudget;
  const int p = comm.size();

  // Checkpoint/recovery setup (DESIGN.md §9). Checkpoint blob names are
  // keyed by world rank, so the subsystem requires the launch (world)
  // communicator when enabled.
  recovery::CheckpointCoordinator ckpt(comm, volume, sc, &stats.phases);
  if (ckpt.enabled()) {
    MVIO_CHECK(comm.rank() == comm.worldRank(),
               "checkpointing requires the world communicator (blob names are world-rank keyed)");
  }
  const recovery::FaultPlan faults =
      recovery::planFaults(cfg.failSchedule, p, comm.worldRank(), ckpt.enabled());

  // Per-rank worker pool (DESIGN.md §10). The rank thread keeps exclusive
  // ownership of Comm and the sim clock; workers only ever run
  // parse/refine bodies handed to them, and every pool region is charged
  // to the clock afterwards by its critical path (max worker CPU).
  MVIO_CHECK(cfg.threadsPerRank >= 1, "threadsPerRank must be at least 1");
  std::optional<util::ThreadPool> pool;
  if (cfg.threadsPerRank > 1) pool.emplace(cfg.threadsPerRank);

  // Refine worker clones — one per pool thread. A task whose makeWorker
  // returns nullptr opts out of parallel refine: the same group loop runs
  // inline on the main task.
  std::vector<std::unique_ptr<RefineTask>> refineWorkers;
  if (pool) {
    for (int t = 0; t < cfg.threadsPerRank; ++t) {
      std::unique_ptr<RefineTask> w = task.makeWorker();
      if (w == nullptr) {
        refineWorkers.clear();
        break;
      }
      refineWorkers.push_back(std::move(w));
    }
  }
  const bool parallelRefine = !refineWorkers.empty();

  // Round overlap is defined on the chunked round schedule; a one-shot
  // run (chunkBytes == 0) has a single round and nothing to pipeline.
  const bool overlap = sc.overlapRounds && sc.chunkBytes > 0;

  // Rank-local scratch for spilled shards; blobs are dropped on exit.
  pfs::SpillStore spill(volume, sc.spillDir + "/rank" + std::to_string(comm.worldRank()));
  const pfs::SpillPricer pricer = sc.spillOnPfs
                                      ? pfs::SpillPricer::onVolume(volume, comm.nodeId())
                                      : pfs::SpillPricer::flatRate(sc.spillBytesPerSecond);
  Spiller spiller{&comm, &spill, pricer, &stats.phases};

  // 1+2: read and parse both layers, chunk by chunk, staging the parsed
  // batches (under the memory budget) for the exchange rounds.
  BatchStager stageR(spiller, "pend_r", budget);
  BatchStager stageS(spiller, "pend_s", budget);
  geom::Envelope localBounds;
  // Adaptive partitioning piggybacks a pilot sample on the ingest scan —
  // no extra read pass (DESIGN.md §13).
  std::optional<PilotSampler> pilot;
  if (cfg.partition.scheme != PartitionScheme::kUniform) pilot.emplace(cfg.partition);
  ingestLayer(comm, volume, r, cfg, stageR, localBounds, stats.parseR, stats.ioR, stats.phases,
              ckpt, 0, pool ? &*pool : nullptr, overlap, pilot ? &*pilot : nullptr);
  if (s != nullptr) {
    ingestLayer(comm, volume, *s, cfg, stageS, localBounds, stats.parseS, stats.ioS, stats.phases,
                ckpt, 1, pool ? &*pool : nullptr, overlap, pilot ? &*pilot : nullptr);
  }
  ckpt.sealIngest();

  // 3: global grid via MPI_UNION of local MBRs (both layers). Chunked
  // parsing folded every chunk's bounds into localBounds, so the union is
  // identical to a whole-batch scan.
  stats.grid = buildGlobalGrid(comm, localBounds, cfg.gridCells);
  const GridSpec& grid = stats.grid;

  // 3b: partition map (DESIGN.md §13). Pilot samples are shared — counts
  // allgathered, envelopes gathered to rank 0 in rank order and broadcast
  // back — so every rank sees the identical sample sequence and builds
  // the identical map and plan with no further agreement round.
  stats.partition = PartitionMap::uniform(grid);
  if (pilot) {
    const std::uint64_t mine = pilot->envelopes.size();
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(p), 0);
    comm.allgather(&mine, 1, mpi::Datatype::uint64(), counts.data());
    std::uint64_t totalSamples = 0;
    std::vector<int> recvCounts(static_cast<std::size_t>(p), 0);
    std::vector<int> displs(static_cast<std::size_t>(p), 0);
    for (int rk = 0; rk < p; ++rk) {
      displs[static_cast<std::size_t>(rk)] = static_cast<int>(totalSamples * 4);
      recvCounts[static_cast<std::size_t>(rk)] = static_cast<int>(counts[static_cast<std::size_t>(rk)] * 4);
      totalSamples += counts[static_cast<std::size_t>(rk)];
    }
    std::vector<double> flat(static_cast<std::size_t>(mine) * 4);
    for (std::size_t i = 0; i < pilot->envelopes.size(); ++i) {
      const geom::Envelope& e = pilot->envelopes[i];
      flat[i * 4 + 0] = e.minX();
      flat[i * 4 + 1] = e.minY();
      flat[i * 4 + 2] = e.maxX();
      flat[i * 4 + 3] = e.maxY();
    }
    std::vector<double> all(static_cast<std::size_t>(totalSamples) * 4);
    comm.gatherv(flat.data(), static_cast<int>(flat.size()), mpi::Datatype::float64(), all.data(),
                 recvCounts.data(), displs.data(), 0);
    comm.bcast(all.data(), static_cast<int>(all.size()), mpi::Datatype::float64(), 0);
    std::vector<geom::Envelope> samples;
    samples.reserve(static_cast<std::size_t>(totalSamples));
    for (std::size_t i = 0; i < static_cast<std::size_t>(totalSamples); ++i) {
      const geom::Envelope e(all[i * 4 + 0], all[i * 4 + 1], all[i * 4 + 2], all[i * 4 + 3]);
      if (!e.isNull()) samples.push_back(e);
    }
    stats.partition = buildPartitionMap(cfg.partition, grid, samples, p);
    // Plan with the measured run size: parsed records scale the sampled
    // loads; parsed bytes per record price the predicted migration.
    std::uint64_t localSize[2] = {stats.parseR.records + stats.parseS.records,
                                  stats.parseR.bytes + stats.parseS.bytes};
    std::uint64_t runSize[2] = {0, 0};
    comm.allreduce(localSize, runSize, 2, mpi::Datatype::uint64(), mpi::Op::sum());
    const double bytesPerRecord =
        runSize[0] == 0 ? 256.0 : static_cast<double>(runSize[1]) / static_cast<double>(runSize[0]);
    stats.plan = planPartition(stats.partition, samples, p, runSize[0], bytesPerRecord);
  }
  const PartitionMap& map = stats.partition;
  if (ckpt.enabled()) ckpt.setPartitionMap(encodePartitionMap(map));

  std::optional<CellLocator> locator;
  if (cfg.rtreeCellLocator) locator.emplace(grid);
  auto owner = [p](int cell) { return roundRobinOwner(cell, p); };
  std::vector<int> rrOwner;
  if (ckpt.enabled()) {
    rrOwner.resize(static_cast<std::size_t>(map.cellCount()));
    for (int c = 0; c < map.cellCount(); ++c) rrOwner[static_cast<std::size_t>(c)] = owner(c);
  }

  // 4+5: project + exchange rounds per layer (communication phase).
  // exchangeByCell charges serialization/deserialization CPU internally;
  // the clock deltas accumulated per round therefore cover buffer
  // management + transfer, the paper's definition of communication time.
  // Received records accumulate into per-layer CellStores: resident when
  // the budget is unbounded, cell-sorted spill segments otherwise.
  const SpillChargeFn spillCharge = [&spiller](std::uint64_t bytes, bool isWrite) {
    spiller.charge(bytes, isWrite);
  };
  // Two-layer runs split the refine budget between the layer stores so
  // the reported peak (their sum) stays within the configured bound. A
  // parallel streaming refine additionally reserves a group share out of
  // the same budget for the per-dispatch staged cell batches, keeping the
  // bound (plus the usual one-cell slack) intact.
  std::uint64_t refineGroupBytes = 0;
  std::uint64_t storePool = sc.memoryBudget;
  if (sc.memoryBudget > 0 && parallelRefine) {
    refineGroupBytes = std::max<std::uint64_t>(sc.memoryBudget / 4, 1);
    storePool = std::max<std::uint64_t>(sc.memoryBudget - refineGroupBytes, 1);
  }
  const std::uint64_t storeBudget =
      (s != nullptr && storePool > 0) ? std::max<std::uint64_t>(storePool / 2, 1) : storePool;
  CellStore ownedR(&spill, "own_r", storeBudget, spillCharge);
  CellStore ownedS(&spill, "own_s", storeBudget, spillCharge);

  // The data-round schedule is fixed up front (the counts derive from the
  // staged chunks, allreduced): the kill point and the checkpoint epochs
  // are defined on the global data-round index — layer R's rounds first,
  // then layer S's — and recovery replays against the same schedule.
  const std::uint64_t roundsR = allreduceMaxU64(comm, stageR.pending());
  const std::uint64_t roundsS = s != nullptr ? allreduceMaxU64(comm, stageS.pending()) : 0;
  // The agreed schedule lets compaction map GC'd rounds to chunk blobs.
  ckpt.setRoundSchedule(roundsR, roundsS);
  MVIO_CHECK(faults.lastKillRound <= roundsR + roundsS,
             "kill point lies beyond the data-round schedule");

  mpi::Comm active = comm;  ///< shrinks to the survivors after a recovery
  std::vector<int> activeWorld;  ///< active-local rank -> world rank (post-recovery)
  std::uint64_t globalRound = 0;

  // Reused across every exchange round so the p-sized header/count
  // vectors and the payload buffers keep their capacity between rounds.
  ExchangeScratch xscratch;

  // Round-overlap pipeline state (DESIGN.md §10), shared across layers.
  // prepDoneAt models the prep stage (deferred parse + projection,
  // double-buffered two rounds deep against the exchange), storeDoneAt
  // the store-flush stage replaying deferred owned-store spill charges,
  // commDonePrev* the last two rounds' exchange completion times.
  double prepDoneAt = 0;
  double commDonePrev1 = 0;
  double commDonePrev2 = 0;
  double storeDoneAt = 0;
  double spillBanked = 0;

  // One layer's rounds. Returns false when the schedule was cut short —
  // this rank died, or a recovery re-derived every remaining round from
  // the durable log (no further exchanges happen either way).
  const auto runLayerRounds = [&](int layer, BatchStager& stage, CellStore& owned,
                                  std::uint64_t rounds) -> bool {
    const bool streaming = sc.chunkBytes > 0;
    for (std::uint64_t round = 0; round < rounds; ++round) {
      obs::traceBegin("round");
      geom::GeometryBatch chunk;
      ChunkPrep prep;  // stays zero on an empty round for this rank
      stage.pop(chunk, prep);
      double projectSeconds = 0;
      {
        sim::ThreadCpuTimer timer;
        chunk = projectToCells(map, locator ? &*locator : nullptr, std::move(chunk));
        projectSeconds = timer.elapsed();
      }
      if (overlap) {
        // Pipeline recurrence: the chunk's prep (deferred parse +
        // projection) starts once the prep stage is free, its read has
        // landed, and the depth-2 buffer has room — i.e. the exchange two
        // rounds back has completed. Only the part of the prep that
        // outlasts "now" stalls the rank; the rest already hid under
        // earlier exchanges and is credited to `overlapped`.
        const double parseSeconds = prep.prepSeconds;
        const double now0 = comm.clock().now();
        const double prepStart = std::max({prepDoneAt, prep.readDoneAt, commDonePrev2});
        prepDoneAt = prepStart + parseSeconds + projectSeconds;
        const double exposed = std::max(0.0, prepDoneAt - now0);
        comm.clock().advanceTo(prepDoneAt);
        const double prepTotal = parseSeconds + projectSeconds;
        // The prep stage runs concurrently with earlier exchanges — it
        // gets its own lane so the overlap is visible in the trace, split
        // into the phase names the breakdown charges it to.
        if (obs::ObsContext& octx = obs::obsContext(); octx.tracer != nullptr) {
          const int lane = octx.tracer->prepLane();
          if (parseSeconds > 0) {
            obs::traceSpanAtLane(lane, "parse", prepStart, prepStart + parseSeconds);
          }
          if (projectSeconds > 0) {
            obs::traceSpanAtLane(lane, "partition", prepStart + parseSeconds, prepDoneAt);
          }
        }
        if (prepTotal > 0) {
          stats.phases.parse += exposed * (parseSeconds / prepTotal);
          stats.phases.partition += exposed * (projectSeconds / prepTotal);
          stats.phases.overlapped += prepTotal - exposed;
        }
      } else {
        const double pj0 = comm.clock().now();
        comm.clock().advanceBy(projectSeconds);
        obs::traceSpanAt("partition", pj0, comm.clock().now());
        stats.phases.partition += projectSeconds;
      }
      const bool last = !streaming && round + 1 == rounds;
      const double t0 = comm.clock().now();
      const std::uint64_t wire0 = stats.exchange.bytesReceived;
      geom::GeometryBatch got =
          exchangeByCell(comm, std::move(chunk), owner, cfg.windowPhases, map.cellCount(),
                         &stats.exchange, {}, last, &xscratch);
      stats.phases.comm += comm.clock().now() - t0;
      stats.phases.rounds += 1;
      obs::traceSpanAt("comm", t0, comm.clock().now());
      if (obs::metricsOn()) {
        const std::uint64_t roundBytes = stats.exchange.bytesReceived - wire0;
        obs::addCount("exchange.bytes", roundBytes);
        obs::observe("exchange.round_bytes", static_cast<double>(roundBytes));
      }
      if (overlap) {
        commDonePrev2 = commDonePrev1;
        commDonePrev1 = comm.clock().now();
      }
      ckpt.noteRound(layer, got);
      if (overlap) {
        // Store-flush stage: the owned store's segment flushes for round
        // N−1 run while round N's exchange is on the wire; the deferred
        // charges queue on storeDoneAt and the residue is settled before
        // finalize.
        double banked = 0;
        spiller.defer = &banked;
        owned.add(std::move(got));
        spiller.defer = nullptr;
        const double flushStart = std::max(storeDoneAt, comm.clock().now());
        storeDoneAt = flushStart + banked;
        spillBanked += banked;
        if (obs::ObsContext& octx = obs::obsContext(); octx.tracer != nullptr && banked > 0) {
          obs::traceSpanAtLane(octx.tracer->flushLane(), "spill", flushStart, storeDoneAt);
        }
      } else {
        owned.add(std::move(got));
      }
      globalRound += 1;
      ckpt.maybeCheckpoint(globalRound, rrOwner);

      if (globalRound == faults.firstKillRound) {
        // Failure detection + cascading recovery (recovery.hpp); every
        // remaining round is then re-derived from the durable log.
        activeWorld = recovery::recoverUntilStable(
            active, volume, faults, sc, {roundsR, roundsS}, map, locator ? &*locator : nullptr,
            ownedR, s != nullptr ? &ownedS : nullptr, stats);
        obs::traceEnd("round");
        return false;
      }
      obs::traceEnd("round");
    }
    if (streaming) {
      // Termination barrier: an empty round whose header carries
      // kRoundLast on every rank, making "no records this round" and
      // "stream over" distinct on the wire.
      const double t0 = comm.clock().now();
      geom::GeometryBatch got =
          exchangeByCell(comm, geom::GeometryBatch(), owner, cfg.windowPhases, map.cellCount(),
                         &stats.exchange, {}, /*lastRound=*/true, &xscratch);
      stats.phases.comm += comm.clock().now() - t0;
      stats.phases.rounds += 1;
      owned.add(std::move(got));
    }
    return true;
  };

  bool onSchedule = runLayerRounds(0, stageR, ownedR, roundsR);
  if (onSchedule && s != nullptr) onSchedule = runLayerRounds(1, stageS, ownedS, roundsS);

  if (stats.recovery.died) {
    // Fail-stop: the rank's volatile state — staged chunks, owned cell
    // stores, scratch spill blobs — dies with it. Only the durable
    // checkpoint blobs it already wrote survive on the volume. Its task
    // never refines and it joins no further collective.
    spill.clear();
    stats.spill = spill.stats();
    return stats;
  }
  if (stats.recovery.recovered) {
    // Every remaining round was re-derived from the chunk log; the
    // staged copies (and the dead ranks' stale deliveries they would
    // duplicate) are discarded. Their deferred prep was still real parse
    // CPU the round loop never reached; account it as hidden.
    stats.phases.overlapped += stageR.discard();
    stats.phases.overlapped += stageS.discard();
    stats.activeComm = active;
  }
  if (overlap) {
    // Settle the store-flush stage: whatever deferred spill time outlasts
    // the final exchange is a real stall before refine; the rest hid.
    const double now = comm.clock().now();
    const double exposed = std::min(spillBanked, std::max(0.0, storeDoneAt - now));
    stats.phases.spill += exposed;
    stats.phases.overlapped += spillBanked - exposed;
    comm.clock().advanceTo(storeDoneAt);
  }

  ownedR.finalize();
  ownedS.finalize();
  stats.localR = ownedR.records();
  stats.localS = ownedS.records();

  // 5b: skew-aware owned-cell rebalancing, on the active (possibly
  // shrunk) communicator. Every rank reduces the global per-cell loads
  // and measures the imbalance; when it clears the adaptive threshold,
  // all repeat the same deterministic LPT assignment and ship leaving
  // cells point-to-point as checksummed shard blobs.
  const int ap = active.size();
  if (cfg.rebalanceCells && ap > 1) {
    const double t0 = active.clock().now();
    obs::traceBegin("migrate");
    const double spillBefore = stats.phases.spill;
    stats.balance.ownedRecordsBefore = ownedR.records() + ownedS.records();
    std::vector<std::uint64_t> loads(static_cast<std::size_t>(map.cellCount()), 0);
    ownedR.accumulateCellLoads(loads);
    ownedS.accumulateCellLoads(loads);
    std::vector<std::uint64_t> global(loads.size(), 0);
    active.allreduce(loads.data(), global.data(), static_cast<int>(loads.size()),
                     mpi::Datatype::uint64(), mpi::Op::sum());

    if (activeWorld.empty()) {
      activeWorld.resize(static_cast<std::size_t>(ap));
      std::iota(activeWorld.begin(), activeWorld.end(), 0);
    }
    std::vector<int> worldToLocal(static_cast<std::size_t>(p), -1);
    for (int local = 0; local < ap; ++local) {
      worldToLocal[static_cast<std::size_t>(activeWorld[static_cast<std::size_t>(local)])] = local;
    }
    // Current ownership in world ranks: the recovery map when one ran,
    // round-robin over the launch size otherwise.
    const auto currentWorldOwner = [&](int cell) {
      return stats.cellOwner.empty() ? roundRobinOwner(cell, p)
                                     : stats.cellOwner[static_cast<std::size_t>(cell)];
    };

    // Adaptive trigger: measure the max/mean per-rank load ratio under
    // the current map and skip the pass — and its wire traffic — when
    // the owned loads are already within the threshold.
    std::vector<int> curLocal(static_cast<std::size_t>(map.cellCount()), 0);
    std::uint64_t total = 0;
    for (int c = 0; c < map.cellCount(); ++c) {
      const int local = worldToLocal[static_cast<std::size_t>(currentWorldOwner(c))];
      MVIO_CHECK(local >= 0, "rebalance: cell owned by a rank outside the active communicator");
      curLocal[static_cast<std::size_t>(c)] = local;
      total += global[static_cast<std::size_t>(c)];
    }
    const double mean = static_cast<double>(total) / static_cast<double>(ap);
    // Max/mean ratio of a local assignment: the trigger measurement under
    // the current map and the "after" gauge of the LPT proposal.
    const auto imbalanceOf = [&](const std::vector<int>& owner) {
      std::vector<std::uint64_t> load(static_cast<std::size_t>(ap), 0);
      for (int c = 0; c < map.cellCount(); ++c) {
        load[static_cast<std::size_t>(owner[static_cast<std::size_t>(c)])] +=
            global[static_cast<std::size_t>(c)];
      }
      const std::uint64_t mx = *std::max_element(load.begin(), load.end());
      return total == 0 ? 0.0 : static_cast<double>(mx) / mean;
    };
    stats.balance.imbalance = imbalanceOf(curLocal);
    obs::setGauge("balance.imbalance_before", stats.balance.imbalance);

    // Under an adaptive map the LPT proposal is additionally priced by the
    // cost model: refine seconds the move would save vs wire seconds it
    // costs at the measured shard size, scaled by rebalanceThreshold. The
    // uniform path keeps the classic ratio-only trigger byte-for-byte.
    bool costGated = false;
    std::vector<int> proposal;
    if (stats.balance.imbalance >= cfg.rebalanceThreshold) {
      proposal = lptAssignCells(global, ap);
      if (!map.isUniform()) {
        // Measured wire size per record, allreduced so every rank prices
        // (and gates) the identical decision.
        std::uint64_t localWire[2] = {stats.exchange.bytesReceived,
                                      stats.exchange.geometriesReceived};
        std::uint64_t wire[2] = {0, 0};
        active.allreduce(localWire, wire, 2, mpi::Datatype::uint64(), mpi::Op::sum());
        const double bytesPerRecord =
            wire[1] == 0 ? 256.0 : static_cast<double>(wire[0]) / static_cast<double>(wire[1]);
        const RebalanceDecision price = priceRebalance(global, curLocal, proposal, ap,
                                                       bytesPerRecord, cfg.rebalanceThreshold);
        stats.balance.costGainSeconds = price.gainSeconds;
        stats.balance.costMigrateSeconds = price.migrateSeconds;
        costGated = !price.worthIt;
      }
    }

    if (stats.balance.imbalance < cfg.rebalanceThreshold || costGated) {
      stats.balance.skipped = true;
      stats.balance.costGated = costGated;
      stats.balance.ownedRecordsAfter = stats.balance.ownedRecordsBefore;
      obs::setGauge("balance.imbalance_after", stats.balance.imbalance);
    } else {
      obs::setGauge("balance.imbalance_after", imbalanceOf(proposal));
      const std::vector<int>& newLocal = proposal;
      std::vector<int> newWorld(newLocal.size());
      for (std::size_t c = 0; c < newLocal.size(); ++c) {
        newWorld[c] = activeWorld[static_cast<std::size_t>(newLocal[c])];
      }
      for (int c = 0; c < map.cellCount(); ++c) {
        if (newWorld[static_cast<std::size_t>(c)] != currentWorldOwner(c)) {
          stats.balance.cellsMoved += 1;
        }
      }
      stats.cellOwner = std::move(newWorld);

      // Budget-bounded migration: leaving cells are extracted (ascending
      // cell order) and shipped in passes of at most one store-budget
      // share of staged outgoing records — one whole cell of slack for a
      // cell larger than the share — so the transfer respects
      // StreamConfig::memoryBudget like every other phase. The passes
      // terminate collectively (a rank with nothing left still joins its
      // peers' remaining rounds). Every cell moves wholly within one
      // pass, so per-cell record order — all any consumer depends on —
      // is identical to the single-pass transfer.
      const auto migrateLayer = [&](CellStore& store) {
        std::vector<int> leaving;
        for (const int cell : store.cells()) {
          if (newLocal[static_cast<std::size_t>(cell)] != active.rank()) leaving.push_back(cell);
        }
        const std::uint64_t passBudget = storeBudget == 0 ? UINT64_MAX : storeBudget;
        std::size_t next = 0;
        while (true) {
          std::vector<geom::GeometryBatch> outgoing(static_cast<std::size_t>(ap));
          std::uint64_t staged = 0;
          while (next < leaving.size() && staged < passBudget) {
            const int cell = leaving[next++];
            geom::GeometryBatch extracted = store.extractCell(cell);
            staged += extracted.memoryBytes();
            outgoing[static_cast<std::size_t>(newLocal[static_cast<std::size_t>(cell)])].splice(
                std::move(extracted));
          }
          const std::uint64_t more = allreduceMaxU64(active, next < leaving.size() ? 1 : 0);
          geom::GeometryBatch got = migrateShards(active, std::move(outgoing),
                                                  kMigrationBlobBytes, &stats.balance.transport);
          store.addMigrated(std::move(got));
          stats.balance.migrationPasses += 1;
          if (more == 0) break;
        }
      };
      migrateLayer(ownedR);
      if (s != nullptr) migrateLayer(ownedS);

      stats.balance.ownedRecordsAfter = ownedR.records() + ownedS.records();
      stats.phases.migrateBytes = stats.balance.transport.bytesSent;
      stats.phases.migrateRounds = stats.balance.transport.blobsSent;
      obs::addCount("migrate.bytes", stats.balance.transport.bytesSent);
      obs::addCount("migrate.blobs", stats.balance.transport.blobsSent);
    }
    // Shard reloads during cell extraction charged themselves to the
    // spill phase; subtract them so total() counts the time once.
    stats.phases.migrate += (active.clock().now() - t0) - (stats.phases.spill - spillBefore);
    obs::traceEnd("migrate");
  }

  // 6: cell-major refine (DESIGN.md §10). Owned cells are visited in
  // ascending cell-id order and staged into bounded groups; each group is
  // cut into contiguous ascending-cell blocks, one per refine worker,
  // proportional to record weight. Because the blocks are contiguous and
  // the workers are merged back in worker order after every group, the
  // fold into the main task replays the ascending-cell order — results
  // are bit-identical at any thread count. Without refine workers the
  // main task is the one worker and runs each group inline. The stores
  // (not thread-safe) are only touched here on the main thread; workers
  // read read-only resident spans or staged per-cell batches (streaming,
  // one ranged reload per spilled segment, adopted by the task cell by
  // cell).
  const std::uint64_t reloadBase = ownedR.reloadBytes() + ownedS.reloadBytes();
  {
    // Main-thread CPU (loop bookkeeping, group assembly, inline refine,
    // merges, adoption) is measured by mainTimer; each worker dispatch
    // charges its critical path (max worker CPU) on top.
    const double blockStart = comm.clock().now();
    const bool measureCells = obs::metricsOn();
    obs::traceBegin("compute");
    sim::ThreadCpuTimer mainTimer;
    double workerSeconds = 0;
    const bool streamingRefine = ownedR.streaming();
    const std::vector<int> cells = mergeCellLists(ownedR.cells(), ownedS.cells());
    stats.cellsOwned = cells.size();

    const int nw = parallelRefine ? static_cast<int>(refineWorkers.size()) : 1;
    struct CellWork {
      int cell = 0;
      geom::GeometryBatch r, s;  // staged owned batches (streaming)
      std::vector<std::uint32_t> idxR, idxS;
      geom::BatchSpan spanR, spanS;
    };
    std::vector<CellWork> group;
    std::uint64_t groupBytes = 0;

    const auto sealGroupSpans = [&group] {
      // Spans are built only once the group stops growing: vector
      // growth moves the CellWork structs (batch arenas stay put, but
      // the idx vectors' addresses must be final).
      for (CellWork& w : group) {
        w.spanR = geom::BatchSpan(&w.r, w.idxR.data(), w.idxR.size());
        w.spanS = geom::BatchSpan(&w.s, w.idxS.data(), w.idxS.size());
      }
    };
    const auto dispatchGroup = [&] {
      if (group.empty()) return;
      std::uint64_t totalWeight = 0;
      for (const CellWork& w : group) totalWeight += w.spanR.size() + w.spanS.size() + 1;
      // Deterministic proportional cuts over the weighted prefix.
      std::vector<std::size_t> cut(static_cast<std::size_t>(nw) + 1, group.size());
      cut[0] = 0;
      std::uint64_t prefix = 0;
      std::size_t i = 0;
      for (int t = 0; t + 1 < nw; ++t) {
        const std::uint64_t target =
            totalWeight * static_cast<std::uint64_t>(t + 1) / static_cast<std::uint64_t>(nw);
        while (i < group.size() && prefix < target) {
          prefix += group[i].spanR.size() + group[i].spanS.size() + 1;
          ++i;
        }
        cut[static_cast<std::size_t>(t) + 1] = i;
      }
      // Workers have no obs context: per-cell seconds land in a plain
      // array each worker owns a disjoint slice of; the rank thread
      // feeds the histogram (and the worker lanes) after the region.
      std::vector<double> cellSeconds;
      if (measureCells) cellSeconds.assign(group.size(), 0.0);
      const auto refineBlock = [&](RefineTask& worker, int t) {
        for (std::size_t k = cut[static_cast<std::size_t>(t)];
             k < cut[static_cast<std::size_t>(t) + 1]; ++k) {
          std::optional<sim::ThreadCpuTimer> cellTimer;
          if (measureCells) cellTimer.emplace();
          refineThroughMap(worker, map, group[k].cell, group[k].spanR, group[k].spanS);
          if (cellTimer) cellSeconds[k] = cellTimer->elapsed();
        }
      };
      if (parallelRefine) {
        const util::PoolTiming pt = pool->runOnWorkers(
            [&](int t) { refineBlock(*refineWorkers[static_cast<std::size_t>(t)], t); });
        // Worker-lane spans: the region starts where the final
        // advanceBy(mainSeconds + workerSeconds) will place it — block
        // start plus main CPU so far plus earlier regions' critical paths.
        obs::traceWorkerSpans("compute", blockStart + mainTimer.elapsed() + workerSeconds,
                              pt.perWorker);
        workerSeconds += pt.cpuMax;
        stats.phases.workerCpu += pt.cpuSum;
        stats.phases.workerCritical += pt.cpuMax;
        for (int t = 0; t < nw; ++t) task.mergeWorker(*refineWorkers[static_cast<std::size_t>(t)]);
      } else {
        refineBlock(task, 0);
      }
      for (const double cs : cellSeconds) obs::observe("refine.cell_seconds", cs);
      if (streamingRefine) {
        // Per-cell adoption in ascending order, after the merge so the
        // task sees results before their backing arenas move.
        for (CellWork& w : group) task.adoptBatches(std::move(w.r), std::move(w.s));
      }
      group.clear();
      groupBytes = 0;
    };

    // Streaming groups close at refineGroupBytes (0 without refine
    // workers: one cell per group, so refine memory stays the resident
    // tails plus one cell); a resident run is one group.
    for (const int cell : cells) {
      CellWork work;
      work.cell = cell;
      if (streamingRefine) {
        work.r = ownedR.takeCellAssembled(cell);
        work.s = ownedS.takeCellAssembled(cell);
        groupBytes += work.r.memoryBytes() + work.s.memoryBytes();
        work.idxR.resize(work.r.size());
        std::iota(work.idxR.begin(), work.idxR.end(), std::uint32_t{0});
        work.idxS.resize(work.s.size());
        std::iota(work.idxS.begin(), work.idxS.end(), std::uint32_t{0});
      } else {
        work.spanR = ownedR.cellSpan(cell);
        work.spanS = ownedS.cellSpan(cell);
      }
      group.push_back(std::move(work));
      stats.refinePeakBytes = std::max(
          stats.refinePeakBytes, ownedR.trackedBytes() + ownedS.trackedBytes() + groupBytes);
      if (streamingRefine && groupBytes >= refineGroupBytes) {
        sealGroupSpans();
        dispatchGroup();
      }
    }
    if (streamingRefine) sealGroupSpans();
    dispatchGroup();
    if (!streamingRefine) {
      // Whole-run adoption, as in the one-shot pipeline (records migrated
      // away by rebalancing are kNoCell-tombstoned).
      task.adoptBatches(ownedR.takeResidentBatch(), ownedS.takeResidentBatch());
    }
    const double mainSeconds = mainTimer.elapsed();
    comm.clock().advanceBy(mainSeconds + workerSeconds);
    stats.phases.compute += mainSeconds + workerSeconds;
    obs::traceEnd("compute");
  }
  stats.refinePeakBytes = std::max({stats.refinePeakBytes, ownedR.peakBytes(), ownedS.peakBytes()});
  // Only the refine loop's reloads; migration-extraction reloads are
  // priced in the spill phase and counted in FrameworkStats::spill.
  stats.phases.refineSpillBytes = ownedR.reloadBytes() + ownedS.reloadBytes() - reloadBase;

  ownedR.releaseBlobs();
  ownedS.releaseBlobs();
  stats.spill = spill.stats();
  spill.clear();
  return stats;
}

}  // namespace mvio::core
