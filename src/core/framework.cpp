#include "core/framework.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "core/stages.hpp"
#include "recovery/recovery.hpp"
#include "util/error.hpp"

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

const FormatReader& DatasetHandle::reader() const {
  MVIO_CHECK(parser == nullptr || format == nullptr,
             "dataset has both a parser and a format; set exactly one");
  MVIO_CHECK(parser != nullptr || format != nullptr, "dataset needs a parser or format");
  return format != nullptr ? *format : *parser;
}

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
  // returns nullptr opts out: the group loop then runs inline on `task`.
  std::vector<std::unique_ptr<RefineTask>> refineWorkers;
  for (int t = 0; pool && t < cfg.threadsPerRank; ++t) {
    refineWorkers.push_back(task.makeWorker());
    if (refineWorkers.back() == nullptr) {
      refineWorkers.clear();
      break;
    }
  }

  // Rank-local scratch for spilled shards; blobs are dropped on exit.
  pfs::SpillStore spill(volume, sc.spillDir + "/rank" + std::to_string(comm.worldRank()));
  const pfs::SpillPricer pricer = sc.spillOnPfs
                                      ? pfs::SpillPricer::onVolume(volume, comm.nodeId())
                                      : pfs::SpillPricer::flatRate(sc.spillBytesPerSecond);
  Spiller spiller{&comm, &spill, pricer, &stats.phases};

  // 1–3b: Ingest stages the parsed chunks (under the memory budget) for
  // the exchange rounds; PlanPartition builds the grid, map and owners.
  BatchStager stageR(spiller, "pend_r", budget);
  BatchStager stageS(spiller, "pend_s", budget);
  // Each layer's read chunk, resolved once from values every rank shares
  // (file size and stripe, rank count, the layer's partition config), so
  // all ranks know the round schedule up front. Round overlap is defined
  // on that schedule: a run whose layers are all read one-shot has
  // nothing to pipeline.
  const auto resolveChunk = [&](const DatasetHandle& ds) {
    const std::shared_ptr<pfs::FileObject> file = volume.lookup(ds.path);
    return resolveChunkBytes(sc.chunkBytes, file->data->size(), p, file->stripe.stripeSize,
                             ds.partition);
  };
  const std::array<std::uint64_t, 2> layerChunk = {
      resolveChunk(r), s != nullptr ? resolveChunk(*s) : PartitionReader::kWholePartition};
  const bool streamed[2] = {layerChunk[0] != PartitionReader::kWholePartition,
                            layerChunk[1] != PartitionReader::kWholePartition};
  const bool overlap = sc.overlapRounds && (streamed[0] || streamed[1]);
  runPlanPartition(comm, cfg,
                   runIngest(comm, volume, r, s, cfg, pool ? &*pool : nullptr, layerChunk, overlap,
                             ckpt, stageR, stageS, stats),
                   stats);
  const PartitionMap& map = stats.partition;
  if (ckpt.enabled()) ckpt.setPartitionMap(encodePartitionMap(map));

  // The exchange's cell→rank map on `active`: stats.cellOwner itself
  // until a recovery, then its translation from world to survivor ranks.
  const std::vector<int>* exchangeOwner = &stats.cellOwner;
  std::vector<int> survivorOwner;
  const CellOwnerFn owner = [&exchangeOwner](int c) {
    return (*exchangeOwner)[static_cast<std::size_t>(c)];
  };

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
  if (sc.memoryBudget > 0 && !refineWorkers.empty()) {
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
  const std::uint64_t layerRounds[2] = {roundsR, roundsS};
  MVIO_CHECK(faults.lastKillRound <= roundsR + roundsS,
             "kill point lies beyond the data-round schedule");

  mpi::Comm active = comm;  ///< shrinks to the survivors after a recovery
  std::vector<int> launchRanks(static_cast<std::size_t>(p));  ///< active rank -> launch rank
  std::iota(launchRanks.begin(), launchRanks.end(), 0);
  std::optional<recovery::AdoptedLogs> adopted;  ///< set once a recovery resumes the rounds
  const recovery::InputLayers inputs = {&r, s};  ///< what the extent log re-reads
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

  // One layer's rounds on `active`. After a recovery the survivors carry
  // on with the rest of the schedule, each adding the adopted dead ranks'
  // logged chunks (re-read from the input) to its own; a rank that dies
  // returns at its kill point.
  const auto runLayerRounds = [&](int layer, BatchStager& stage, CellStore& owned,
                                  std::uint64_t rounds) {
    const bool streaming = streamed[layer];
    for (std::uint64_t round = 0; round < rounds; ++round) {
      obs::traceBegin("round");
      geom::GeometryBatch chunk;
      ChunkPrep prep;  // stays zero on an empty round for this rank
      stage.pop(chunk, prep);
      double projectSeconds = 0;
      {
        sim::ThreadCpuTimer timer;
        chunk = projectToCells(map, nullptr, std::move(chunk));
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
      if (adopted) chunk = adopted->surround(layer, round, map, std::move(chunk));
      const bool last = !streaming && round + 1 == rounds;
      const double t0 = comm.clock().now();
      const std::uint64_t wire0 = stats.exchange.bytesReceived;
      geom::GeometryBatch got =
          exchangeByCell(active, std::move(chunk), owner, cfg.windowPhases, map.cellCount(),
                         &stats.exchange, last, &xscratch);
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
      // No epoch is sealed after a failure: the checkpoint collectives
      // span the launch communicator.
      if (!stats.recovery.recovered) ckpt.noteRound(layer, got);
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
      if (!stats.recovery.recovered) ckpt.maybeCheckpoint(globalRound, stats.cellOwner);

      if (globalRound == faults.firstKillRound) {
        // Failure detection + cascading recovery (recovery.hpp) settle
        // every wave; the survivors then resume the schedule on `active`.
        launchRanks = recovery::recoverUntilStable(
            active, volume, faults, sc, inputs, layerRounds, map, ownedR,
            s != nullptr ? &ownedS : nullptr, stats);
        if (stats.recovery.died) {
          obs::traceEnd("round");
          return;
        }
        survivorOwner.assign(stats.cellOwner.size(), 0);
        for (std::size_t c = 0; c < survivorOwner.size(); ++c) {
          survivorOwner[c] = static_cast<int>(
              std::find(launchRanks.begin(), launchRanks.end(), stats.cellOwner[c]) -
              launchRanks.begin());
        }
        exchangeOwner = &survivorOwner;
        adopted.emplace(active, volume, sc, inputs, layerRounds, globalRound, p, launchRanks,
                        stats.phases);
      }
      obs::traceEnd("round");
    }
    if (streaming) {
      // Termination barrier: an empty round whose header carries
      // kRoundLast on every rank, making "no records this round" and
      // "stream over" distinct on the wire.
      const double t0 = comm.clock().now();
      geom::GeometryBatch got =
          exchangeByCell(active, geom::GeometryBatch(), owner, cfg.windowPhases, map.cellCount(),
                         &stats.exchange, /*lastRound=*/true, &xscratch);
      stats.phases.comm += comm.clock().now() - t0;
      stats.phases.rounds += 1;
      owned.add(std::move(got));
    }
  };

  runLayerRounds(0, stageR, ownedR, roundsR);
  if (!stats.recovery.died && s != nullptr) runLayerRounds(1, stageS, ownedS, roundsS);

  if (stats.recovery.died) {
    // Fail-stop: the rank's volatile state — staged chunks, owned cell
    // stores, scratch spill blobs — dies with it. Only the durable
    // checkpoint blobs it already wrote survive on the volume. Its task
    // never refines and it joins no further collective.
    spill.clear();
    stats.spill = spill.stats();
    return stats;
  }
  if (stats.recovery.recovered) stats.activeComm = active;
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

  runRebalance(active, launchRanks, cfg, storeBudget, ownedR, s != nullptr ? &ownedS : nullptr,
               stats);
  runRefine(comm, task, pool ? &*pool : nullptr, refineWorkers, refineGroupBytes, ownedR, ownedS,
            stats);
  ownedR.releaseBlobs();
  ownedS.releaseBlobs();
  stats.spill = spill.stats();
  spill.clear();
  return stats;
}

}  // namespace mvio::core
