#include "recovery/recovery.hpp"

#include <algorithm>
#include <tuple>

#include "core/exchange.hpp"
#include "core/grid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace mvio::recovery {

namespace {

/// Re-home orphaned cells onto the survivors: the shared seeded LPT
/// pass (core::lptAssignCellsSeeded — identical ordering and
/// tie-breaking to the rebalancer's map, so every survivor computes the
/// identical assignment without an agreement round), with each
/// survivor's bin seeded by the sealed loads of the cells it keeps.
void rehomeOrphans(std::vector<int>& owner, const std::vector<char>& orphan,
                   const std::vector<std::uint64_t>& loads, const std::vector<int>& survivorWorld,
                   const std::vector<std::size_t>& worldToSurvivor) {
  std::vector<std::uint64_t> seeded(survivorWorld.size(), 0);
  for (std::size_t c = 0; c < owner.size(); ++c) {
    if (!orphan[c]) seeded[worldToSurvivor[static_cast<std::size_t>(owner[c])]] += loads[c];
  }

  std::vector<int> bins(owner.size(), 0);
  core::lptAssignCellsSeeded(loads, orphan, std::move(seeded), bins);
  for (std::size_t c = 0; c < owner.size(); ++c) {
    if (orphan[c]) owner[c] = survivorWorld[static_cast<std::size_t>(bins[c])];
  }
}

/// Each layer's input file size (0 for an absent layer): the bound the
/// extent log's manifest is checked against.
std::array<std::uint64_t, 2> inputSizes(pfs::Volume& volume, const InputLayers& inputs) {
  std::array<std::uint64_t, 2> bytes = {0, 0};
  for (std::size_t layer = 0; layer < 2; ++layer) {
    if (inputs[layer] != nullptr) bytes[layer] = volume.lookup(inputs[layer]->path)->data->size();
  }
  return bytes;
}

/// The (layer, chunk) data round `t` (1-based, layer R's rounds first)
/// ingests.
std::pair<int, std::uint64_t> layerChunk(const std::uint64_t (&rounds)[2], std::uint64_t t) {
  return t <= rounds[0] ? std::pair{0, t - 1} : std::pair{1, t - rounds[0] - 1};
}

/// The detection loop's state, shared by its recovery passes.
struct RecoveryContext {
  const core::StreamConfig& stream;  ///< where the durable blobs live
  const InputLayers& inputs;         ///< where the extent log points, and how to parse it
  const FaultPlan& faults;           ///< firstKillRound: rounds completed at the first failure
  const std::uint64_t (&rounds)[2];  ///< original data-round schedule (R, S)
  /// The run's partition map (uniform or adaptive). Replay re-projects
  /// through it, and its encoding must match the sealed epoch's embedded
  /// map — the projection-drift guard.
  const core::PartitionMap& map;
  int worldSize;                     ///< original communicator size
  SealScanCache sealCache;           ///< cross-pass seal-scan memo
  std::vector<int> deadRanks;        ///< all world ranks lost so far (sorted, cumulative)
  std::vector<int> newlyDead;        ///< ranks lost in *this* wave (sorted ⊆ deadRanks)
  std::vector<int> survivorWorld;    ///< survivor-local rank -> world rank
};

/// One recovery pass — steps 1–4 of recovery.hpp — on the survivor
/// communicator, appending restored and replayed records into the owned
/// stores. The pass re-homes stats.cellOwner (the map before the wave,
/// round-robin on the first pass) in place and adds to stats.recovery.
/// Charges modelled read I/O (durable blobs and input re-reads) and
/// replay CPU to the recovery phase fields.
void recoverFromFailure(mpi::Comm& survivors, pfs::Volume& volume, RecoveryContext& ctx,
                        core::CellStore& ownedR, core::CellStore* ownedS,
                        core::FrameworkStats& stats) {
  MVIO_CHECK(ctx.worldSize >= 2, "recovery: malformed context");
  const std::string& dir = ctx.stream.checkpointDir;
  const std::uint64_t failRound = ctx.faults.firstKillRound;
  const int myWorld = survivors.worldRank();
  const int nSurv = survivors.size();
  // The run's partition map: cells, replay projection and the sealed-map
  // guard all go through it.
  const core::PartitionMap& map = ctx.map;
  const std::size_t cells = static_cast<std::size_t>(map.cellCount());
  const double t0 = survivors.clock().now();
  // Decode + re-projection CPU is charged alongside the modelled reads.
  mpi::CpuCharge cpu(survivors);
  const pfs::SpillPricer pricer = pfs::SpillPricer::onVolume(volume, survivors.nodeId());
  std::uint64_t bytesRead = 0;     ///< durable blobs, priced by chargeReads
  std::uint64_t chargedBytes = 0;
  std::uint64_t inputBytes = 0;    ///< input re-reads, priced as they are issued
  // Charge the durable reads accumulated since the last call (modelled
  // PFS traffic; contention with the other recovering survivors).
  auto chargeReads = [&] {
    if (bytesRead == chargedBytes) return;
    const double t = pricer.seconds(bytesRead - chargedBytes, /*isWrite=*/false,
                                    survivors.clock().now());
    survivors.clock().advanceBy(t);
    chargedBytes = bytesRead;
  };
  auto isDead = [&](int world) {
    return std::binary_search(ctx.deadRanks.begin(), ctx.deadRanks.end(), world);
  };
  auto isNewlyDead = [&](int world) {
    return std::binary_search(ctx.newlyDead.begin(), ctx.newlyDead.end(), world);
  };
  std::vector<std::size_t> worldToSurvivor(static_cast<std::size_t>(ctx.worldSize), SIZE_MAX);
  for (std::size_t s = 0; s < ctx.survivorWorld.size(); ++s) {
    worldToSurvivor[static_cast<std::size_t>(ctx.survivorWorld[s])] = s;
  }
  std::uint64_t restoredRecords = 0;
  std::uint64_t replayedRecords = 0;

  // 1. Recovery point: the newest fully sealed epoch at or before the
  // failure. Every survivor reads and validates the same blobs; the
  // cross-pass cache answers repeated (cascading) scans without reads.
  const std::uint64_t maxEpoch = failRound / ctx.stream.checkpointEveryRounds;
  const std::optional<EpochSeal> seal =
      findLastSealedEpoch(volume, dir, ctx.worldSize, maxEpoch, &bytesRead, &ctx.sealCache);
  const std::uint64_t sealedRound = seal ? seal->roundsCompleted : 0;
  stats.recovery.epochUsed = seal ? seal->epoch : 0;
  std::vector<std::uint64_t> sealLoads = seal ? seal->cellLoads : std::vector<std::uint64_t>();
  sealLoads.resize(cells, 0);

  // 2. Re-home: survivors keep the cells they held before this wave,
  // cells of the newly dead are LPT re-assigned over the survivors
  // seeded with the sealed loads. `sealOwner` — the stale-manifest
  // reference for every durable shard — is always the round-robin map
  // the checkpoints were written under, regardless of how many times
  // ownership was re-homed since.
  const std::vector<int> sealOwner = core::roundRobinOwners(cells, ctx.worldSize);
  MVIO_CHECK(stats.cellOwner.size() == cells, "recovery: prior owner map size mismatch");
  std::vector<int>& owner = stats.cellOwner;
  std::vector<char> orphan(cells, 0);
  for (std::size_t c = 0; c < cells; ++c) {
    orphan[c] = isNewlyDead(owner[c]) ? 1 : 0;
  }
  rehomeOrphans(owner, orphan, sealLoads, ctx.survivorWorld, worldToSurvivor);

  if (seal) {
    MVIO_CHECK(seal->cellOwner == sealOwner,
               "recovery: sealed cell map does not match the exchange-round ownership");
    // Projection-drift guard: replay must re-project through byte-for-byte
    // the map the sealed epochs were taken under. ("" = a seal written by
    // a coordinator that never attached a map — uniform by definition.)
    MVIO_CHECK(seal->partitionMap.empty() ||
                   seal->partitionMap == core::encodePartitionMap(map),
               "recovery: sealed partition map does not match the run's map");
  }

  // 3. Restore the sealed arrivals of the orphaned cells. An orphaned
  // cell's durable shards live under its *round-robin* owner — which is
  // always one of the cumulative dead ranks (a survivor's own cells are
  // never orphaned: it still holds their records). Per source rank the
  // shard sets up to the seal are the base checkpoint (when compaction
  // folded one) and the delta tail after it.
  core::CellStore* stores[2] = {&ownedR, ownedS};
  std::vector<char> srcNeeded(static_cast<std::size_t>(ctx.worldSize), 0);
  for (std::size_t c = 0; c < cells; ++c) {
    if (!orphan[c]) continue;
    MVIO_CHECK(isDead(sealOwner[c]),
               "recovery: orphaned cell's checkpoint source is not a dead rank");
    srcNeeded[static_cast<std::size_t>(sealOwner[c])] = 1;
  }
  for (const int dead : ctx.deadRanks) {
    if (!srcNeeded[static_cast<std::size_t>(dead)] || !seal) continue;
    for (const ShardSetManifest& set : readShardSets(volume, dir, dead, seal->epoch, &bytesRead)) {
      for (int layer = 0; layer < 2; ++layer) {
        if (stores[layer] == nullptr || set.records[layer] == 0) continue;
        geom::GeometryBatch restored;
        loadShardSet(volume, dir, dead, set, layer, sealOwner, restored, &bytesRead);
        geom::GeometryBatch kept;
        for (std::size_t i = 0; i < restored.size(); ++i) {
          const int cell = restored.cell(i);
          if (orphan[static_cast<std::size_t>(cell)] &&
              owner[static_cast<std::size_t>(cell)] == myWorld) {
            kept.appendRecordFrom(restored, i, cell);
          }
        }
        restoredRecords += kept.size();
        stores[layer]->add(std::move(kept));
      }
    }
  }
  chargeReads();

  // 4. Replay rounds sealedRound+1..failRound from the extent log for the
  // orphaned cells only: the survivors already hold every other delivery
  // of those rounds, and the rounds after the failure run in the resumed
  // round loop (AdoptedLogs). A cascading pass replays the same span for
  // the cells its wave orphaned.
  const std::uint64_t totalRounds = ctx.rounds[0] + ctx.rounds[1];
  MVIO_CHECK(failRound <= totalRounds && sealedRound <= failRound,
             "recovery: round bookkeeping out of range");
  cpu.stop();  // the replay loop charges its CPU per region

  // Source-rank block of this survivor: contiguous ascending blocks, so
  // the exchange's source-rank-major output order is the ascending source
  // order — which keeps FP-sum consumers bit-identical to the
  // failure-free run.
  auto srcSurvivor = [&](int q) {
    return static_cast<int>((static_cast<std::int64_t>(q) * nSurv) / ctx.worldSize);
  };
  const core::CellOwnerFn ownerFn = [&](int cell) {
    return static_cast<int>(
        worldToSurvivor[static_cast<std::size_t>(owner[static_cast<std::size_t>(cell)])]);
  };

  std::vector<int> mySources;  ///< the source ranks whose chunks this survivor re-reads
  for (int q = 0; q < ctx.worldSize; ++q) {
    if (srcSurvivor(q) == survivors.rank()) mySources.push_back(q);
  }
  std::vector<IngestLog> logs(static_cast<std::size_t>(ctx.worldSize));
  if (sealedRound < failRound) {
    const std::array<std::uint64_t, 2> sizes = inputSizes(volume, ctx.inputs);
    for (const int q : mySources) {
      logs[static_cast<std::size_t>(q)] = readIngestLog(volume, dir, q, sizes, &bytesRead);
    }
  }
  chargeReads();
  // Every replayed chunk's extents are known now: post the first stripe
  // width of re-reads before the first is parsed.
  ChunkReadAhead reads(survivors, volume);
  for (std::uint64_t t = sealedRound + 1; t <= failRound; ++t) {
    const auto [layer, chunk] = layerChunk(ctx.rounds, t);
    if (stores[layer] == nullptr) continue;
    for (const int q : mySources) {
      const std::vector<LoggedChunk>& logged = logs[static_cast<std::size_t>(q)].chunks[layer];
      if (chunk < logged.size()) {
        reads.enqueue(*ctx.inputs[static_cast<std::size_t>(layer)], logged[chunk]);
      }
    }
  }
  reads.post();
  core::ExchangeScratch scratch;
  for (std::uint64_t t = sealedRound + 1; t <= failRound; ++t) {
    const auto [layer, chunk] = layerChunk(ctx.rounds, t);
    if (stores[layer] == nullptr) continue;
    // Each survivor re-reads, re-parses and re-projects only its own
    // source block and ships every orphaned-cell record to the cell's new
    // owner.
    sim::ThreadCpuTimer localCpu;
    geom::GeometryBatch ship;
    for (const int q : mySources) {
      const std::vector<LoggedChunk>& logged = logs[static_cast<std::size_t>(q)].chunks[layer];
      if (chunk >= logged.size()) continue;
      geom::GeometryBatch raw;
      inputBytes += reads.take(logged[chunk], raw);
      const geom::GeometryBatch projected = core::projectToCells(map, nullptr, std::move(raw));
      for (std::size_t i = 0; i < projected.size(); ++i) {
        const int cell = projected.cell(i);
        if (cell == geom::GeometryBatch::kNoCell || !orphan[static_cast<std::size_t>(cell)]) {
          continue;
        }
        ship.appendRecordFrom(projected, i, cell);
      }
    }
    survivors.clock().advanceBy(localCpu.elapsed());
    chargeReads();
    geom::GeometryBatch got =
        core::exchangeByCell(survivors, std::move(ship), ownerFn, /*windowPhases=*/1,
                             map.cellCount(), nullptr, /*lastRound=*/true, &scratch);
    sim::ThreadCpuTimer storeCpu;
    replayedRecords += got.size();
    stores[layer]->add(std::move(got));
    survivors.clock().advanceBy(storeCpu.elapsed());
  }

  chargeReads();  // reads accumulated outside the per-round charging
  stats.phases.recovery += survivors.clock().now() - t0;
  stats.phases.recoveryBytes += bytesRead + inputBytes;
  stats.phases.recoveryRounds += failRound - sealedRound;
  obs::addCount("recovery.restored_records", restoredRecords);
  obs::addCount("recovery.replayed_records", replayedRecords);
  obs::addCount("recovery.passes", 1);
  stats.recovery.recovered = true;
  stats.recovery.deadRanks = ctx.deadRanks.size();
  stats.recovery.restoredRecords += restoredRecords;
  stats.recovery.replayedRecords += replayedRecords;
  stats.recovery.recoveryPasses += 1;
}

}  // namespace

FaultPlan planFaults(const std::vector<sim::FailureEvent>& schedule, int worldSize, int worldRank,
                     bool checkpointing) {
  std::vector<sim::FailureEvent> sorted = schedule;
  std::sort(sorted.begin(), sorted.end(),
            [](const sim::FailureEvent& a, const sim::FailureEvent& b) {
              return std::tie(a.afterRound, a.duringRecoveryPass, a.rank) <
                     std::tie(b.afterRound, b.duringRecoveryPass, b.rank);
            });
  FaultPlan plan;
  if (sorted.empty()) return plan;
  MVIO_CHECK(checkpointing, "failure injection requires StreamConfig::checkpointEveryRounds > 0");
  MVIO_CHECK(static_cast<int>(sorted.size()) < worldSize,
             "failure injection must leave at least one survivor");
  std::vector<char> dies(static_cast<std::size_t>(worldSize), 0);
  for (const sim::FailureEvent& ev : sorted) {
    MVIO_CHECK(ev.rank >= 0 && ev.rank < worldSize,
               "fault schedule names a rank outside the communicator");
    MVIO_CHECK(!dies[static_cast<std::size_t>(ev.rank)], "fault schedule kills the same rank twice");
    dies[static_cast<std::size_t>(ev.rank)] = 1;
    MVIO_CHECK(ev.afterRound != 0, "fault schedule event without a kill round");
    MVIO_CHECK(ev.duringRecoveryPass >= 0, "fault schedule event with a negative recovery pass");
  }
  MVIO_CHECK(sorted.front().duringRecoveryPass == 0,
             "the first failure wave must strike at a round boundary, not during recovery");
  // A wave is a run of sorted events sharing (afterRound, pass): its
  // ranks die together, and each later wave is detected by the survivors'
  // next detection allgather and triggers another recovery pass. A rank
  // dies at most once, so it only needs the index of its own wave.
  for (std::size_t i = 0, wave = 0; i < sorted.size(); ++i) {
    wave += i > 0 && (sorted[i].afterRound != sorted[i - 1].afterRound ||
                      sorted[i].duringRecoveryPass != sorted[i - 1].duringRecoveryPass);
    if (sorted[i].rank == worldRank) plan.myWave = wave;
  }
  plan.firstKillRound = sorted.front().afterRound;
  plan.lastKillRound = sorted.back().afterRound;
  return plan;
}

std::vector<int> recoverUntilStable(mpi::Comm& active, pfs::Volume& volume,
                                    const FaultPlan& faults, const core::StreamConfig& sc,
                                    const InputLayers& inputs, const std::uint64_t (&rounds)[2],
                                    const core::PartitionMap& map, core::CellStore& ownedR,
                                    core::CellStore* ownedS, core::FrameworkStats& stats) {
  // Each iteration is one detection allgather over the current
  // communicator: newly dead ranks leave with their volatile state, the
  // survivors shrink the communicator and run a recovery pass. Ranks
  // scheduled to die *during* that pass (or at a later round — everything
  // past the first kill is recovery territory) are caught by the next
  // iteration. The seal-scan cache makes the repeated recovery-point
  // scans free; seeded LPT re-homing composes across the shrinks.
  RecoveryContext ctx{sc, inputs, faults, rounds, map, active.size(), {}, {}, {}, {}};
  const int me = active.worldRank();
  bool alive = true;
  for (std::size_t wave = 0;; ++wave) {
    if (wave == faults.myWave) alive = false;
    const std::int32_t mine = alive ? me : ~me;
    std::vector<std::int32_t> flags(static_cast<std::size_t>(active.size()), 0);
    active.allgather(&mine, 1, mpi::Datatype::int32(), flags.data());
    std::vector<int> live;
    ctx.newlyDead.clear();
    for (const std::int32_t f : flags) (f >= 0 ? live : ctx.newlyDead).push_back(f >= 0 ? f : ~f);
    if (ctx.newlyDead.empty()) return ctx.survivorWorld;  // stable survivor set
    MVIO_WARN("recovery", ctx.newlyDead.size() << " rank(s) failed at round "
                                               << faults.firstKillRound
                                               << "; survivors: " << live.size());
    mpi::Comm shrunk = active.split(alive ? 1 : 0, active.rank());
    if (!alive) {
      stats.recovery.died = true;
      return {};
    }
    active = shrunk;
    ctx.survivorWorld = std::move(live);
    std::sort(ctx.newlyDead.begin(), ctx.newlyDead.end());
    ctx.deadRanks.insert(ctx.deadRanks.end(), ctx.newlyDead.begin(), ctx.newlyDead.end());
    std::sort(ctx.deadRanks.begin(), ctx.deadRanks.end());
    obs::traceBegin("recovery");
    recoverFromFailure(active, volume, ctx, ownedR, ownedS, stats);
    obs::traceEnd("recovery");
  }
}

AdoptedLogs::AdoptedLogs(mpi::Comm& survivors, pfs::Volume& volume, const core::StreamConfig& sc,
                         const InputLayers& inputs, const std::uint64_t (&rounds)[2],
                         std::uint64_t resumeRound, int worldSize,
                         const std::vector<int>& survivorWorld, core::PhaseBreakdown& phases)
    : comm_(&survivors), phases_(&phases), reads_(survivors, volume) {
  MVIO_CHECK(!survivorWorld.empty() && std::is_sorted(survivorWorld.begin(), survivorWorld.end()),
             "recovery: survivor ranks must be ascending");
  const int me = survivors.worldRank();
  for (int q = 0; q < worldSize; ++q) {
    const auto above = std::lower_bound(survivorWorld.begin(), survivorWorld.end(), q);
    if (above != survivorWorld.end() && *above == q) continue;  // q survived
    const int adopter = above == survivorWorld.begin() ? survivorWorld.front() : *(above - 1);
    if (adopter != me) continue;
    ranks_.push_back(q);
    before_ += q < me ? 1 : 0;
  }
  if (ranks_.empty()) return;
  const double t0 = survivors.clock().now();
  std::uint64_t bytes = 0;
  const std::array<std::uint64_t, 2> sizes = inputSizes(volume, inputs);
  for (const int q : ranks_) {
    logs_.push_back(readIngestLog(volume, sc.checkpointDir, q, sizes, &bytes));
  }
  const pfs::SpillPricer pricer = pfs::SpillPricer::onVolume(volume, survivors.nodeId());
  survivors.clock().advanceBy(pricer.seconds(bytes, /*isWrite=*/false, t0));
  // The resumed rounds will ask surround for the adopted chunks in this
  // order: post the first stripe width of their re-reads now.
  for (std::uint64_t t = resumeRound + 1; t <= rounds[0] + rounds[1]; ++t) {
    const auto [layer, chunk] = layerChunk(rounds, t);
    if (inputs[static_cast<std::size_t>(layer)] == nullptr) continue;
    for (const IngestLog& log : logs_) {
      if (chunk < log.chunks[layer].size()) {
        reads_.enqueue(*inputs[static_cast<std::size_t>(layer)], log.chunks[layer][chunk]);
      }
    }
  }
  reads_.post();
  obs::traceSpanAt("recovery", t0, survivors.clock().now());
  phases_->recovery += survivors.clock().now() - t0;
  phases_->recoveryBytes += bytes;
}

geom::GeometryBatch AdoptedLogs::surround(int layer, std::uint64_t chunk,
                                          const core::PartitionMap& map,
                                          geom::GeometryBatch&& own) {
  if (ranks_.empty()) return std::move(own);
  const double t0 = comm_->clock().now();
  sim::ThreadCpuTimer cpu;
  std::uint64_t bytes = 0;
  geom::GeometryBatch out;
  // Each chunk is projected on its own, so its replicated records follow
  // its primaries exactly as in the dead rank's failure-free send. The
  // clock waits for each chunk's posted re-reads; the CPU is charged
  // after.
  const auto adopt = [&](std::size_t k) {
    const std::vector<LoggedChunk>& logged = logs_[k].chunks[layer];
    if (chunk >= logged.size()) return;
    geom::GeometryBatch raw;
    bytes += reads_.take(logged[chunk], raw);
    out.splice(core::projectToCells(map, nullptr, std::move(raw)));
  };
  for (std::size_t k = 0; k < before_; ++k) adopt(k);
  out.splice(std::move(own));
  for (std::size_t k = before_; k < ranks_.size(); ++k) adopt(k);
  comm_->clock().advanceBy(cpu.elapsed());
  obs::traceSpanAt("recovery", t0, comm_->clock().now());
  phases_->recovery += comm_->clock().now() - t0;
  phases_->recoveryBytes += bytes;
  return out;
}

}  // namespace mvio::recovery
