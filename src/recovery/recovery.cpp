#include "recovery/recovery.hpp"

#include <algorithm>

#include "core/exchange.hpp"
#include "core/grid.hpp"
#include "sim/clock.hpp"
#include "util/error.hpp"

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

}  // namespace

RecoveryOutcome recoverFromFailure(mpi::Comm& survivors, pfs::Volume& volume,
                                   const RecoveryContext& ctx, core::CellStore& ownedR,
                                   core::CellStore* ownedS, core::PhaseBreakdown* phases) {
  MVIO_CHECK(ctx.map != nullptr && ctx.worldSize >= 2, "recovery: malformed context");
  const int myWorld = survivors.worldRank();
  const int nSurv = survivors.size();
  // The run's partition map: cells, replay projection and the sealed-map
  // guard all go through it.
  const core::PartitionMap& map = *ctx.map;
  const std::size_t cells = static_cast<std::size_t>(map.cellCount());
  const double t0 = survivors.clock().now();
  // Decode + re-projection CPU is charged alongside the modelled reads.
  mpi::CpuCharge cpu(survivors);
  const pfs::SpillPricer pricer = pfs::SpillPricer::onVolume(volume, survivors.nodeId());
  std::uint64_t bytesRead = 0;
  std::uint64_t chargedBytes = 0;
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

  RecoveryOutcome out;

  // 1. Recovery point: the newest fully sealed epoch at or before the
  // failure. Every survivor reads and validates the same blobs; the
  // cross-pass cache answers repeated (cascading) scans without reads.
  const std::uint64_t maxEpoch = ctx.failRound / ctx.checkpoint.everyRounds;
  const std::optional<EpochSeal> seal = findLastSealedEpoch(
      volume, ctx.checkpoint.dir, ctx.worldSize, maxEpoch, &bytesRead, ctx.sealCache);
  const std::uint64_t sealedRound = seal ? seal->roundsCompleted : 0;
  out.stats.epochUsed = seal ? seal->epoch : 0;
  std::vector<std::uint64_t> sealLoads = seal ? seal->cellLoads : std::vector<std::uint64_t>();
  sealLoads.resize(cells, 0);

  // 2. Re-home: survivors keep the cells they held before this wave,
  // cells of the newly dead are LPT re-assigned over the survivors
  // seeded with the sealed loads. `sealOwner` — the stale-manifest
  // reference for every durable shard — is always the round-robin map
  // the checkpoints were written under, regardless of how many times
  // ownership was re-homed since.
  std::vector<int> sealOwner(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    sealOwner[c] = core::roundRobinOwner(static_cast<int>(c), ctx.worldSize);
  }
  MVIO_CHECK(ctx.priorOwner.empty() || ctx.priorOwner.size() == cells,
             "recovery: prior owner map size mismatch");
  out.cellOwner = ctx.priorOwner.empty() ? sealOwner : ctx.priorOwner;
  std::vector<char> orphan(cells, 0);
  for (std::size_t c = 0; c < cells; ++c) {
    orphan[c] = isNewlyDead(out.cellOwner[c]) ? 1 : 0;
  }
  rehomeOrphans(out.cellOwner, orphan, sealLoads, ctx.survivorWorld, worldToSurvivor);

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
  // base checkpoint (when compaction folded one) covers epochs
  // 1..baseEpoch; the delta tail covers the rest up to the seal.
  core::CellStore* stores[2] = {&ownedR, ownedS};
  std::vector<char> srcNeeded(static_cast<std::size_t>(ctx.worldSize), 0);
  for (std::size_t c = 0; c < cells; ++c) {
    if (!orphan[c]) continue;
    MVIO_CHECK(isDead(sealOwner[c]),
               "recovery: orphaned cell's checkpoint source is not a dead rank");
    srcNeeded[static_cast<std::size_t>(sealOwner[c])] = 1;
  }
  auto keepRestored = [&](const geom::GeometryBatch& batch, geom::GeometryBatch& kept) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const int cell = batch.cell(i);
      if (orphan[static_cast<std::size_t>(cell)] &&
          out.cellOwner[static_cast<std::size_t>(cell)] == myWorld) {
        kept.appendRecordFrom(batch, i, cell);
      }
    }
  };
  for (const int dead : ctx.deadRanks) {
    if (!srcNeeded[static_cast<std::size_t>(dead)] || !seal) continue;
    std::uint64_t firstDelta = 1;
    const std::optional<BaseManifest> base =
        readBaseManifest(volume, ctx.checkpoint.dir, dead, &bytesRead);
    if (base) {
      MVIO_CHECK(base->baseEpoch <= seal->epoch,
                 "recovery: base checkpoint newer than the recovery point");
      firstDelta = base->baseEpoch + 1;
      for (int layer = 0; layer < 2; ++layer) {
        if (stores[layer] == nullptr || base->records[layer] == 0) continue;
        geom::GeometryBatch restored;
        loadBaseCheckpoint(volume, ctx.checkpoint.dir, dead, *base, layer, sealOwner, restored,
                           &bytesRead);
        geom::GeometryBatch kept;
        keepRestored(restored, kept);
        out.stats.restoredRecords += kept.size();
        stores[layer]->add(std::move(kept));
      }
    }
    for (std::uint64_t epoch = firstDelta; epoch <= seal->epoch; ++epoch) {
      const std::optional<RankEpochManifest> manifest =
          readRankManifest(volume, ctx.checkpoint.dir, dead, epoch, &bytesRead);
      MVIO_CHECK(manifest.has_value(), "recovery: missing or corrupt epoch " +
                                           std::to_string(epoch) + " manifest for dead rank " +
                                           std::to_string(dead));
      for (int layer = 0; layer < 2; ++layer) {
        if (stores[layer] == nullptr || manifest->records[layer] == 0) continue;
        geom::GeometryBatch delta;
        loadEpochDelta(volume, ctx.checkpoint.dir, dead, *manifest, layer, sealOwner, delta,
                       &bytesRead);
        geom::GeometryBatch kept;
        keepRestored(delta, kept);
        out.stats.restoredRecords += kept.size();
        stores[layer]->add(std::move(kept));
      }
    }
  }
  chargeReads();

  // 4. Replay rounds sealedRound+1..total from the chunk log. Rounds the
  // survivors already hold (≤ delivered) re-deliver only orphaned cells;
  // rounds the failure pre-empted re-deliver everything. The first pass
  // replays every round past the failure, so a cascading pass finds all
  // rounds delivered.
  const std::uint64_t totalRounds = ctx.roundsPerLayer[0] + ctx.roundsPerLayer[1];
  const std::uint64_t delivered = ctx.priorOwner.empty() ? ctx.failRound : totalRounds;
  MVIO_CHECK(ctx.failRound <= totalRounds && sealedRound <= ctx.failRound,
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
    return static_cast<int>(worldToSurvivor[static_cast<std::size_t>(
        out.cellOwner[static_cast<std::size_t>(cell)])]);
  };

  std::vector<IngestLog> logs(static_cast<std::size_t>(ctx.worldSize));
  if (sealedRound < totalRounds) {
    for (int q = 0; q < ctx.worldSize; ++q) {
      if (srcSurvivor(q) != survivors.rank()) continue;
      logs[static_cast<std::size_t>(q)] = readIngestLog(volume, ctx.checkpoint.dir, q, &bytesRead);
    }
  }
  core::ExchangeScratch scratch;
  for (std::uint64_t t = sealedRound + 1; t <= totalRounds; ++t) {
    const int layer = t <= ctx.roundsPerLayer[0] ? 0 : 1;
    const std::uint64_t chunk = layer == 0 ? t - 1 : t - ctx.roundsPerLayer[0] - 1;
    if (stores[layer] == nullptr) continue;
    // Each survivor reads + re-projects only its own source block and
    // ships every kept record to the cell's owner.
    sim::ThreadCpuTimer localCpu;
    geom::GeometryBatch ship;
    for (int q = 0; q < ctx.worldSize; ++q) {
      if (srcSurvivor(q) != survivors.rank()) continue;
      if (chunk >= logs[static_cast<std::size_t>(q)].chunks[layer]) continue;
      geom::GeometryBatch raw;
      loadLoggedChunk(volume, ctx.checkpoint.dir, q, layer, chunk, raw, &bytesRead);
      const geom::GeometryBatch projected =
          core::projectToCells(map, ctx.locator, std::move(raw));
      for (std::size_t i = 0; i < projected.size(); ++i) {
        const int cell = projected.cell(i);
        if (cell == geom::GeometryBatch::kNoCell) continue;
        if (t <= delivered && !orphan[static_cast<std::size_t>(cell)]) continue;
        ship.appendRecordFrom(projected, i, cell);
      }
    }
    survivors.clock().advanceBy(localCpu.elapsed());
    chargeReads();
    geom::GeometryBatch got =
        core::exchangeByCell(survivors, std::move(ship), ownerFn, /*windowPhases=*/1,
                             map.cellCount(), nullptr, {}, /*lastRound=*/true, &scratch);
    sim::ThreadCpuTimer storeCpu;
    out.stats.replayedRecords += got.size();
    stores[layer]->add(std::move(got));
    survivors.clock().advanceBy(storeCpu.elapsed());
  }

  chargeReads();  // reads accumulated outside the per-round charging
  phases->recovery += survivors.clock().now() - t0;
  phases->recoveryBytes += bytesRead;
  phases->recoveryRounds += totalRounds - sealedRound;
  return out;
}

}  // namespace mvio::recovery
