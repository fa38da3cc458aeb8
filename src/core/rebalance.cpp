#include <algorithm>

#include "core/stages.hpp"
#include "util/error.hpp"

namespace mvio::core {

namespace {

/// Largest encoded blob one migrateShards message carries.
constexpr std::uint64_t kMigrationBlobBytes = 1ull << 20;

/// Budget-bounded migration of one layer: the cells of `store` that
/// `owner` (active ranks) moves away are extracted (ascending cell order)
/// and shipped in passes of at most `passBudget` staged outgoing bytes —
/// one whole cell of slack for a cell larger than the share — so the
/// transfer respects StreamConfig::memoryBudget like every other phase.
/// The passes terminate collectively (a rank with nothing left still
/// joins its peers' remaining rounds). Every cell moves wholly within one
/// pass, so per-cell record order — all any consumer depends on — is
/// identical to the single-pass transfer.
void migrateLayer(mpi::Comm& active, CellStore& store, const std::vector<int>& owner,
                  std::uint64_t passBudget, RebalanceStats& balance) {
  std::vector<int> leaving;
  for (const int cell : store.cells()) {
    if (owner[static_cast<std::size_t>(cell)] != active.rank()) leaving.push_back(cell);
  }
  std::size_t next = 0;
  while (true) {
    std::vector<geom::GeometryBatch> outgoing(static_cast<std::size_t>(active.size()));
    std::uint64_t staged = 0;
    while (next < leaving.size() && staged < passBudget) {
      const int cell = leaving[next++];
      geom::GeometryBatch extracted = store.extractCell(cell);
      staged += extracted.memoryBytes();
      outgoing[static_cast<std::size_t>(owner[static_cast<std::size_t>(cell)])].splice(
          std::move(extracted));
    }
    const std::uint64_t more = allreduceMaxU64(active, next < leaving.size() ? 1 : 0);
    geom::GeometryBatch got =
        migrateShards(active, std::move(outgoing), kMigrationBlobBytes, &balance.transport);
    store.addMigrated(std::move(got));
    balance.migrationPasses += 1;
    if (more == 0) break;
  }
}

}  // namespace

void runRebalance(mpi::Comm& active, const std::vector<int>& launchRanks,
                  const FrameworkConfig& cfg, std::uint64_t storeBudget, CellStore& ownedR,
                  CellStore* ownedS, FrameworkStats& stats) {
  const int ap = active.size();
  if (!cfg.rebalanceCells || ap < 2) return;
  const std::size_t cells = static_cast<std::size_t>(stats.partition.cellCount());
  const double t0 = active.clock().now();
  obs::traceBegin("migrate");
  const double spillBefore = stats.phases.spill;
  stats.balance.ownedRecordsBefore = ownedR.records() + (ownedS ? ownedS->records() : 0);
  std::vector<std::uint64_t> loads(cells, 0);
  ownedR.accumulateCellLoads(loads);
  if (ownedS) ownedS->accumulateCellLoads(loads);
  std::vector<std::uint64_t> global(cells, 0);
  active.allreduce(loads.data(), global.data(), static_cast<int>(cells), mpi::Datatype::uint64(),
                   mpi::Op::sum());

  // The current map in active ranks. Survivors keep their launch order,
  // so launchRanks is ascending and each owner's active rank is its
  // position there.
  std::vector<int> current(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    const auto it = std::lower_bound(launchRanks.begin(), launchRanks.end(), stats.cellOwner[c]);
    MVIO_CHECK(it != launchRanks.end() && *it == stats.cellOwner[c],
               "rebalance: cell owned by a rank outside the active communicator");
    current[c] = static_cast<int>(it - launchRanks.begin());
  }

  // Adaptive trigger: measure the max/mean per-rank load ratio under
  // the current map and skip the pass — and its wire traffic — when
  // the owned loads are already within the threshold.
  stats.balance.imbalance = loadImbalance(global, current, ap);
  obs::setGauge("balance.imbalance_before", stats.balance.imbalance);

  // Under an adaptive map the LPT proposal is additionally priced by the
  // cost model: refine seconds the move would save vs wire seconds it
  // costs at the measured shard size, scaled by rebalanceThreshold. The
  // uniform path keeps the classic ratio-only trigger byte-for-byte.
  bool costGated = false;
  std::vector<int> proposal;
  if (stats.balance.imbalance >= cfg.rebalanceThreshold) {
    proposal = lptAssignCells(global, ap);
    if (!stats.partition.isUniform()) {
      // Measured wire size per record, allreduced so every rank prices
      // (and gates) the identical decision.
      std::uint64_t localWire[2] = {stats.exchange.bytesReceived,
                                    stats.exchange.geometriesReceived};
      std::uint64_t wire[2] = {0, 0};
      active.allreduce(localWire, wire, 2, mpi::Datatype::uint64(), mpi::Op::sum());
      const double bytesPerRecord =
          wire[1] == 0 ? 256.0 : static_cast<double>(wire[0]) / static_cast<double>(wire[1]);
      const RebalanceDecision price = priceRebalance(global, current, proposal, ap,
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
    obs::setGauge("balance.imbalance_after", loadImbalance(global, proposal, ap));
    for (std::size_t c = 0; c < cells; ++c) {
      if (proposal[c] != current[c]) stats.balance.cellsMoved += 1;
      stats.cellOwner[c] = launchRanks[static_cast<std::size_t>(proposal[c])];
    }
    const std::uint64_t passBudget = storeBudget == 0 ? UINT64_MAX : storeBudget;
    migrateLayer(active, ownedR, proposal, passBudget, stats.balance);
    if (ownedS) migrateLayer(active, *ownedS, proposal, passBudget, stats.balance);

    stats.balance.ownedRecordsAfter = ownedR.records() + (ownedS ? ownedS->records() : 0);
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

}  // namespace mvio::core
