#pragma once
// The failure domain (DESIGN.md §9, §11): the fault schedule, failure
// detection, and shard re-homing onto survivors.
//
// planFaults validates FrameworkConfig::failSchedule once, before any
// round runs, and tells each rank which wave kills it. At the first kill
// boundary runFilterRefine hands control to recoverUntilStable, the
// detection loop: every rank of the current communicator takes part in
// one allgather of alive flags (the simulation's stand-in for a failure
// detector), the communicator is shrunk to the survivors, and the dead
// ranks leave with their volatile state. The survivors then rebuild the
// lost state from the durable blobs the CheckpointCoordinator wrote and
// from the input files themselves:
//
//  1. Agree on the recovery point: scan epoch seals newest-first and
//     adopt the newest *fully sealed* epoch E (torn or partial epochs
//     are skipped). All survivors read the same blobs, so no extra
//     agreement round is needed. E may be 0 — recovery then replays
//     every round up to the kill from the extent log.
//
//  2. Re-home orphaned cells: cells owned by dead ranks are reassigned
//     with a greedy LPT pass over the survivors only, seeded with each
//     survivor's sealed per-cell loads so the orphans land on the
//     least-loaded survivors (deterministic: same inputs, same heap
//     tie-breaks as lptAssignCells). Surviving ranks keep their own
//     cells — their arrivals are already in their cell stores and are
//     never moved or replayed.
//
//  3. Restore: each survivor reloads the dead ranks' shard sets up to E
//     (readShardSets: the base checkpoint when compaction folded one,
//     then the delta tail; loadShardSet re-validates checksums against
//     the manifests and ownership against the sealed cell map — the
//     stale-manifest guard) and keeps exactly the records of orphaned
//     cells it now owns.
//
//  4. Replay: rounds E_rounds+1..K (K = the kill round) are re-derived
//     from the extent log for the orphaned cells only — the survivors
//     already hold every other delivery of those rounds. The survivors
//     split the logged chunks by source rank (contiguous blocks, so
//     concatenating ascending survivors preserves the source order);
//     each re-reads its block's chunks from the input files (independent
//     reads of the logged extents, priced on the inputs' own stripes and
//     posted up to one stripe width ahead of the chunk being parsed:
//     ChunkReadAhead), checks their CRC-32C, re-parses them with the
//     layer's FormatReader and re-projects them, and one exchangeByCell per round routes the
//     orphaned-cell records to their new owners — aggregate replay reads
//     are one copy of those rounds' input, not survivors copies. A lone
//     survivor re-reads every rank's chunks and routes through a 1-rank
//     exchange. Re-parsing counts in the recovery phase, never in
//     FrameworkStats::parseR/parseS.
//
// A pass is re-entrant for cascading failures: a wave of deaths detected
// *during* recovery is the loop's next iteration, which shrinks the
// communicator again and runs another pass with the map the previous
// pass produced. Only cells orphaned by the new wave are
// restored/replayed (records already recovered by the survivors stay
// put), and the seeded LPT re-homing composes across passes. A
// SealScanCache carried across passes makes the repeated recovery-point
// scan free. The loop exits on an allgather that reports no new deaths.
//
// The round loop then resumes on the survivor communicator for rounds
// K+1..total. Each survivor exchanges its own staged chunk, exactly as
// in the failure-free run, together with the logged chunks of the dead
// ranks it adopts (AdoptedLogs), re-read from the input — the reads
// posted ahead from the moment the adopter knows its chunks — and
// re-parsed as in step 4: a dead rank goes to the nearest survivor below it, or to
// the lowest survivor when none is below. Each survivor's send is then in
// ascending source order, and so is the exchange's per-phase output.
// Only the dead ranks' share of the input is re-read after the kill.
//
// The refine phase then runs unchanged over the survivor communicator
// and the recovered stores — join, index, and overlay results are
// bit-identical to the failure-free run (tests/test_recovery.cpp,
// tests/test_fault_soak.cpp).

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cell_store.hpp"
#include "core/framework.hpp"
#include "recovery/checkpoint.hpp"
#include "sim/machine.hpp"

namespace mvio::recovery {

/// The run's input layers (R, S; S null for a single-layer run): the
/// files the extent log points into and the formats that re-parse them.
using InputLayers = std::array<const core::DatasetHandle*, 2>;

/// One rank's view of a validated fault schedule.
struct FaultPlan {
  std::uint64_t firstKillRound = 0;  ///< boundary of the first wave (0 = no injection)
  std::uint64_t lastKillRound = 0;   ///< latest afterRound in the schedule
  /// Index of the wave that kills this rank, counting the sorted
  /// schedule's distinct (afterRound, duringRecoveryPass) runs; SIZE_MAX
  /// when the rank survives.
  std::size_t myWave = SIZE_MAX;
};

/// Sort `schedule` by (boundary, recovery pass, rank), reject a malformed
/// one (util::Error: a rank outside [0, worldSize) or listed twice, no
/// survivor left, a first wave during a recovery pass, an afterRound of
/// 0, a negative pass, or injection without `checkpointing`) and find
/// this rank's wave. Whether lastKillRound lies inside the data-round
/// schedule is the caller's check, once the schedule is agreed.
FaultPlan planFaults(const std::vector<sim::FailureEvent>& schedule, int worldSize, int worldRank,
                     bool checkpointing);

/// The detection loop, run by every rank of `active` at the first kill
/// boundary (`rounds` data rounds per layer, R then S, in the schedule;
/// `ownedS` and inputs[1] null for single-layer runs). Each iteration allgathers alive
/// flags; new deaths shrink `active` to the survivors, who run one
/// recovery pass appending restored and replayed records into the (not
/// yet finalized) owned stores: the sealed arrivals of the orphaned cells
/// and their deliveries up to faults.firstKillRound. Fills
/// stats.recovery and the recovery phase fields and re-homes
/// stats.cellOwner (world ranks) in place.
/// Returns the survivors' world ranks (active-local order); a rank that
/// dies gets stats.recovery.died, an empty result, and must join no
/// further collective.
std::vector<int> recoverUntilStable(mpi::Comm& active, pfs::Volume& volume,
                                    const FaultPlan& faults, const core::StreamConfig& sc,
                                    const InputLayers& inputs, const std::uint64_t (&rounds)[2],
                                    const core::PartitionMap& map, core::CellStore& ownedR,
                                    core::CellStore* ownedS, core::FrameworkStats& stats);

/// One survivor's share of the dead ranks' extent logs in the resumed
/// round loop. Built on the stable survivor communicator once
/// recoverUntilStable returns; reads the adopted ranks' ingest manifests
/// up front and, since every chunk the resumed rounds will adopt is known
/// from them, posts the first stripe width of those chunks' input
/// re-reads (ChunkReadAhead) before the first round asks for one. The
/// re-parse stays on the adopter's main lane. Input re-reads, re-parse
/// and projection of adopted chunks are charged to the rank clock and to
/// the recovery phase fields of `phases`.
class AdoptedLogs {
 public:
  /// `survivorWorld` is the recoverUntilStable result (ascending world
  /// ranks), `worldSize` the launch communicator's size, `rounds` the
  /// data-round schedule (R, S) and `resumeRound` the global data rounds
  /// completed before the round loop resumes.
  AdoptedLogs(mpi::Comm& survivors, pfs::Volume& volume, const core::StreamConfig& sc,
              const InputLayers& inputs, const std::uint64_t (&rounds)[2],
              std::uint64_t resumeRound, int worldSize, const std::vector<int>& survivorWorld,
              core::PhaseBreakdown& phases);

  /// This survivor's send for chunk `chunk` of `layer`: `own` (already
  /// projected) with each adopted rank's logged chunk of that round,
  /// re-read, re-parsed and projected through `map`, in ascending source
  /// order. Called once per resumed round, in round order.
  geom::GeometryBatch surround(int layer, std::uint64_t chunk, const core::PartitionMap& map,
                               geom::GeometryBatch&& own);

 private:
  mpi::Comm* comm_;
  core::PhaseBreakdown* phases_;
  std::vector<int> ranks_;       ///< the adopted dead world ranks, ascending
  std::vector<IngestLog> logs_;  ///< parallel to ranks_
  std::size_t before_ = 0;       ///< adopted ranks below this survivor (sent first)
  ChunkReadAhead reads_;         ///< the adopted chunks' re-reads, in surround order
};

}  // namespace mvio::recovery
