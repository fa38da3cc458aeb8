#pragma once
// Per-phase timing breakdown, matching the plots in the paper's §5.2:
// partitioning / communication / computation (join, indexing), plus the
// read and parse components of I/O. Times are virtual seconds from the
// rank's sim::Clock; harnesses reduce with max() across ranks, as the
// paper does ("we note the time taken by each process and take the
// maximum time for each of the components").
//
// The streaming pipeline (DESIGN.md §7) executes every phase once per
// round, so all fields are *accumulators* — a chunked run charges read,
// parse, partition and comm per round into the same totals a one-shot
// run produces, keeping the splits comparable across chunk sizes. The
// `rounds` counter says how many exchange rounds contributed, and
// `spill` is the modelled scratch I/O spent writing/reloading batch
// shards when the working set exceeded the memory budget.

#include <bit>
#include <cstdint>

#include "mpi/runtime.hpp"

namespace mvio::core {

struct PhaseBreakdown {
  double read = 0;       ///< file I/O (modelled)
  double parse = 0;      ///< record parsing (measured CPU)
  double partition = 0;  ///< grid projection + serialization (measured CPU)
  double comm = 0;       ///< geometry exchange (modelled + buffer CPU)
  double compute = 0;    ///< refine work: join / index build (measured CPU)
  double spill = 0;      ///< shard spill/reload scratch I/O (modelled)
  double migrate = 0;    ///< owned-cell shard migration (rebalancing)
  double checkpoint = 0;  ///< durable chunk-log + epoch-checkpoint writes (modelled)
  double recovery = 0;    ///< failure recovery: restore + replay (modelled + CPU)
  double compaction = 0;  ///< epoch compaction: base fold read/write I/O (modelled)
  /// Seconds of prep (parse + projection) and store-flush work hidden
  /// under exchange rounds by StreamConfig::overlapRounds. Concurrent
  /// with `comm` on the modelled timeline, so excluded from total() —
  /// the split of each phase that stayed *exposed* is what the phase
  /// fields above carry in overlap mode.
  double overlapped = 0;
  /// Worker-pool accounting (FrameworkConfig::threadsPerRank > 1):
  /// workerCpu is the total CPU spent inside parallel regions across all
  /// workers; workerCritical is what those regions charged to the clock
  /// (the per-region max over workers, summed). Their ratio over
  /// threadsPerRank is the pool's parallel efficiency. Both are
  /// alternative views of time already counted in parse/compute, so they
  /// do not contribute to total().
  double workerCpu = 0;
  double workerCritical = 0;
  std::uint64_t rounds = 0;  ///< exchange rounds executed (1 per layer one-shot)
  /// Piece bytes reloaded by the cell-major refine (the refine phase's
  /// share of the scratch traffic, each spilled byte at most once; writes
  /// land in FrameworkStats::spill with the rest of the spill volume).
  std::uint64_t refineSpillBytes = 0;
  std::uint64_t migrateBytes = 0;   ///< wire bytes this rank sent moving owned cells
  std::uint64_t migrateRounds = 0;  ///< migration blobs this rank sent
  std::uint64_t checkpointBytes = 0;   ///< durable bytes this rank wrote (log + epochs)
  std::uint64_t checkpointEpochs = 0;  ///< epochs this rank sealed
  std::uint64_t recoveryBytes = 0;     ///< durable bytes this rank read back recovering
  std::uint64_t recoveryRounds = 0;    ///< data rounds replayed from the chunk log
  std::uint64_t compactionBytes = 0;   ///< durable bytes written folding epochs into the base
  std::uint64_t reclaimedBytes = 0;    ///< durable bytes deleted by checkpoint GC

  [[nodiscard]] double total() const {
    return read + parse + partition + comm + compute + spill + migrate + checkpoint + recovery +
           compaction;
  }

  /// Field-wise max across all ranks — one collective round-trip. The 13
  /// time fields are IEEE-754 doubles that are never negative (phase
  /// accumulators), and for non-negative doubles the raw bit pattern
  /// orders exactly like the value, so they ride the same uint64 max
  /// reduction as the 10 counters: 23 slots, one allreduce, bit-exact
  /// against the old two-collective form.
  [[nodiscard]] PhaseBreakdown maxAcross(mpi::Comm& comm_) const {
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    const auto enc = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    const auto dec = [](std::uint64_t v) { return std::bit_cast<double>(v); };
    const std::uint64_t mine[23] = {
        enc(read),       enc(parse),     enc(partition),      enc(comm),      enc(compute),
        enc(spill),      enc(migrate),   enc(checkpoint),     enc(recovery),  enc(overlapped),
        enc(workerCpu),  enc(workerCritical), enc(compaction),
        rounds,          refineSpillBytes,    migrateBytes,    migrateRounds, checkpointBytes,
        checkpointEpochs, recoveryBytes,      recoveryRounds,  compactionBytes, reclaimedBytes};
    std::uint64_t reduced[23] = {};
    comm_.allreduce(mine, reduced, 23, mpi::Datatype::uint64(), mpi::Op::max());
    PhaseBreakdown out;
    out.read = dec(reduced[0]);
    out.parse = dec(reduced[1]);
    out.partition = dec(reduced[2]);
    out.comm = dec(reduced[3]);
    out.compute = dec(reduced[4]);
    out.spill = dec(reduced[5]);
    out.migrate = dec(reduced[6]);
    out.checkpoint = dec(reduced[7]);
    out.recovery = dec(reduced[8]);
    out.overlapped = dec(reduced[9]);
    out.workerCpu = dec(reduced[10]);
    out.workerCritical = dec(reduced[11]);
    out.compaction = dec(reduced[12]);
    out.rounds = reduced[13];
    out.refineSpillBytes = reduced[14];
    out.migrateBytes = reduced[15];
    out.migrateRounds = reduced[16];
    out.checkpointBytes = reduced[17];
    out.checkpointEpochs = reduced[18];
    out.recoveryBytes = reduced[19];
    out.recoveryRounds = reduced[20];
    out.compactionBytes = reduced[21];
    out.reclaimedBytes = reduced[22];
    return out;
  }
};

}  // namespace mvio::core
