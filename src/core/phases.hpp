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
#include <cstddef>
#include <cstdint>
#include <iterator>

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
  double checkpoint = 0;  ///< durable extent-log + epoch-checkpoint writes (modelled)
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
  std::uint64_t recoveryRounds = 0;    ///< data rounds replayed from the extent log
  std::uint64_t compactionBytes = 0;   ///< durable bytes written folding epochs into the base
  std::uint64_t reclaimedBytes = 0;    ///< durable bytes deleted by checkpoint GC

  [[nodiscard]] double total() const;  ///< sum of kPhaseFields' inTotal entries

  /// Field-wise max across all ranks — one collective round-trip. The 13
  /// time fields are IEEE-754 doubles that are never negative (phase
  /// accumulators), and for non-negative doubles the raw bit pattern
  /// orders exactly like the value, so they ride the same uint64 max
  /// reduction as the 10 counters: one 23-slot allreduce.
  [[nodiscard]] PhaseBreakdown maxAcross(mpi::Comm& comm_) const;
};

/// One PhaseBreakdown field and its report key: a time field (`seconds`;
/// summed by total() when `inTotal`) or a counter (`count`).
struct PhaseField {
  const char* name;
  double PhaseBreakdown::*seconds;
  std::uint64_t PhaseBreakdown::*count;
  bool inTotal;
};

/// Every PhaseBreakdown field in report order, time fields first: total(),
/// maxAcross and RunReport's `phases` JSON all walk this one list.
inline constexpr PhaseField kPhaseFields[] = {
    {"read", &PhaseBreakdown::read, nullptr, true},
    {"parse", &PhaseBreakdown::parse, nullptr, true},
    {"partition", &PhaseBreakdown::partition, nullptr, true},
    {"comm", &PhaseBreakdown::comm, nullptr, true},
    {"compute", &PhaseBreakdown::compute, nullptr, true},
    {"spill", &PhaseBreakdown::spill, nullptr, true},
    {"migrate", &PhaseBreakdown::migrate, nullptr, true},
    {"checkpoint", &PhaseBreakdown::checkpoint, nullptr, true},
    {"recovery", &PhaseBreakdown::recovery, nullptr, true},
    {"compaction", &PhaseBreakdown::compaction, nullptr, true},
    {"overlapped", &PhaseBreakdown::overlapped, nullptr, false},
    {"workerCpu", &PhaseBreakdown::workerCpu, nullptr, false},
    {"workerCritical", &PhaseBreakdown::workerCritical, nullptr, false},
    {"rounds", nullptr, &PhaseBreakdown::rounds, false},
    {"refineSpillBytes", nullptr, &PhaseBreakdown::refineSpillBytes, false},
    {"migrateBytes", nullptr, &PhaseBreakdown::migrateBytes, false},
    {"migrateRounds", nullptr, &PhaseBreakdown::migrateRounds, false},
    {"checkpointBytes", nullptr, &PhaseBreakdown::checkpointBytes, false},
    {"checkpointEpochs", nullptr, &PhaseBreakdown::checkpointEpochs, false},
    {"recoveryBytes", nullptr, &PhaseBreakdown::recoveryBytes, false},
    {"recoveryRounds", nullptr, &PhaseBreakdown::recoveryRounds, false},
    {"compactionBytes", nullptr, &PhaseBreakdown::compactionBytes, false},
    {"reclaimedBytes", nullptr, &PhaseBreakdown::reclaimedBytes, false},
};
inline constexpr std::size_t kPhaseSlots = std::size(kPhaseFields);
static_assert(kPhaseSlots * sizeof(std::uint64_t) == sizeof(PhaseBreakdown),
              "kPhaseFields must list every PhaseBreakdown field");

inline double PhaseBreakdown::total() const {
  double sum = 0;
  for (const PhaseField& f : kPhaseFields) {
    if (f.inTotal) sum += this->*f.seconds;
  }
  return sum;
}

inline PhaseBreakdown PhaseBreakdown::maxAcross(mpi::Comm& comm_) const {
  std::uint64_t mine[kPhaseSlots];
  for (std::size_t i = 0; i < kPhaseSlots; ++i) {
    const PhaseField& f = kPhaseFields[i];
    mine[i] = f.seconds ? std::bit_cast<std::uint64_t>(this->*f.seconds) : this->*f.count;
  }
  std::uint64_t reduced[kPhaseSlots] = {};
  comm_.allreduce(mine, reduced, kPhaseSlots, mpi::Datatype::uint64(), mpi::Op::max());
  PhaseBreakdown out;
  for (std::size_t i = 0; i < kPhaseSlots; ++i) {
    const PhaseField& f = kPhaseFields[i];
    if (f.seconds) out.*f.seconds = std::bit_cast<double>(reduced[i]);
    if (f.count) out.*f.count = reduced[i];
  }
  return out;
}

}  // namespace mvio::core
