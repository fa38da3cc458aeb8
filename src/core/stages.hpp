#pragma once
// The stages runFilterRefine calls in order (paper §4.3, Figure 7;
// DESIGN.md §3): plain functions with explicit inputs and outputs, over
// one cell→rank map, FrameworkStats::cellOwner. Internal to core/.
//
//   runIngest         steps 1–2   ingest.cpp     read + parse into BatchStagers
//   runPlanPartition  steps 3–3b  ingest.cpp     grid, partition map, plan, owners
//   (exchange rounds) steps 4–5   framework.cpp  rounds, checkpoints, recovery
//   runRebalance      step 5b     rebalance.cpp  LPT reassignment + migration
//   runRefine         step 6      refine.cpp     cell-major refine group loop

#include <array>
#include <deque>

#include "core/cell_store.hpp"
#include "core/framework.hpp"
#include "geom/batch_shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recovery/checkpoint.hpp"
#include "util/thread_pool.hpp"

namespace mvio::core {

inline std::uint64_t allreduceMaxU64(mpi::Comm& comm, std::uint64_t v) {
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

/// Ingest's output: the union MBR of both layers and the pilot sample.
struct IngestResult {
  geom::Envelope localBounds;
  std::vector<geom::Envelope> pilot;
};

/// Ingest (steps 1–2): read and parse `r` (and `s`) chunk by chunk into
/// the stagers and the durable extent log, layer L in blocks of the
/// resolved `chunk[L]` (resolveChunkBytes; kWholePartition = one-shot).
/// Fills stats.{parseR, parseS, ioR, ioS}; `deferPrep` (round overlap)
/// leaves the parse charge in the chunk's stager slot.
IngestResult runIngest(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& r,
                       const DatasetHandle* s, const FrameworkConfig& cfg, util::ThreadPool* pool,
                       const std::array<std::uint64_t, 2>& chunk, bool deferPrep,
                       recovery::CheckpointCoordinator& ckpt, BatchStager& stageR,
                       BatchStager& stageS, FrameworkStats& stats);

/// PlanPartition (steps 3–3b): fills stats.{grid, partition, plan}
/// identically on every rank and starts stats.cellOwner as round-robin
/// over `comm`.
void runPlanPartition(mpi::Comm& comm, const FrameworkConfig& cfg, const IngestResult& ingest,
                      FrameworkStats& stats);

/// Rebalance (step 5b) on `active`, whose rank a is launch rank
/// `launchRanks[a]`: when the reduced per-cell loads clear the trigger,
/// rewrite stats.cellOwner with the LPT map and migrate leaving cells
/// as shard blobs, in passes of at most `storeBudget` bytes (0 = one).
/// `ownedS` is null for single-layer runs.
void runRebalance(mpi::Comm& active, const std::vector<int>& launchRanks,
                  const FrameworkConfig& cfg, std::uint64_t storeBudget, CellStore& ownedR,
                  CellStore* ownedS, FrameworkStats& stats);

/// Refine (step 6): the cell-major group loop over the finalized stores,
/// on `workers` (inline on `task` when empty); streaming groups close at
/// `groupBudget` staged bytes.
void runRefine(mpi::Comm& comm, RefineTask& task, util::ThreadPool* pool,
               std::vector<std::unique_ptr<RefineTask>>& workers, std::uint64_t groupBudget,
               CellStore& ownedR, CellStore& ownedS, FrameworkStats& stats);

}  // namespace mvio::core
