#pragma once
// Communication buffer management and the global spatial exchange
// (paper §4.2.3).
//
// After local grid projection, a rank may hold records belonging to cells
// owned by other ranks. exchangeByCell() performs the personalized
// all-to-all over a cell-tagged GeometryBatch: each destination's records
// are written straight from the batch arenas as one BatchShard frame
// (geom/batch_shard.hpp, the codec spill, checkpoints and migration use
// too) into one send buffer, round headers are exchanged with
// MPI_Alltoall, and the payload moves with MPI_Alltoallv — "all-to-all
// collective communication is performed in at least two communication
// rounds", exactly as the paper describes.
//
// Each round's header carries the payload byte count, the record count,
// and a last-round flag per destination. The byte counts size the
// receive buffer, the record count must match the frame it announces,
// and the flag makes a zero-record round (a streaming chunk that happened
// to send nothing) distinguishable from a terminated stream, so a rank
// that believes the stream has ended while a peer keeps sending fails
// fast with a protocol error instead of deadlocking in a later round.
//
// For large datasets the exchange is windowed (paper: "sliding window
// technique where communication happens in distinct number of phases"):
// cells are partitioned into `windowPhases` contiguous id ranges and one
// alltoallv round runs per range, bounding peak buffer memory.
//
// Receivers decode the frames in ascending source order, and a rank's
// self-owned records take its own slot in that order, so per window
// phase a rank's records arrive from each source in ascending rank
// order, each in that source's send order. A cell lies in one phase, so
// its records arrive in ascending source order — which recovery relies
// on to rebuild the failure-free order from the survivors' sends.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "geom/geometry_batch.hpp"
#include "mpi/runtime.hpp"

namespace mvio::core {

/// Maps a cell id to its owner rank (e.g. roundRobinOwner).
using CellOwnerFn = std::function<int(int cell)>;

/// Deterministic cost model for communication-buffer management (the
/// paper's "serialization and deserialization" overhead). Measured thread
/// CPU is too coarse on quantized-clock hosts for sub-10ms phases, so
/// exchangeByCell and migrateShards charge these default rates instead;
/// bench_micro_datatype reports the real hot-path numbers for comparison.
struct SerializationCostModel {
  double bytesPerSecond = 2.5e9;      ///< BatchShard frame encode/decode streaming rate
  double perGeometrySeconds = 3e-7;   ///< fixed per-record overhead
};

struct ExchangeStats {
  std::uint64_t bytesSent = 0;
  std::uint64_t bytesReceived = 0;
  std::uint64_t geometriesSent = 0;
  std::uint64_t geometriesReceived = 0;
  std::uint64_t phases = 0;
};

/// Per-destination round header, exchanged with MPI_Alltoall before the
/// payload round (one per sliding-window phase).
struct RoundHeader {
  std::uint64_t payloadBytes = 0;
  std::uint32_t records = 0;
  std::uint32_t flags = 0;  ///< kRoundLast on the stream's final phase
};
static_assert(sizeof(RoundHeader) == 16, "round header is 16 wire bytes");
inline constexpr std::uint32_t kRoundLast = 1;

/// Reusable per-round working set of exchangeByCell: the header /
/// count / displacement vectors, the record order and the two payload
/// buffers. A one-shot exchange allocates these on the stack; the
/// streaming framework passes one instance across all of a run's rounds
/// so every round after the first reuses the capacity instead of
/// reallocating p-sized vectors and re-growing the payload buffers from
/// zero.
struct ExchangeScratch {
  std::vector<int> sendCounts, sendDispls, recvCounts, recvDispls;
  std::vector<RoundHeader> sendHeaders, recvHeaders;
  std::vector<std::size_t> bucketEnd;  ///< counting sort by (phase, destination)
  std::vector<std::uint32_t> order;    ///< records sent, grouped by phase and destination
  std::vector<int> keys;               ///< destination of each entry of `order`
  std::vector<std::uint32_t> self;     ///< self-owned records, in send order
  std::string sendBuf;
  std::vector<char> recvBuf;
};

// ---- MPI shard transport (owned-cell rebalancing) ------------------------
// After the exchange phase every cell's records sit on its round-robin
// owner, which under spatial skew can leave one rank holding a multiple of
// the mean load. The transport moves whole owned cells: ranks agree on a
// new cell→rank map (greedy LPT over globally-reduced per-cell loads, a
// deterministic computation every rank repeats bit-identically), then each
// leaving cell's records travel point-to-point as checksummed BatchShard
// wire blobs (geom/batch_shard.hpp — the same codec the spill path uses;
// header and payload are CRC-32C checksummed, so a truncated or corrupted
// blob is rejected at decode). Each sender closes its per-peer stream with
// a summary frame carrying blob/record/byte totals, which the receiver
// cross-checks before trusting the migrated records.

/// Point-to-point tag carried by migration blobs and summary frames.
inline constexpr int kShardMigrationTag = 7741;

struct ShardTransportStats {
  std::uint64_t bytesSent = 0;
  std::uint64_t bytesReceived = 0;
  std::uint64_t recordsSent = 0;
  std::uint64_t recordsReceived = 0;
  std::uint64_t blobsSent = 0;      ///< wire blobs (migration rounds) this rank sent
  std::uint64_t blobsReceived = 0;
};

/// Stale-manifest guard of the recovery restore path and the compaction
/// fold (recovery::loadShardSet): throws util::Error unless every record
/// of `b` sits in a cell that `owner` maps to `expectedRank`. A persisted
/// shard set whose cells no longer belong to the loading rank (the
/// cell→rank map moved on since the manifest was written) is rejected
/// instead of silently double-serving cells. `context` prefixes the
/// error message.
void validateCellOwnership(const geom::GeometryBatch& b, const std::vector<int>& owner,
                           int expectedRank, const char* context);

/// Greedy LPT (longest-processing-time-first) assignment of cells to
/// ranks: cells sorted by load descending (ties by cell id) each go to the
/// currently least-loaded rank (ties by rank id). Every cell weighs at
/// least 1 so empty cells spread round-robin-ish instead of piling onto
/// rank 0. Deterministic: identical inputs produce identical maps on every
/// rank, so no agreement round is needed after the load reduction.
std::vector<int> lptAssignCells(const std::vector<std::uint64_t>& cellLoads, int nprocs);

/// Seeded, masked form of the same greedy pass — the one LPT loop both
/// the rebalancer and the recovery re-homing share, so their ordering
/// and tie-breaking cannot silently diverge. Bins start at `seedLoads`
/// (its size is the bin count); only cells with mask[c] != 0 are
/// assigned, each to the least-loaded bin (same descending-load /
/// ascending-id / lowest-bin tie order, every cell weighing at least 1),
/// writing the winning *bin index* into ownerBins[c]. Unmasked cells'
/// entries are left untouched.
void lptAssignCellsSeeded(const std::vector<std::uint64_t>& cellLoads,
                          const std::vector<char>& mask, std::vector<std::uint64_t> seedLoads,
                          std::vector<int>& ownerBins);

/// Move owned-cell records between ranks. `outgoing[d]` holds the records
/// this rank ships to rank d (cell tags preserved; `outgoing[rank]` must
/// be empty — cells that stay put never hit the wire). Each destination's
/// records are split into shard blobs of at most `maxBlobBytes` encoded
/// bytes (at least one record per blob) and sent point-to-point, followed
/// by a summary frame; the function then receives every peer's stream in
/// rank order and returns the records migrating to this rank. Throws
/// util::Error on a corrupted/truncated blob or a summary mismatch.
/// Collective over `comm`.
geom::GeometryBatch migrateShards(mpi::Comm& comm, std::vector<geom::GeometryBatch>&& outgoing,
                                  std::uint64_t maxBlobBytes, ShardTransportStats* stats = nullptr);

/// Personalized all-to-all of a cell-tagged GeometryBatch — the pipeline's
/// hot path. `outgoing` is consumed; records with cell == kNoCell are
/// dropped (they project to no grid cell). Each phase groups its records
/// by destination and writes one BatchShard frame per destination
/// straight from the batch arenas into ONE reused send buffer — exactly
/// one copy of payload bytes per phase, no per-destination staging — and
/// decodes received frames directly into the result batch.
/// Returns the records this rank owns (retained + received). Collective.
///
/// `lastRound` stamps kRoundLast on the final window phase. One-shot
/// callers keep the default (their single exchange ends the stream); the
/// streaming framework passes false for every data round and terminates
/// the stream with one empty round flagged true — every receiver checks
/// that all senders agree with its own view of termination.
geom::GeometryBatch exchangeByCell(mpi::Comm& comm, geom::GeometryBatch&& outgoing,
                                   const CellOwnerFn& owner, int windowPhases, int totalCells,
                                   ExchangeStats* stats = nullptr, bool lastRound = true,
                                   ExchangeScratch* scratch = nullptr);

}  // namespace mvio::core
