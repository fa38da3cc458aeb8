#pragma once
// MPI-IO-shaped file access over a simulated parallel filesystem.
//
// A File is opened collectively by every rank of a communicator against a
// pfs::Volume, then read/written through the three access levels the
// paper benchmarks (Table 1):
//
//   Level 0  contiguous + independent  -> readAtBytes / readAt
//            (nonblocking: ireadAtBytes + wait, MPI_File_iread_at + MPI_Wait)
//   Level 1  contiguous + collective   -> readAtAllBytes / readAtAll
//   Level 3  non-contiguous + collective -> setView + readAtAll
//   (level 2, non-contiguous + independent, exists too: setView + readAt,
//    implemented with ROMIO-style data sieving)
//
// Collective reads/writes run genuine two-phase I/O: aggregator ranks are
// selected with ROMIO's Lustre rule (io/aggregator.hpp), file domains are
// stripe-aligned partitions of the accessed range, aggregators move data
// in cb_buffer_size cycles, and payloads are redistributed with real
// alltoallv calls. The ROMIO 2 GB single-operation limit is enforced, as
// the paper's partitioners must work around it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/aggregator.hpp"
#include "io/view.hpp"
#include "mpi/runtime.hpp"
#include "pfs/volume.hpp"

namespace mvio::io {

/// ROMIO's single-operation ceiling (int count of bytes).
inline constexpr std::uint64_t kRomioMaxBytes = (1ull << 31) - 1;

/// MPI_Info-style tuning knobs, plus the MPI-library CPU cost model for
/// request-list processing and staging copies (the overheads that make
/// fine-grained non-contiguous access slow in ROMIO). Charged
/// deterministically so results are reproducible.
struct Hints {
  int cbNodes = 0;                            ///< forced aggregator count; 0 = ROMIO rule
  std::uint64_t cbBufferSize = 16ull << 20;   ///< two-phase cycle buffer per aggregator
  std::uint64_t sieveBufferSize = 4ull << 20; ///< data-sieving buffer for independent NC access
  double cpuPerPieceSeconds = 1.0e-6;         ///< per offset-length pair processed
  double cpuBytesPerSecond = 6.0e9;           ///< staging copy rate (pack/unpack/assemble)
};

/// A posted Level-0 read (MPI_File_iread_at's request). The bytes are
/// already in the caller's buffer; `done` is the virtual time the storage
/// model completes the request at, which File::wait advances the clock to.
struct ReadRequest {
  double done = 0;
  std::size_t bytes = 0;  ///< bytes read (clipped at end of file)
};

/// I/O statistics for tests and benches (per File handle, per rank).
struct IoCounters {
  std::uint64_t modelRequests = 0;  ///< priced requests issued to the storage model
  std::uint64_t bytesMoved = 0;     ///< bytes through the storage model
};

class File {
 public:
  /// Collective open; every rank of `comm` must call with the same name.
  static File open(mpi::Comm& comm, pfs::Volume& volume, const std::string& name, Hints hints = {});

  [[nodiscard]] std::uint64_t size() const;
  [[nodiscard]] const pfs::StripeSettings& stripe() const;
  [[nodiscard]] const Hints& hints() const { return hints_; }
  [[nodiscard]] const std::vector<int>& aggregatorRanks() const { return aggregators_; }
  [[nodiscard]] const IoCounters& counters() const { return counters_; }

  /// MPI_File_set_view (local operation here; callers keep views consistent
  /// across ranks for collective calls, as MPI requires).
  void setView(std::uint64_t disp, const mpi::Datatype& etype, const mpi::Datatype& filetype);
  [[nodiscard]] const ViewMap& view() const { return view_; }

  // ---- Byte-level contiguous access (ignores the view) -------------------
  /// Level 0: independent read of up to `n` bytes at absolute `offset`.
  /// Returns bytes read (clipped at end of file).
  std::size_t readAtBytes(std::uint64_t offset, void* buf, std::size_t n);
  /// Level 0, nonblocking: post the same read at the current virtual time
  /// without advancing the clock. Requests posted back to back are in
  /// flight together, so they queue on their stripes' OSTs concurrently.
  ReadRequest ireadAtBytes(std::uint64_t offset, void* buf, std::size_t n);
  /// Complete a posted read: advance the clock to its completion time.
  /// Returns its byte count.
  std::size_t wait(const ReadRequest& request);
  /// Level 1: collective variant; all ranks must call (possibly with n=0).
  std::size_t readAtAllBytes(std::uint64_t offset, void* buf, std::size_t n);
  /// Independent byte write.
  std::size_t writeAtBytes(std::uint64_t offset, const void* buf, std::size_t n);

  // ---- Typed, view-relative access (offset counted in etypes) ------------
  /// Independent read of `count` memType elements; uses data sieving when
  /// the view is non-contiguous. Returns elements read.
  int readAt(std::uint64_t offsetEtypes, void* buf, int count, const mpi::Datatype& memType);
  /// Collective two-phase read.
  int readAtAll(std::uint64_t offsetEtypes, void* buf, int count, const mpi::Datatype& memType);
  /// Independent write (per-run writes; no sieving).
  int writeAt(std::uint64_t offsetEtypes, const void* buf, int count, const mpi::Datatype& memType);
  /// Collective two-phase write.
  int writeAtAll(std::uint64_t offsetEtypes, const void* buf, int count, const mpi::Datatype& memType);

 private:
  File(mpi::Comm& comm, pfs::Volume& volume, std::shared_ptr<pfs::FileObject> object, Hints hints,
       std::vector<int> aggregators);

  /// Two-phase collective transfer; every rank calls with its run list.
  /// Reads fill `payload` (assembled in run order); writes consume it.
  void collectiveTransfer(bool isWrite, const std::vector<Run>& myRuns, char* payload);

  /// Independent data-sieving read into `payload` (run order).
  void sieveRead(const std::vector<Run>& runs, char* payload);

  [[nodiscard]] std::vector<Run> typedRuns(std::uint64_t offsetEtypes, int count,
                                           const mpi::Datatype& memType) const;

  mpi::Comm* comm_;
  pfs::Volume* volume_;
  std::shared_ptr<pfs::FileObject> object_;
  Hints hints_;
  std::vector<int> aggregators_;
  ViewMap view_;
  IoCounters counters_;
};

}  // namespace mvio::io
