#pragma once
// File partitioning for variable-length geometries (paper §4.1, Algorithm 1).
//
// Simple partitioning by file blocks fails because a record (a polygon's
// vertex list) can straddle the boundary between two consecutive ranks'
// blocks. Two resolutions are implemented, matching the paper:
//
//  * kMessage — "dynamic file partitioning" (Algorithm 1): ranks read
//    non-overlapping fixed blocks; the dangling fragment after each
//    rank's last delimiter is passed to the successor rank with ring
//    send/recv. Even ranks send-then-recv, odd ranks recv-then-send —
//    the paper's deadlock-avoidance split. Rank N-1's fragment wraps to
//    rank 0, where it prepends rank 0's *next-iteration* block.
//
//  * kOverlap — halo reading: every rank reads its block plus a halo of
//    `maxGeometryBytes` (the paper's 11 MB bound on the largest shape)
//    and keeps exactly the records that *begin* inside its own block.
//    No messages, but O(N * halo) redundant bytes per iteration.
//
// Without an explicit block size the file is split equally, so every rank
// reads ceil(fileSize / nprocs) bytes, as in Algorithm 1. kMessage needs a
// record boundary in every block but the EOF tail's; when an equal block
// is smaller than `maxGeometryBytes` that is checked after the read, and
// if any block lacks one, all ranks agree on it with one flag and re-read
// at max(ceil(fileSize / nprocs), maxGeometryBytes).
//
// Both honour the ROMIO 2 GB-per-operation limit via block iteration, and
// both support Level 0 (independent) and Level 1 (collective) reads.

#include <cstdint>
#include <string>
#include <vector>

#include "io/file.hpp"
#include "mpi/runtime.hpp"

namespace mvio::core {

class FormatReader;

enum class BoundaryStrategy {
  kMessage,  ///< Algorithm 1: ring send/recv of dangling fragments
  kOverlap,  ///< halo reads with ownership by record start
};

struct PartitionConfig {
  /// Bytes per rank per iteration. 0 means "divide the file equally"
  /// (single iteration, every rank reads; the paper's default when no
  /// block size is given).
  std::uint64_t blockSize = 0;
  /// Upper bound on one record's size (the paper's 11 MB "largest
  /// polygon"). Sizes the kOverlap halo and caps the kMessage receive
  /// buffer; the kMessage equal split falls back to blocks of this size
  /// when a smaller block holds no record boundary.
  std::uint64_t maxGeometryBytes = 11ull << 20;
  BoundaryStrategy strategy = BoundaryStrategy::kMessage;
  /// Level 1 (collective read_at_all) instead of Level 0 (independent).
  bool collectiveRead = false;
};

/// Per-rank outcome of a partitioned read.
struct PartitionResult {
  /// This rank's complete records (delimiter-separated, possibly with a
  /// leading fragment joined from the predecessor).
  std::string text;
  std::uint64_t bytesRead = 0;       ///< bytes physically read (incl. halo redundancy)
  std::uint64_t iterations = 0;      ///< file-read iterations executed
  std::uint64_t fragmentsSent = 0;   ///< ring messages sent (kMessage)
  std::uint64_t fragmentBytes = 0;   ///< total fragment payload sent
};

/// Incremental partitioned reader — the chunk source of the streaming
/// pipeline (DESIGN.md §7). Both boundary strategies already proceed in
/// file iterations of nprocs × blockSize bytes; this class exposes that
/// loop one step at a time, so a rank can read, hand ~chunkBytes of
/// records to the parser, and release the text before touching the next
/// chunk — the whole-partition string never exists.
///
/// With `chunkBytes` == 0 the reader is the one-shot path: a single
/// next() call yields the rank's entire partition, with the block size
/// resolved exactly as readPartitioned resolves it. With `chunkBytes` > 0
/// the per-iteration block size *is* chunkBytes (it must still fit the
/// largest record, as Algorithm 1 requires) and every next() call yields
/// one iteration's records.
///
/// Collective: every rank constructs the reader and calls next() in
/// lockstep until it returns false. The iteration count derives from the
/// file size, so all ranks agree on it without communication (the one-shot
/// kMessage fallback agrees on its new layout with one allreduce); ranks
/// that read no bytes in an iteration still participate and simply yield
/// empty text.
class PartitionReader {
 public:
  /// `format` (optional, non-owning) answers every record-boundary
  /// question — under both strategies and in streaming chunk rounds alike:
  /// a text Parser scans for the newline, the framed WKB format
  /// walks record headers. Null resolves the registry's "wkt" reader.
  PartitionReader(mpi::Comm& comm, io::File& file, const PartitionConfig& cfg,
                  std::uint64_t chunkBytes = 0, const FormatReader* format = nullptr);

  /// Fill `text` with the next chunk's records (cleared first). Returns
  /// false once the stream is exhausted — on the same call on every rank.
  bool next(std::string& text);

  /// Read counters accumulated so far (the `text` field stays empty).
  [[nodiscard]] const PartitionResult& counters() const { return result_; }

 private:
  /// Iteration count and kMessage buffers for the current blockSize_.
  void layout();
  bool stepMessage(std::string& out);
  bool stepOverlap(std::string& out);

  mpi::Comm* comm_;
  io::File* file_;
  PartitionConfig cfg_;
  const FormatReader* fmt_;  ///< record-boundary resolution (never null)
  bool streaming_ = false;
  /// kMessage equal split below maxGeometryBytes: check every block for a
  /// record boundary on the first read, and fall back if one lacks it.
  bool probeBoundaries_ = false;
  std::uint64_t blockSize_ = 0;
  std::uint64_t fileSize_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t iter_ = 0;  ///< next iteration to execute
  std::vector<char> buf_;
  std::vector<char> recvBuf_;  ///< kMessage: predecessor-fragment landing area
  std::string carry_;          ///< kMessage rank 0: fragment for the next iteration
  PartitionResult result_;
};

/// Read `file` partitioned across all ranks of `comm`. Collective: every
/// rank must call. Afterwards the concatenation of all ranks' `text` (in
/// rank-major, iteration-major order) contains every record of the file
/// exactly once. (One-shot wrapper over PartitionReader.)
PartitionResult readPartitioned(mpi::Comm& comm, io::File& file, const PartitionConfig& cfg);

}  // namespace mvio::core
