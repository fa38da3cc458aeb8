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
// (or a streamed chunk) is smaller than `maxGeometryBytes` that is checked
// after the read, and if any block lacks one, all ranks agree on it with
// one flag and re-read in blocks of `maxGeometryBytes`.
//
// Both honour the ROMIO 2 GB-per-operation limit via block iteration, and
// both support Level 0 (independent) and Level 1 (collective) reads.

#include <cstdint>
#include <deque>
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
  /// buffer; the kMessage equal split and streamed chunks fall back to
  /// blocks of this size when a smaller block holds no record boundary.
  std::uint64_t maxGeometryBytes = 11ull << 20;
  BoundaryStrategy strategy = BoundaryStrategy::kMessage;
  /// Level 1 (collective read_at_all) instead of Level 0 (independent).
  bool collectiveRead = false;
};

/// One contiguous byte range of a file.
struct FileExtent {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  bool operator==(const FileExtent&) const = default;
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
/// `chunkBytes` picks the per-iteration block size:
///  * kWholePartition — the one-shot path: a single next() call yields the
///    rank's entire partition, with the block size resolved exactly as
///    readPartitioned resolves it.
///  * 0 — derive it from the file size, nprocs and the file's stripe size
///    (resolveChunkBytes below). When one derived chunk would cover the
///    partition, or `cfg` sets its own blockSize or kOverlap, the reader
///    takes the one-shot path above; otherwise it streams.
///  * anything else — stream with exactly that block size.
/// A streamed next() call yields one iteration's records. Under kMessage a
/// streamed block below maxGeometryBytes may hold no record boundary; the
/// ranks check each iteration and, if any block lacks one, re-read the
/// rest of the file in blocks of maxGeometryBytes (the one-shot fallback's
/// clamped size), so a record larger than the chunk still ingests.
///
/// A streamed reader with independent (Level 0) reads reads ahead (a
/// Level-0 nonblocking read, io::File::ireadAtBytes): each rank keeps its
/// next ceil(stripeCount × stripeSize / (nprocs × blockSize)) iterations'
/// requests posted, the current one included, so the ranks' requests
/// together span one stripe width and every OST of the file serves at
/// once (layout() has the memory bound). A kMessage fallback drops the
/// window; the dropped requests still count in bytesRead. The text and
/// extents are the blocking read's; only when each request reaches the
/// storage model moves earlier. The one-shot path (the paper's blocking
/// Algorithm 1 loop) and collective (Level 1) reads stay blocking.
///
/// Collective: every rank constructs the reader and calls next() in
/// lockstep until it returns false. The layout derives from the file size,
/// the stripe size and nprocs, so all ranks agree on it without
/// communication (the kMessage boundary check agrees on a fallback with
/// one allreduce per probed iteration); ranks that read no bytes in an
/// iteration still participate and simply yield empty text.
class PartitionReader {
 public:
  /// The `chunkBytes` value that reads the whole partition in one round.
  static constexpr std::uint64_t kWholePartition = ~std::uint64_t{0};
  /// Data rounds per rank a derived chunk aims at.
  static constexpr std::uint64_t kDerivedRounds = 3;

  /// `format` (optional, non-owning) answers every record-boundary
  /// question — under both strategies and in streaming chunk rounds alike:
  /// a text Parser scans for the newline, the framed WKB format
  /// walks record headers. Null resolves the registry's "wkt" reader.
  PartitionReader(mpi::Comm& comm, io::File& file, const PartitionConfig& cfg,
                  std::uint64_t chunkBytes = kWholePartition, const FormatReader* format = nullptr);

  /// Fill `text` with the next chunk's records (cleared first). Returns
  /// false once the stream is exhausted — on the same call on every rank.
  bool next(std::string& text);

  /// Where the text the last next() call returned lies in the file: its
  /// extents in order, whose bytes, concatenated, are that text. Each
  /// iteration that keeps text is one range: under kMessage the
  /// predecessor's fragment, which ends where this rank's block starts,
  /// then the block up to its cut (rank 0's carry ends where its next
  /// block starts); under kOverlap the records starting in the block. A
  /// one-shot read yields one extent per iteration. The extent log
  /// (recovery/checkpoint.hpp) re-reads chunks from these.
  [[nodiscard]] const std::vector<FileExtent>& extents() const { return extents_; }

  /// Read counters accumulated so far (the `text` field stays empty).
  [[nodiscard]] const PartitionResult& counters() const { return result_; }

 private:
  /// This rank's block in the iteration at global offset `at`, and the
  /// byte range it reads for it: the block itself under kMessage; under
  /// kOverlap one look-back byte before it and the halo after it.
  struct BlockRead {
    std::uint64_t start = 0;
    std::uint64_t length = 0;
    std::uint64_t readStart = 0;
    std::uint64_t readLength = 0;
  };
  /// A posted read-ahead request of the iteration at global offset `at`.
  struct PostedRead {
    std::uint64_t at = 0;
    io::ReadRequest request;
    std::vector<char> bytes;
  };

  /// The kMessage fragment buffer and the read-ahead depth for the current
  /// blockSize_.
  void layout();
  [[nodiscard]] BlockRead blockAt(std::uint64_t at) const;
  /// Read this iteration's `b` into buf_: collectively, or from the
  /// read-ahead window.
  void readBlock(const BlockRead& b);
  /// Top up the read-ahead window, then wait for `b` and swap it into buf_.
  void takePosted(const BlockRead& b);
  void stepMessage(std::string& out);
  void stepOverlap(std::string& out);
  /// Append [offset, offset + length) to extents_ unless it is empty.
  void noteExtent(std::uint64_t offset, std::uint64_t length);

  mpi::Comm* comm_;
  io::File* file_;
  PartitionConfig cfg_;
  const FormatReader* fmt_;  ///< record-boundary resolution (never null)
  bool streaming_ = false;
  /// kMessage equal split or streamed chunk below maxGeometryBytes: check
  /// every block for a record boundary, and fall back if one lacks it.
  bool probeBoundaries_ = false;
  std::uint64_t blockSize_ = 0;
  std::uint64_t fileSize_ = 0;
  std::uint64_t offset_ = 0;  ///< file offset of the next iteration
  std::vector<char> buf_;
  std::vector<char> recvBuf_;  ///< kMessage: predecessor-fragment landing area
  std::string carry_;          ///< kMessage rank 0: fragment for the next iteration
  std::vector<FileExtent> extents_;  ///< file ranges of the last next() text
  std::uint64_t ahead_ = 0;          ///< iterations posted past the current one (0 = blocking read)
  std::uint64_t nextPost_ = 0;       ///< global offset of the next iteration to post
  std::deque<PostedRead> posted_;    ///< the read-ahead window, oldest first
  PartitionResult result_;
};

/// The block size a PartitionReader over a file of `fileSize` bytes on
/// `nprocs` ranks under `cfg` streams with for `chunkBytes`, or
/// kWholePartition when it reads one-shot. 0 derives the chunk:
/// kDerivedRounds data rounds per rank, fewer when the partition
/// ceil(fileSize / nprocs) holds fewer stripes, with the chunk rounded so
/// the rounds split the file evenly:
///   rounds = clamp(fileSize / (nprocs × stripeSize), 1, kDerivedRounds)
///   chunk  = ceil(fileSize / (rounds × nprocs))
/// A derived chunk is never below the stripe nor above the partition, and
/// one round is the one-shot read. Deriving always gives one-shot for an
/// explicit `cfg.blockSize` (the caller's own Algorithm 1 blocks, e.g. to
/// stay under ROMIO's 2 GB limit) and for kOverlap, whose every streamed
/// iteration re-reads a maxGeometryBytes halo. A pure function of values
/// every rank shares, so all ranks agree on it without talking.
std::uint64_t resolveChunkBytes(std::uint64_t chunkBytes, std::uint64_t fileSize, int nprocs,
                                std::uint64_t stripeSize, const PartitionConfig& cfg);

/// Read `file` partitioned across all ranks of `comm`. Collective: every
/// rank must call. Afterwards the concatenation of all ranks' `text` (in
/// rank-major, iteration-major order) contains every record of the file
/// exactly once. (One-shot wrapper over PartitionReader.)
PartitionResult readPartitioned(mpi::Comm& comm, io::File& file, const PartitionConfig& cfg);

}  // namespace mvio::core
