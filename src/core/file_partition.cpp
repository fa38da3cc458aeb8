#include "core/file_partition.hpp"

#include <algorithm>

#include "core/format.hpp"
#include "util/error.hpp"

namespace mvio::core {

namespace {

/// MPI guarantees tags are valid at least up to 32767 (MPI_TAG_UB lower
/// bound). Iteration counts can exceed that on huge files with small
/// blocks, so ring-fragment tags wrap; send/recv stay matched because both
/// sides derive the tag from the same iteration index.
constexpr std::uint64_t kTagModulus = 32768;

/// Number of ranks that actually read bytes in the iteration starting at
/// `globalOffset`. Under the equal split that is every rank; a subset —
/// the paper's "subset of processes call the file read function" — reads
/// only in the last iteration of an explicit block size or streaming
/// chunk, or after the kMessage fallback to the clamped block.
int readerCount(std::uint64_t globalOffset, std::uint64_t fileSize, std::uint64_t blockSize, int nprocs) {
  if (globalOffset >= fileSize) return 0;
  const std::uint64_t remaining = fileSize - globalOffset;
  const std::uint64_t k = (remaining + blockSize - 1) / blockSize;
  return static_cast<int>(std::min<std::uint64_t>(k, static_cast<std::uint64_t>(nprocs)));
}

}  // namespace

std::uint64_t resolveChunkBytes(std::uint64_t chunkBytes, std::uint64_t fileSize, int nprocs,
                                std::uint64_t stripeSize, const PartitionConfig& cfg) {
  if (chunkBytes != 0) return chunkBytes;
  if (cfg.blockSize != 0 || cfg.strategy == BoundaryStrategy::kOverlap) {
    return PartitionReader::kWholePartition;
  }
  const std::uint64_t p = static_cast<std::uint64_t>(std::max(nprocs, 1));
  const std::uint64_t floor = std::max<std::uint64_t>(stripeSize, 1);
  const std::uint64_t rounds =
      std::clamp<std::uint64_t>(fileSize / p / floor, 1, PartitionReader::kDerivedRounds);
  if (rounds == 1) return PartitionReader::kWholePartition;
  return (fileSize + rounds * p - 1) / (rounds * p);
}

PartitionReader::PartitionReader(mpi::Comm& comm, io::File& file, const PartitionConfig& cfg,
                                 std::uint64_t chunkBytes, const FormatReader* format)
    : comm_(&comm),
      file_(&file),
      cfg_(cfg),
      fmt_(format != nullptr ? format : FormatRegistry::instance().get("wkt")) {
  fileSize_ = file.size();
  MVIO_CHECK(fileSize_ > 0, "cannot partition an empty file");

  chunkBytes =
      resolveChunkBytes(chunkBytes, fileSize_, comm.size(), file.stripe().stripeSize, cfg);
  streaming_ = chunkBytes != kWholePartition;
  blockSize_ = streaming_ ? chunkBytes : cfg.blockSize;
  if (blockSize_ == 0) {
    // Algorithm 1's equal split: one block per rank, every rank reads.
    const auto p = static_cast<std::uint64_t>(comm.size());
    blockSize_ = (fileSize_ + p - 1) / p;
  }
  // Algorithm 1 also needs a record boundary in every full block. A
  // block of maxGeometryBytes always holds one; a smaller equal block or
  // streamed chunk is checked after each read (stepMessage), and if any
  // lacks one, every rank re-reads the rest at the clamped size. kOverlap
  // needs no check: a block inside one record keeps nothing, and the
  // predecessor's halo still covers that record. An explicit
  // PartitionConfig::blockSize read one-shot is taken as given.
  probeBoundaries_ = cfg.strategy == BoundaryStrategy::kMessage &&
                     (streaming_ || cfg.blockSize == 0) && blockSize_ < cfg.maxGeometryBytes;
  layout();
}

void PartitionReader::layout() {
  MVIO_CHECK(blockSize_ <= io::kRomioMaxBytes,
             "block size exceeds ROMIO's 2 GB single-operation limit; use a smaller blockSize");
  if (cfg_.strategy == BoundaryStrategy::kMessage) {
    // A fragment is a suffix of the predecessor's block and at most one
    // record long.
    recvBuf_.resize(
        static_cast<std::size_t>(std::min<std::uint64_t>(blockSize_, cfg_.maxGeometryBytes)));
  }
  // Read-ahead window: enough iterations in flight that the ranks'
  // requests together span one stripe width, so every OST of the file
  // serves at once. The posted requests beyond the current one never
  // buffer more than a stripe width, or one request when a single request
  // is larger (a kOverlap request carries its halo).
  ahead_ = 0;
  if (streaming_ && !cfg_.collectiveRead) {
    const pfs::StripeSettings& stripe = file_->stripe();
    const std::uint64_t width = stripe.stripeSize * static_cast<std::uint64_t>(stripe.stripeCount);
    const std::uint64_t perIteration = static_cast<std::uint64_t>(comm_->size()) * blockSize_;
    const std::uint64_t window =
        std::max<std::uint64_t>(1, (width + perIteration - 1) / perIteration);
    const std::uint64_t request =
        cfg_.strategy == BoundaryStrategy::kMessage
            ? blockSize_
            : std::min<std::uint64_t>(blockSize_ + cfg_.maxGeometryBytes + 1, fileSize_);
    ahead_ = std::min(window - 1, std::max<std::uint64_t>(1, width / request));
  }
}

PartitionReader::BlockRead PartitionReader::blockAt(std::uint64_t at) const {
  BlockRead b;
  b.start = at + static_cast<std::uint64_t>(comm_->rank()) * blockSize_;
  b.length = b.start < fileSize_ ? std::min<std::uint64_t>(blockSize_, fileSize_ - b.start) : 0;
  b.readStart = b.start;
  b.readLength = b.length;
  if (cfg_.strategy == BoundaryStrategy::kOverlap) {
    // One look-back byte to detect a record boundary exactly at `start`,
    // plus the halo for the record spilling over the block end.
    b.readStart = b.start == 0 ? 0 : b.start - 1;
    const std::uint64_t readEnd =
        b.length == 0
            ? b.readStart
            : std::min<std::uint64_t>(b.start + b.length + cfg_.maxGeometryBytes, fileSize_);
    b.readLength = readEnd - b.readStart;
  }
  return b;
}

void PartitionReader::readBlock(const BlockRead& b) {
  if (!cfg_.collectiveRead) {
    takePosted(b);
    return;
  }
  // Collective calls include non-readers.
  const auto n = static_cast<std::size_t>(b.readLength);
  if (buf_.size() < n) buf_.resize(n);
  const std::size_t got = file_->readAtAllBytes(b.readStart, buf_.data(), n);
  MVIO_CHECK(got == n, "collective read returned short");
  result_.bytesRead += b.readLength;
}

void PartitionReader::takePosted(const BlockRead& b) {
  // Top the window up to ahead_ iterations past this one. The consumed
  // block's buffer lands the first new request, so the ring's buffers are
  // reused rather than allocated per iteration. With ahead_ = 0 this
  // posts the current request and waits on it at once: the blocking read.
  std::vector<char> spare = std::move(buf_);
  const std::uint64_t stride = static_cast<std::uint64_t>(comm_->size()) * blockSize_;
  const std::uint64_t horizon = std::min(offset_ + (ahead_ + 1) * stride, fileSize_);
  for (; nextPost_ < horizon; nextPost_ += stride) {
    const BlockRead r = blockAt(nextPost_);
    if (r.readLength == 0) continue;  // this rank has no block in that iteration
    PostedRead& slot = posted_.emplace_back();
    slot.at = nextPost_;
    slot.bytes = std::move(spare);
    slot.bytes.resize(static_cast<std::size_t>(r.readLength));
    slot.request = file_->ireadAtBytes(r.readStart, slot.bytes.data(), slot.bytes.size());
    result_.bytesRead += r.readLength;
  }
  if (b.readLength == 0) return;
  MVIO_CHECK(!posted_.empty() && posted_.front().at == offset_, "read-ahead window out of step");
  const std::size_t got = file_->wait(posted_.front().request);
  MVIO_CHECK(got == b.readLength, "independent read returned short");
  buf_ = std::move(posted_.front().bytes);
  posted_.pop_front();
}

void PartitionReader::stepMessage(std::string& out) {
  const int nprocs = comm_->size();
  const int rank = comm_->rank();
  const std::uint64_t fileChunkSize = static_cast<std::uint64_t>(nprocs) * blockSize_;
  const std::uint64_t globalOffset = offset_;
  const BlockRead block = blockAt(globalOffset);
  const std::uint64_t start = block.start;
  const std::uint64_t myLen = block.length;
  const int k = readerCount(globalOffset, fileSize_, blockSize_, nprocs);
  const bool lastIteration = globalOffset + fileChunkSize >= fileSize_;
  const bool reading = myLen > 0;

  // File read (Level 0 or Level 1).
  readBlock(block);

  // The EOF-tail holder keeps everything up to EOF; a missing trailing
  // delimiter just means the final record is EOF-terminated. Every other
  // reader cuts at the last record boundary in its block (Algorithm 1
  // lines 9-11: a backward delimiter scan for text, a header walk for
  // framed records that never touches payloads). The dangling partial
  // record past it rings to the successor.
  const bool tailHolder = reading && lastIteration && rank == k - 1;
  const std::int64_t cut =
      reading && !tailHolder
          ? fmt_->splitBoundary(std::string_view(buf_.data(), static_cast<std::size_t>(myLen)),
                                cfg_.maxGeometryBytes)
          : static_cast<std::int64_t>(myLen);

  // Blocks below the record bound: one flag over all ranks, non-readers
  // included, says whether some block lacks a boundary. If one does, the
  // rest of the file from this iteration's offset falls back to blocks of
  // maxGeometryBytes — for the equal split that is the clamped layout,
  // with trailing ranks left without a block — and is read again (no
  // fragment has moved yet, and rank 0's carry still ends at the offset).
  // The read-ahead window posted at the old size is dropped. bytesRead
  // keeps every read, the dropped ones included.
  if (probeBoundaries_ && comm_->allreduceMax(cut < 0 ? 1.0 : 0.0) > 0.0) {
    probeBoundaries_ = false;
    blockSize_ = cfg_.maxGeometryBytes;
    posted_.clear();
    nextPost_ = offset_;
    layout();
    stepMessage(out);
    return;
  }

  if (!reading) {
    if (lastIteration) MVIO_CHECK(carry_.empty() || rank != 0, "unconsumed carry fragment");
    return;
  }
  MVIO_CHECK(cut >= 0,
             "no record boundary inside a file block: block size is smaller than a record; "
             "increase blockSize or maxGeometryBytes");
  const std::string_view keep(buf_.data(), static_cast<std::size_t>(cut));
  const std::string_view fragment(buf_.data() + cut, static_cast<std::size_t>(myLen) -
                                                          static_cast<std::size_t>(cut));

  const bool willSend = !tailHolder;  // every reader except the EOF-tail holder
  const int succ = (rank + 1) % nprocs;
  const int pred = (rank - 1 + nprocs) % nprocs;
  // Rank 0 receives the chunk-junction fragment from rank N-1, to be
  // prepended to its next-iteration block.
  const bool willRecv = rank > 0 ? true : !lastIteration;
  const int tag = static_cast<int>(result_.iterations % kTagModulus);

  std::string received;
  auto doSend = [&] {
    comm_->send(fragment.data(), static_cast<int>(fragment.size()), mpi::Datatype::char_(), succ, tag);
    result_.fragmentsSent += 1;
    result_.fragmentBytes += fragment.size();
  };
  auto doRecv = [&] {
    const mpi::Status st =
        comm_->recv(recvBuf_.data(), static_cast<int>(recvBuf_.size()), mpi::Datatype::char_(), pred, tag);
    received.assign(recvBuf_.data(), st.bytes);
  };

  // Even ranks send before receiving; odd ranks receive before sending
  // (Algorithm 1 lines 12-19).
  if (rank % 2 == 0) {
    if (willSend) doSend();
    if (willRecv) doRecv();
  } else {
    if (willRecv) doRecv();
    if (willSend) doSend();
  }

  // Assemble this iteration's text: predecessor fragment + own records.
  // The fragment ends where this block starts (rank 0's carry ends at this
  // iteration's offset, which is its block start), so the text is the one
  // file range ending at the cut.
  const std::string& head = rank == 0 ? carry_ : received;
  noteExtent(start - head.size(), head.size() + static_cast<std::uint64_t>(cut));
  out.append(head);
  if (rank == 0) carry_ = std::move(received);
  out.append(keep);
  if (lastIteration) MVIO_CHECK(carry_.empty() || rank != 0, "unconsumed carry fragment");
}

void PartitionReader::stepOverlap(std::string& out) {
  // Read [start-1, start+myLen+halo): see blockAt.
  const BlockRead block = blockAt(offset_);
  readBlock(block);
  const std::uint64_t start = block.start;
  const std::uint64_t myLen = block.length;
  const std::uint64_t readStart = block.readStart;
  const std::uint64_t readLen = block.readLength;
  const std::uint64_t readEnd = readStart + readLen;
  if (myLen == 0) return;

  const std::uint64_t blockEnd = start + myLen;  // absolute file offset
  const std::string_view window(buf_.data(), static_cast<std::size_t>(readLen));

  // First record starting inside [start, blockEnd): the first boundary at
  // an absolute offset >= start (the look-back byte at start-1 belongs to
  // the predecessor, so a delimiter there makes `start` a boundary).
  std::uint64_t firstStart = 0;  // absolute
  if (start != 0) {
    const std::uint64_t b = fmt_->firstBoundary(window, start - readStart, cfg_.maxGeometryBytes);
    if (b == FormatReader::npos) return;  // no record begins in this block
    firstStart = readStart + b;
    if (firstStart >= blockEnd) return;  // boundary record belongs to successor
  }

  // End of the record containing byte blockEnd-1: first boundary at an
  // absolute offset >= blockEnd (or EOF for a final unterminated record).
  const std::uint64_t e = fmt_->nextBoundary(window, firstStart - readStart,
                                             blockEnd - readStart, cfg_.maxGeometryBytes);
  MVIO_CHECK(e != FormatReader::npos || readEnd == fileSize_,
             "record extends past the halo region: maxGeometryBytes is smaller than a record");
  const std::uint64_t keepEndExclusive = e != FormatReader::npos ? readStart + e : fileSize_;

  noteExtent(firstStart, keepEndExclusive - firstStart);
  out.append(buf_.data() + (firstStart - readStart),
             static_cast<std::size_t>(keepEndExclusive - firstStart));
}

void PartitionReader::noteExtent(std::uint64_t offset, std::uint64_t length) {
  if (length != 0) extents_.push_back({offset, length});
}

bool PartitionReader::next(std::string& text) {
  text.clear();
  extents_.clear();
  if (offset_ >= fileSize_) return false;

  const std::uint64_t p = static_cast<std::uint64_t>(comm_->size());
  if (!streaming_) {
    // One-shot: run every iteration into one string. This rank keeps
    // ~blockSize bytes per iteration (capped by the file), so pre-size
    // the output once instead of paying append-growth copies.
    const std::uint64_t iterations = (fileSize_ + p * blockSize_ - 1) / (p * blockSize_);
    text.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(iterations * blockSize_, fileSize_)));
  }
  do {
    switch (cfg_.strategy) {
      case BoundaryStrategy::kMessage:
        stepMessage(text);
        break;
      case BoundaryStrategy::kOverlap:
        stepOverlap(text);
        break;
    }
    // After the step: a kMessage fallback has already switched blockSize_.
    offset_ += p * blockSize_;
    ++result_.iterations;
  } while (!streaming_ && offset_ < fileSize_);
  return true;
}

PartitionResult readPartitioned(mpi::Comm& comm, io::File& file, const PartitionConfig& cfg) {
  PartitionReader reader(comm, file, cfg, PartitionReader::kWholePartition);
  std::string text;
  reader.next(text);
  PartitionResult out = reader.counters();
  out.text = std::move(text);
  return out;
}

}  // namespace mvio::core
