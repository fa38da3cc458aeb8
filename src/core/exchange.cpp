#include "core/exchange.hpp"

#include <algorithm>
#include <cstring>
#include <queue>

#include "geom/batch_shard.hpp"
#include "geom/wkb.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/perf.hpp"

namespace mvio::core {

using util::fnv1a;
using util::putScalar;
using util::readScalar;

constexpr SerializationCostModel kCosts{};  ///< charged by the exchange and the migration

void serializeCellGeometry(const CellGeometry& cg, std::string& out) {
  MVIO_CHECK(cg.cell >= 0, "negative cell id");
  const std::size_t start = out.size();
  // Stage the geometry in a batch so the exact WKB size is known up front
  // and the encode runs through the one shared arena serializer — no
  // placeholder-and-patch-back framing (geom::appendWkb(batch, i, out)).
  thread_local geom::GeometryBatch staged;
  staged.clear();
  staged.append(cg.geometry, cg.cell);
  putScalar<std::uint32_t>(out, static_cast<std::uint32_t>(cg.cell));
  putScalar<std::uint32_t>(out, static_cast<std::uint32_t>(cg.geometry.userData.size()));
  putScalar<std::uint32_t>(out, static_cast<std::uint32_t>(staged.wkbSize(0)));
  out.append(cg.geometry.userData);
  geom::appendWkb(staged, 0, out);
  util::perf::addBytesCopied(out.size() - start);
}

void deserializeCellGeometries(std::string_view bytes, std::vector<CellGeometry>& out) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    MVIO_CHECK(pos + 12 <= bytes.size(), "truncated geometry record header");
    const auto cell = readScalar<std::uint32_t>(bytes.data() + pos);
    const auto userLen = readScalar<std::uint32_t>(bytes.data() + pos + 4);
    const auto wkbLen = readScalar<std::uint32_t>(bytes.data() + pos + 8);
    pos += 12;
    MVIO_CHECK(pos + userLen + wkbLen <= bytes.size(), "truncated geometry record body");
    CellGeometry cg;
    cg.cell = static_cast<int>(cell);
    std::size_t consumed = 0;
    cg.geometry = geom::readWkb(bytes.substr(pos + userLen, wkbLen), &consumed);
    MVIO_CHECK(consumed == wkbLen, "WKB record length mismatch");
    cg.geometry.userData.assign(bytes.data() + pos, userLen);
    util::perf::addBytesCopied(12ull + userLen + wkbLen);
    pos += userLen + wkbLen;
    out.push_back(std::move(cg));
  }
}

geom::GeometryBatch exchangeByCell(mpi::Comm& comm, geom::GeometryBatch&& outgoing,
                                   const CellOwnerFn& owner, int windowPhases, int totalCells,
                                   ExchangeStats* stats, bool lastRound, ExchangeScratch* scratch) {
  MVIO_CHECK(windowPhases >= 1, "need at least one exchange phase");
  MVIO_CHECK(totalCells >= 1, "need at least one cell");
  const int p = comm.size();
  const int phases = std::min(windowPhases, totalCells);

  geom::GeometryBatch mine;

  // Classify records. Self-owned ones copy straight into `mine`. For the
  // single-phase default, the rest stay in the outgoing arenas until they
  // are packed (zero staging copies). For a multi-phase sliding window
  // they are re-bucketed into per-phase batches and the source arenas are
  // dropped immediately, so each phase's memory is released as soon as
  // its buffer is packed — the peak-memory bound the windowing exists for.
  const bool multiPhase = phases > 1;
  const int cellsPerPhase = (totalCells + phases - 1) / phases;
  auto phaseOf = [&](int cell) { return std::min(cell / cellsPerPhase, phases - 1); };

  std::vector<std::uint32_t> sendIdx;  // single-phase: indices into `outgoing`
  std::vector<geom::GeometryBatch> phaseBatches(multiPhase ? static_cast<std::size_t>(phases) : 0);
  for (std::size_t i = 0; i < outgoing.size(); ++i) {
    const int cell = outgoing.cell(i);
    if (cell == geom::GeometryBatch::kNoCell) continue;  // projected to no cell
    MVIO_CHECK(cell >= 0 && cell < totalCells, "cell id out of grid range");
    const int dst = owner(cell);
    MVIO_CHECK(dst >= 0 && dst < p, "cell owner out of communicator range");
    if (dst == comm.rank()) {
      mine.appendRecordFrom(outgoing, i, cell);  // no self-serialization round trip
    } else if (multiPhase) {
      phaseBatches[static_cast<std::size_t>(phaseOf(cell))].appendRecordFrom(outgoing, i, cell);
    } else {
      sendIdx.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (multiPhase) outgoing = geom::GeometryBatch();  // release the source arenas

  // Per-round working set: caller-provided scratch when multi-round
  // streaming wants to reuse the capacity, a local set otherwise. Every
  // entry is fully overwritten per phase, so a resize is all the reuse
  // path needs (it keeps capacity; sendBuf/recvBuf likewise resize per
  // phase below).
  ExchangeScratch local;
  ExchangeScratch& sx = scratch != nullptr ? *scratch : local;
  sx.sendCounts.resize(static_cast<std::size_t>(p));
  sx.sendDispls.resize(static_cast<std::size_t>(p));
  sx.recvCounts.resize(static_cast<std::size_t>(p));
  sx.recvDispls.resize(static_cast<std::size_t>(p));
  sx.sendHeaders.resize(static_cast<std::size_t>(p));
  sx.recvHeaders.resize(static_cast<std::size_t>(p));
  sx.writeAt.resize(static_cast<std::size_t>(p));
  std::vector<int>& sendCounts = sx.sendCounts;
  std::vector<int>& sendDispls = sx.sendDispls;
  std::vector<int>& recvCounts = sx.recvCounts;
  std::vector<int>& recvDispls = sx.recvDispls;
  std::vector<RoundHeader>& sendHeaders = sx.sendHeaders;
  std::vector<RoundHeader>& recvHeaders = sx.recvHeaders;
  std::vector<std::size_t>& writeAt = sx.writeAt;
  std::vector<char>& sendBuf = sx.sendBuf;
  std::vector<char>& recvBuf = sx.recvBuf;
  const auto headerType =
      mpi::Datatype::contiguous(static_cast<int>(sizeof(RoundHeader)), mpi::Datatype::byte());

  for (int phase = 0; phase < phases; ++phase) {
    geom::GeometryBatch& src = multiPhase ? phaseBatches[static_cast<std::size_t>(phase)] : outgoing;
    const std::size_t nRecords = multiPhase ? src.size() : sendIdx.size();
    auto recordAt = [&](std::size_t k) {
      return multiPhase ? k : static_cast<std::size_t>(sendIdx[k]);
    };
    // Every rank derives the flag from the same (windowPhases, lastRound)
    // pair, so senders and receivers agree on which phase ends the stream.
    const bool phaseLast = lastRound && phase == phases - 1;

    // Pass 1: exact per-destination byte and record counts.
    std::fill(sendHeaders.begin(), sendHeaders.end(), RoundHeader{});
    for (std::size_t k = 0; k < nRecords; ++k) {
      const std::size_t i = recordAt(k);
      RoundHeader& h = sendHeaders[static_cast<std::size_t>(owner(src.cell(i)))];
      h.payloadBytes += src.serializedSize(i);
      h.records += 1;
    }
    std::size_t sendTotal = 0;
    for (int d = 0; d < p; ++d) {
      RoundHeader& h = sendHeaders[static_cast<std::size_t>(d)];
      if (phaseLast) h.flags |= kRoundLast;
      MVIO_CHECK(h.payloadBytes <= static_cast<std::uint64_t>(INT32_MAX),
                 "per-destination buffer exceeds 2 GB");
      sendCounts[static_cast<std::size_t>(d)] = static_cast<int>(h.payloadBytes);
      sendDispls[static_cast<std::size_t>(d)] = static_cast<int>(sendTotal);
      writeAt[static_cast<std::size_t>(d)] = sendTotal;
      sendTotal += static_cast<std::size_t>(h.payloadBytes);
    }
    MVIO_CHECK(sendTotal <= static_cast<std::size_t>(INT32_MAX),
               "phase send buffer exceeds 2 GB (displacements are 32-bit); increase windowPhases");

    // Pass 2: pack every record once, directly at its destination's
    // running offset — the phase's single payload-byte copy.
    sendBuf.resize(sendTotal);
    for (std::size_t k = 0; k < nRecords; ++k) {
      const std::size_t i = recordAt(k);
      auto& at = writeAt[static_cast<std::size_t>(owner(src.cell(i)))];
      char* end = src.serializeRecordTo(i, sendBuf.data() + at);
      at = static_cast<std::size_t>(end - sendBuf.data());
    }
    if (multiPhase) src = geom::GeometryBatch();  // this phase's records are packed; free them
    comm.clock().advanceBy(static_cast<double>(sendTotal) / kCosts.bytesPerSecond +
                           static_cast<double>(nRecords) * kCosts.perGeometrySeconds);

    // Round 1: exchange round headers (MPI_Alltoall), so receivers can
    // size their buffers, anticipate record counts, and verify that all
    // senders share this rank's view of stream termination.
    comm.alltoall(sendHeaders.data(), 1, headerType, recvHeaders.data());
    std::size_t recvTotal = 0;
    std::size_t expectedRecords = 0;
    for (int d = 0; d < p; ++d) {
      const RoundHeader& h = recvHeaders[static_cast<std::size_t>(d)];
      MVIO_CHECK(((h.flags & kRoundLast) != 0) == phaseLast,
                 "exchange round termination mismatch: a rank ended its stream while another "
                 "keeps sending (streaming rounds are misaligned)");
      MVIO_CHECK(h.payloadBytes <= static_cast<std::uint64_t>(INT32_MAX),
                 "received per-source buffer exceeds 2 GB");
      recvCounts[static_cast<std::size_t>(d)] = static_cast<int>(h.payloadBytes);
      recvDispls[static_cast<std::size_t>(d)] = static_cast<int>(recvTotal);
      recvTotal += static_cast<std::size_t>(h.payloadBytes);
      expectedRecords += h.records;
    }
    MVIO_CHECK(recvTotal <= static_cast<std::size_t>(INT32_MAX),
               "phase receive buffer exceeds 2 GB (displacements are 32-bit); increase windowPhases");

    // Round 2: payload (MPI_Alltoallv over MPI_CHAR buffers).
    recvBuf.resize(recvTotal);
    comm.alltoallv(sendBuf.data(), sendCounts.data(), sendDispls.data(), recvBuf.data(),
                   recvCounts.data(), recvDispls.data(), mpi::Datatype::char_());

    const std::size_t before = mine.size();
    mine.reserveRecords(expectedRecords);
    mine.deserializeRecords(std::string_view(recvBuf.data(), recvTotal));
    MVIO_CHECK(mine.size() - before == expectedRecords,
               "round header record count does not match the deserialized stream");
    comm.clock().advanceBy(static_cast<double>(recvTotal) / kCosts.bytesPerSecond +
                           static_cast<double>(mine.size() - before) * kCosts.perGeometrySeconds);

    if (stats != nullptr) {
      stats->bytesSent += sendTotal;
      stats->bytesReceived += recvTotal;
      stats->geometriesSent += nRecords;
      stats->geometriesReceived += mine.size() - before;
      stats->phases += 1;
    }
  }
  outgoing.clear();
  return mine;
}

namespace {

// Summary frame closing one sender→receiver migration stream:
// [magic "MVSX"][version][blobs:u64][records:u64][payloadBytes:u64]
// [checksum:u64 over the preceding 32 bytes]. The magic differs from the
// shard magic ("MVSH"), so a receiver discriminates blob vs summary on the
// first four bytes alone.
constexpr std::uint32_t kSummaryMagic = 0x5853564Du;  // "MVSX" little-endian
constexpr std::uint32_t kSummaryVersion = 1;
constexpr std::size_t kSummaryBytes = 4 + 4 + 8 + 8 + 8 + 8;

std::string encodeMigrationSummary(std::uint64_t blobs, std::uint64_t records, std::uint64_t bytes) {
  std::string out;
  out.reserve(kSummaryBytes);
  putScalar<std::uint32_t>(out, kSummaryMagic);
  putScalar<std::uint32_t>(out, kSummaryVersion);
  putScalar<std::uint64_t>(out, blobs);
  putScalar<std::uint64_t>(out, records);
  putScalar<std::uint64_t>(out, bytes);
  putScalar<std::uint64_t>(out, fnv1a(out.data(), out.size()));
  return out;
}

}  // namespace

void validateCellOwnership(const geom::GeometryBatch& b, const std::vector<int>& owner,
                           int expectedRank, const char* context) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    const int cell = b.cell(i);
    if (cell == geom::GeometryBatch::kNoCell) continue;
    MVIO_CHECK(cell >= 0 && static_cast<std::size_t>(cell) < owner.size(),
               std::string(context) + ": record cell " + std::to_string(cell) +
                   " lies outside the active grid");
    MVIO_CHECK(owner[static_cast<std::size_t>(cell)] == expectedRank,
               std::string(context) + ": stale manifest — cell " + std::to_string(cell) +
                   " belongs to rank " + std::to_string(owner[static_cast<std::size_t>(cell)]) +
                   " under the active cell map, not rank " + std::to_string(expectedRank));
  }
}

std::vector<int> lptAssignCells(const std::vector<std::uint64_t>& cellLoads, int nprocs) {
  MVIO_CHECK(nprocs >= 1, "lptAssignCells: need at least one rank");
  std::vector<int> owner(cellLoads.size(), 0);
  lptAssignCellsSeeded(cellLoads, std::vector<char>(cellLoads.size(), 1),
                       std::vector<std::uint64_t>(static_cast<std::size_t>(nprocs), 0), owner);
  return owner;
}

void lptAssignCellsSeeded(const std::vector<std::uint64_t>& cellLoads,
                          const std::vector<char>& mask, std::vector<std::uint64_t> seedLoads,
                          std::vector<int>& ownerBins) {
  MVIO_CHECK(!seedLoads.empty(), "lptAssignCellsSeeded: need at least one bin");
  MVIO_CHECK(mask.size() == cellLoads.size() && ownerBins.size() == cellLoads.size(),
             "lptAssignCellsSeeded: mask/owner size mismatch");
  const std::size_t cells = cellLoads.size();
  std::vector<std::uint32_t> order;
  order.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    if (mask[c] != 0) order.push_back(static_cast<std::uint32_t>(c));
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return cellLoads[a] != cellLoads[b] ? cellLoads[a] > cellLoads[b] : a < b;
  });

  // Min-heap of (assigned load, bin); ties break toward the lower bin id
  // so every rank computes the identical map.
  using Bin = std::pair<std::uint64_t, int>;
  std::priority_queue<Bin, std::vector<Bin>, std::greater<>> bins;
  for (std::size_t b = 0; b < seedLoads.size(); ++b) {
    bins.push({seedLoads[b], static_cast<int>(b)});
  }

  for (const std::uint32_t c : order) {
    Bin bin = bins.top();
    bins.pop();
    ownerBins[c] = bin.second;
    bin.first += cellLoads[c] + 1;  // +1: empty cells still spread out
    bins.push(bin);
  }
}

geom::GeometryBatch migrateShards(mpi::Comm& comm, std::vector<geom::GeometryBatch>&& outgoing,
                                  std::uint64_t maxBlobBytes, ShardTransportStats* stats) {
  const int p = comm.size();
  MVIO_CHECK(outgoing.size() == static_cast<std::size_t>(p),
             "migrateShards: need one outgoing batch per rank");
  MVIO_CHECK(outgoing[static_cast<std::size_t>(comm.rank())].empty(),
             "migrateShards: records staying on this rank must not enter the transport");
  const auto byteType = mpi::Datatype::byte();

  // Send side: split each destination's records into blobs of at most
  // maxBlobBytes encoded bytes (at least one record each), then the
  // summary frame. send() is buffered, so streaming all sends before any
  // receive cannot deadlock.
  std::string blob;
  for (int d = 0; d < p; ++d) {
    if (d == comm.rank()) continue;
    geom::GeometryBatch& batch = outgoing[static_cast<std::size_t>(d)];
    std::uint64_t payloadBytes = 0;
    const std::uint64_t blobs = geom::forEachShardRange(
        batch, maxBlobBytes, [&](std::size_t lo, std::size_t hi, std::uint64_t bytes) {
          blob.clear();
          blob.reserve(static_cast<std::size_t>(bytes));
          geom::encodeShard(batch, lo, hi, blob);
          comm.clock().advanceBy(static_cast<double>(blob.size()) / kCosts.bytesPerSecond +
                                 static_cast<double>(hi - lo) * kCosts.perGeometrySeconds);
          comm.send(blob.data(), static_cast<int>(blob.size()), byteType, d, kShardMigrationTag);
          payloadBytes += blob.size();
        });
    const std::string summary = encodeMigrationSummary(blobs, batch.size(), payloadBytes);
    comm.send(summary.data(), static_cast<int>(summary.size()), byteType, d, kShardMigrationTag);
    if (stats != nullptr) {
      stats->bytesSent += payloadBytes;
      stats->recordsSent += batch.size();
      stats->blobsSent += blobs;
    }
    batch = geom::GeometryBatch();  // release the shipped arenas
  }

  // Receive side: drain every peer's stream in rank order (mailboxes are
  // FIFO per source+tag, so blobs arrive before their summary). Appending
  // per source in ascending rank order makes the received record order a
  // function of the map alone, not of thread scheduling.
  geom::GeometryBatch received;
  std::string buf;
  for (int src = 0; src < p; ++src) {
    if (src == comm.rank()) continue;
    std::uint64_t blobs = 0;
    std::uint64_t records = 0;
    std::uint64_t payloadBytes = 0;
    while (true) {
      const mpi::Status st = comm.probe(src, kShardMigrationTag);
      buf.resize(st.bytes);
      comm.recv(buf.data(), static_cast<int>(buf.size()), byteType, src, kShardMigrationTag);
      MVIO_CHECK(buf.size() >= 4, "shard migration: runt message");
      if (readScalar<std::uint32_t>(buf.data()) == kSummaryMagic) {
        MVIO_CHECK(buf.size() == kSummaryBytes, "shard migration: truncated summary frame");
        MVIO_CHECK(fnv1a(buf.data(), kSummaryBytes - 8) ==
                       readScalar<std::uint64_t>(buf.data() + kSummaryBytes - 8),
                   "shard migration: corrupted summary frame (checksum mismatch)");
        MVIO_CHECK(readScalar<std::uint32_t>(buf.data() + 4) == kSummaryVersion,
                   "shard migration: unsupported summary version");
        MVIO_CHECK(readScalar<std::uint64_t>(buf.data() + 8) == blobs &&
                       readScalar<std::uint64_t>(buf.data() + 16) == records &&
                       readScalar<std::uint64_t>(buf.data() + 24) == payloadBytes,
                   "shard migration: stream does not match its summary frame");
        break;
      }
      // decodeShard validates both checksums before appending — a corrupt
      // or truncated wire blob throws without half-migrated records.
      const std::size_t decoded = geom::decodeShard(buf, received);
      records += decoded;
      payloadBytes += buf.size();
      ++blobs;
      comm.clock().advanceBy(static_cast<double>(buf.size()) / kCosts.bytesPerSecond +
                             static_cast<double>(decoded) * kCosts.perGeometrySeconds);
    }
    if (stats != nullptr) {
      stats->bytesReceived += payloadBytes;
      stats->recordsReceived += records;
      stats->blobsReceived += blobs;
    }
  }
  return received;
}

}  // namespace mvio::core
