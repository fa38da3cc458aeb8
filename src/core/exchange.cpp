#include "core/exchange.hpp"

#include <algorithm>
#include <queue>
#include <span>
#include <utility>

#include "geom/batch_shard.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mvio::core {

using util::fnv1a;
using util::putScalar;
using util::readScalar;

constexpr SerializationCostModel kCosts{};  ///< charged by the exchange and the migration

geom::GeometryBatch exchangeByCell(mpi::Comm& comm, geom::GeometryBatch&& outgoing,
                                   const CellOwnerFn& owner, int windowPhases, int totalCells,
                                   ExchangeStats* stats, bool lastRound, ExchangeScratch* scratch) {
  MVIO_CHECK(windowPhases >= 1, "need at least one exchange phase");
  MVIO_CHECK(totalCells >= 1, "need at least one cell");
  const int p = comm.size();
  const int phases = std::min(windowPhases, totalCells);

  geom::GeometryBatch mine;

  // Per-round working set: caller-provided scratch when multi-round
  // streaming wants to reuse the capacity, a local set otherwise. Every
  // entry is fully overwritten, so a resize is all the reuse path needs
  // (it keeps capacity).
  ExchangeScratch local;
  ExchangeScratch& sx = scratch != nullptr ? *scratch : local;
  for (auto* v : {&sx.sendCounts, &sx.sendDispls, &sx.recvCounts, &sx.recvDispls}) {
    v->resize(static_cast<std::size_t>(p));
  }
  sx.sendHeaders.resize(static_cast<std::size_t>(p));
  sx.recvHeaders.resize(static_cast<std::size_t>(p));

  // Classify records, with one owner lookup each. Self-owned ones are
  // listed in send order and copied straight from the outgoing arenas in
  // their source slot of each phase (no self-serialization round trip);
  // the rest stay in the outgoing arenas until the frame writer packs
  // them. Each is counted into its (window phase, destination) bucket:
  // cells split into `phases` contiguous id ranges.
  const int cellsPerPhase = (totalCells + phases - 1) / phases;
  const auto phaseOf = [&](int cell) { return std::min(cell / cellsPerPhase, phases - 1); };
  const std::size_t buckets = static_cast<std::size_t>(phases) * static_cast<std::size_t>(p);
  std::vector<std::uint32_t> sendIdx;
  std::vector<std::uint32_t> sendBucket;
  sx.bucketEnd.assign(buckets, 0);
  sx.self.clear();
  std::vector<geom::ShardCounts> selfCounts(static_cast<std::size_t>(phases));
  for (std::size_t i = 0; i < outgoing.size(); ++i) {
    const int cell = outgoing.cell(i);
    if (cell == geom::GeometryBatch::kNoCell) continue;  // projected to no cell
    MVIO_CHECK(cell >= 0 && cell < totalCells, "cell id out of grid range");
    const int dst = owner(cell);
    MVIO_CHECK(dst >= 0 && dst < p, "cell owner out of communicator range");
    const int phase = phaseOf(cell);
    if (dst == comm.rank()) {
      sx.self.push_back(static_cast<std::uint32_t>(i));
      geom::ShardCounts& c = selfCounts[static_cast<std::size_t>(phase)];
      c.records += 1;
      c.coords += outgoing.vertexCount(i);
      c.shapeTokens += outgoing.shapeTokenCount(i);
      c.userBytes += outgoing.userData(i).size();
      continue;
    }
    const auto bucket = static_cast<std::uint32_t>(phase * p + dst);
    sendIdx.push_back(static_cast<std::uint32_t>(i));
    sendBucket.push_back(bucket);
    ++sx.bucketEnd[bucket];
  }

  // Stable counting sort: each phase's records come out grouped by
  // destination, ascending, each destination's in send order. After the
  // scatter bucketEnd[b] is one past bucket b's last entry.
  std::size_t start = 0;
  for (std::size_t& end : sx.bucketEnd) start += std::exchange(end, start);
  sx.order.resize(sendIdx.size());
  sx.keys.resize(sendIdx.size());
  for (std::size_t k = 0; k < sendIdx.size(); ++k) {
    const std::size_t at = sx.bucketEnd[sendBucket[k]]++;
    sx.order[at] = sendIdx[k];
    sx.keys[at] = static_cast<int>(sendBucket[k] % static_cast<std::uint32_t>(p));
  }

  const auto headerType =
      mpi::Datatype::contiguous(static_cast<int>(sizeof(RoundHeader)), mpi::Datatype::byte());
  for (int phase = 0; phase < phases; ++phase) {
    // Every rank derives the flag from the same (windowPhases, lastRound)
    // pair, so senders and receivers agree on which phase ends the stream.
    const bool phaseLast = lastRound && phase == phases - 1;
    const std::size_t lo = phase == 0 ? 0 : sx.bucketEnd[static_cast<std::size_t>(phase * p) - 1];
    const std::size_t nRecords = sx.bucketEnd[static_cast<std::size_t>((phase + 1) * p) - 1] - lo;

    // Pack: one BatchShard frame per destination, written once into the
    // reused send buffer — the phase's single payload-byte copy.
    sx.sendBuf.clear();
    const std::vector<geom::ShardRun> frames =
        geom::encodeShardRuns(outgoing, std::span(sx.order).subspan(lo, nRecords),
                              std::span(sx.keys).subspan(lo, nRecords), sx.sendBuf);
    std::fill(sx.sendHeaders.begin(), sx.sendHeaders.end(), RoundHeader{});
    for (const geom::ShardRun& f : frames) {
      RoundHeader& h = sx.sendHeaders[static_cast<std::size_t>(f.key)];
      h.payloadBytes = f.counts.encodedBytes();
      h.records = static_cast<std::uint32_t>(f.counts.records);
    }
    std::size_t sendTotal = 0;
    for (int d = 0; d < p; ++d) {
      RoundHeader& h = sx.sendHeaders[static_cast<std::size_t>(d)];
      if (phaseLast) h.flags |= kRoundLast;
      MVIO_CHECK(h.payloadBytes <= static_cast<std::uint64_t>(INT32_MAX),
                 "per-destination buffer exceeds 2 GB");
      sx.sendCounts[static_cast<std::size_t>(d)] = static_cast<int>(h.payloadBytes);
      sx.sendDispls[static_cast<std::size_t>(d)] = static_cast<int>(sendTotal);
      sendTotal += static_cast<std::size_t>(h.payloadBytes);
    }
    MVIO_CHECK(sendTotal <= static_cast<std::size_t>(INT32_MAX),
               "phase send buffer exceeds 2 GB (displacements are 32-bit); increase windowPhases");
    comm.clock().advanceBy(static_cast<double>(sendTotal) / kCosts.bytesPerSecond +
                           static_cast<double>(nRecords) * kCosts.perGeometrySeconds);

    // Round 1: exchange round headers (MPI_Alltoall), so receivers can
    // size their buffers, anticipate record counts, and verify that all
    // senders share this rank's view of stream termination.
    comm.alltoall(sx.sendHeaders.data(), 1, headerType, sx.recvHeaders.data());
    std::size_t recvTotal = 0;
    for (int d = 0; d < p; ++d) {
      const RoundHeader& h = sx.recvHeaders[static_cast<std::size_t>(d)];
      MVIO_CHECK(((h.flags & kRoundLast) != 0) == phaseLast,
                 "exchange round termination mismatch: a rank ended its stream while another "
                 "keeps sending (streaming rounds are misaligned)");
      MVIO_CHECK(h.payloadBytes <= static_cast<std::uint64_t>(INT32_MAX),
                 "received per-source buffer exceeds 2 GB");
      sx.recvCounts[static_cast<std::size_t>(d)] = static_cast<int>(h.payloadBytes);
      sx.recvDispls[static_cast<std::size_t>(d)] = static_cast<int>(recvTotal);
      recvTotal += static_cast<std::size_t>(h.payloadBytes);
    }
    MVIO_CHECK(recvTotal <= static_cast<std::size_t>(INT32_MAX),
               "phase receive buffer exceeds 2 GB (displacements are 32-bit); increase windowPhases");

    // Round 2: payload (MPI_Alltoallv over MPI_CHAR buffers).
    sx.recvBuf.resize(recvTotal);
    comm.alltoallv(sx.sendBuf.data(), sx.sendCounts.data(), sx.sendDispls.data(), sx.recvBuf.data(),
                   sx.recvCounts.data(), sx.recvDispls.data(), mpi::Datatype::char_());

    // Decode the frames in ascending source order. The round header's
    // record count sizes nothing: `mine` is reserved from the phase's
    // self-owned records and the counts each frame's own bytes back, and
    // the header count must match them.
    auto frameOf = [&](std::size_t d) {
      return std::string_view(sx.recvBuf.data() + sx.recvDispls[d],
                              static_cast<std::size_t>(sx.recvCounts[d]));
    };
    const geom::ShardCounts& self = selfCounts[static_cast<std::size_t>(phase)];
    geom::ShardCounts incoming = self;
    for (std::size_t d = 0; d < static_cast<std::size_t>(p); ++d) {
      geom::ShardCounts c;
      if (sx.recvCounts[d] != 0) c = geom::shardCounts(frameOf(d));
      MVIO_CHECK(c.records == sx.recvHeaders[d].records,
                 "round header record count does not match the received frame");
      incoming.records += c.records;
      incoming.coords += c.coords;
      incoming.shapeTokens += c.shapeTokens;
      incoming.userBytes += c.userBytes;
    }
    const std::size_t before = mine.size();
    mine.reserve(incoming.records, incoming.coords, incoming.shapeTokens, incoming.userBytes);
    for (std::size_t d = 0; d < static_cast<std::size_t>(p); ++d) {
      if (d != static_cast<std::size_t>(comm.rank())) {
        if (sx.recvCounts[d] != 0) geom::decodeShard(frameOf(d), mine);
        continue;
      }
      for (const std::uint32_t i : sx.self) {
        const int cell = outgoing.cell(i);
        if (phaseOf(cell) == phase) mine.appendRecordFrom(outgoing, i, cell);
      }
    }
    const std::size_t received = mine.size() - before - self.records;
    comm.clock().advanceBy(static_cast<double>(recvTotal) / kCosts.bytesPerSecond +
                           static_cast<double>(received) * kCosts.perGeometrySeconds);

    if (stats != nullptr) {
      stats->bytesSent += sendTotal;
      stats->bytesReceived += recvTotal;
      stats->geometriesSent += nRecords;
      stats->geometriesReceived += received;
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
