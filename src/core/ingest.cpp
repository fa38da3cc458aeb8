#include <algorithm>
#include <optional>

#include "core/stages.hpp"
#include "io/file.hpp"
#include "util/error.hpp"

namespace mvio::core {

namespace {

/// Pilot pass for adaptive partitioning (DESIGN.md §13): a deterministic
/// stride sample of every parsed record's envelope, shared across chunks
/// and layers so the rate holds over the whole ingest.
struct PilotSampler {
  std::uint64_t stride = 100;
  std::uint64_t seen = 0;
  std::vector<geom::Envelope> envelopes;

  explicit PilotSampler(const PartitionerConfig& cfg) {
    const double rate = std::clamp(cfg.sampleRate, 1e-6, 1.0);
    stride = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(1.0 / rate));
  }

  void observe(const geom::GeometryBatch& chunk) {
    for (std::size_t i = 0; i < chunk.size(); ++i, ++seen) {
      if (seen % stride != 0 || envelopes.size() >= kMaxPilotSamplesPerRank) continue;
      envelopes.push_back(chunk.envelope(i));
    }
  }
};

/// Phases 1+2 for one layer, chunk by chunk: partitioned read then parse
/// straight into a per-chunk batch (no per-record Geometry objects),
/// staged for the exchange rounds. Accumulates the layer's local MBR for
/// grid construction along the way. With checkpointing enabled every
/// chunk's input-file extents and checksum go to the extent log — the
/// replay source recovery re-reads and re-parses lost rounds from.
///
/// With a worker pool (threadsPerRank > 1) the chunk text is parsed in
/// parallel record-boundary slices and the clock is charged the critical
/// path — max worker CPU plus the serial splice — instead of the summed
/// CPU. With `deferPrep` set (round overlap) the parse charge is not
/// applied here at all: it rides in the chunk's stager slot to the round
/// loop's pipeline recurrence, where it can hide under exchanges.
void ingestLayer(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& ds, BatchStager& stage,
                 geom::Envelope& localBounds, ParseStats& parseStats, PartitionResult& ioStats,
                 PhaseBreakdown& phases, recovery::CheckpointCoordinator& ckpt, int layer,
                 util::ThreadPool* pool, std::uint64_t chunkBytes, bool deferPrep,
                 PilotSampler* pilot) {
  const FormatReader* fmt = &ds.reader();
  io::File file = io::File::open(comm, volume, ds.path);
  PartitionReader reader(comm, file, ds.partition, chunkBytes, fmt);

  std::string text;
  while (true) {
    const double t0 = comm.clock().now();
    const bool more = reader.next(text);
    phases.read += comm.clock().now() - t0;
    if (!more) break;
    const double readDoneAt = comm.clock().now();
    obs::traceSpanAt("read", t0, readDoneAt);

    geom::GeometryBatch chunk;
    ParseTiming pt;
    const ParseStats ps = fmt->parseChunk(text, chunk, pool, &pt);
    if (pool != nullptr) {
      phases.workerCpu += pt.cpuSum;
      phases.workerCritical += pt.critical;
    }
    parseStats.records += ps.records;
    parseStats.badRecords += ps.badRecords;
    parseStats.bytes += ps.bytes;
    ChunkPrep prep;
    if (deferPrep) {
      prep = {readDoneAt, pt.critical};
    } else {
      const double p0 = comm.clock().now();
      comm.clock().advanceBy(pt.critical);
      obs::traceSpanAt("parse", p0, comm.clock().now());
      phases.parse += pt.critical;
    }
    localBounds.expandToInclude(chunk.bounds());
    if (pilot != nullptr) pilot->observe(chunk);
    ckpt.logChunk(layer, reader.extents(), text);
    stage.push(std::move(chunk), prep);
  }
  ioStats = reader.counters();
}

}  // namespace

IngestResult runIngest(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& r,
                       const DatasetHandle* s, const FrameworkConfig& cfg, util::ThreadPool* pool,
                       const std::array<std::uint64_t, 2>& chunk, bool deferPrep,
                       recovery::CheckpointCoordinator& ckpt, BatchStager& stageR,
                       BatchStager& stageS, FrameworkStats& stats) {
  IngestResult out;
  // Adaptive partitioning piggybacks a pilot sample on the ingest scan —
  // no extra read pass (DESIGN.md §13).
  std::optional<PilotSampler> pilot;
  if (cfg.partition.scheme != PartitionScheme::kUniform) pilot.emplace(cfg.partition);
  ingestLayer(comm, volume, r, stageR, out.localBounds, stats.parseR, stats.ioR, stats.phases,
              ckpt, 0, pool, chunk[0], deferPrep, pilot ? &*pilot : nullptr);
  if (s != nullptr) {
    ingestLayer(comm, volume, *s, stageS, out.localBounds, stats.parseS, stats.ioS,
                stats.phases, ckpt, 1, pool, chunk[1], deferPrep, pilot ? &*pilot : nullptr);
  }
  ckpt.sealIngest();
  if (pilot) out.pilot = std::move(pilot->envelopes);
  return out;
}

void runPlanPartition(mpi::Comm& comm, const FrameworkConfig& cfg, const IngestResult& ingest,
                      FrameworkStats& stats) {
  const int p = comm.size();
  // 3: global grid via MPI_UNION of local MBRs (both layers). Chunked
  // parsing folded every chunk's bounds into localBounds, so the union is
  // identical to a whole-batch scan.
  stats.grid = buildGlobalGrid(comm, ingest.localBounds, cfg.gridCells);
  const GridSpec& grid = stats.grid;

  // 3b: partition map (DESIGN.md §13). Pilot samples are shared — counts
  // allgathered, envelopes gathered to rank 0 in rank order and broadcast
  // back — so every rank sees the identical sample sequence and builds
  // the identical map and plan with no further agreement round.
  stats.partition = PartitionMap::uniform(grid);
  if (cfg.partition.scheme != PartitionScheme::kUniform) {
    const std::uint64_t mine = ingest.pilot.size();
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(p), 0);
    comm.allgather(&mine, 1, mpi::Datatype::uint64(), counts.data());
    std::uint64_t totalSamples = 0;
    std::vector<int> recvCounts(static_cast<std::size_t>(p), 0);
    std::vector<int> displs(static_cast<std::size_t>(p), 0);
    for (int rk = 0; rk < p; ++rk) {
      displs[static_cast<std::size_t>(rk)] = static_cast<int>(totalSamples * 4);
      recvCounts[static_cast<std::size_t>(rk)] = static_cast<int>(counts[static_cast<std::size_t>(rk)] * 4);
      totalSamples += counts[static_cast<std::size_t>(rk)];
    }
    std::vector<double> flat(static_cast<std::size_t>(mine) * 4);
    for (std::size_t i = 0; i < ingest.pilot.size(); ++i) {
      const geom::Envelope& e = ingest.pilot[i];
      flat[i * 4 + 0] = e.minX();
      flat[i * 4 + 1] = e.minY();
      flat[i * 4 + 2] = e.maxX();
      flat[i * 4 + 3] = e.maxY();
    }
    std::vector<double> all(static_cast<std::size_t>(totalSamples) * 4);
    comm.gatherv(flat.data(), static_cast<int>(flat.size()), mpi::Datatype::float64(), all.data(),
                 recvCounts.data(), displs.data(), 0);
    comm.bcast(all.data(), static_cast<int>(all.size()), mpi::Datatype::float64(), 0);
    std::vector<geom::Envelope> samples;
    samples.reserve(static_cast<std::size_t>(totalSamples));
    for (std::size_t i = 0; i < static_cast<std::size_t>(totalSamples); ++i) {
      const geom::Envelope e(all[i * 4 + 0], all[i * 4 + 1], all[i * 4 + 2], all[i * 4 + 3]);
      if (!e.isNull()) samples.push_back(e);
    }
    stats.partition = buildPartitionMap(cfg.partition, grid, samples, p);
    // Plan with the measured run size: parsed records scale the sampled
    // loads; parsed bytes per record price the predicted migration.
    std::uint64_t localSize[2] = {stats.parseR.records + stats.parseS.records,
                                  stats.parseR.bytes + stats.parseS.bytes};
    std::uint64_t runSize[2] = {0, 0};
    comm.allreduce(localSize, runSize, 2, mpi::Datatype::uint64(), mpi::Op::sum());
    const double bytesPerRecord =
        runSize[0] == 0 ? 256.0 : static_cast<double>(runSize[1]) / static_cast<double>(runSize[0]);
    stats.plan = planPartition(stats.partition, samples, p, runSize[0], bytesPerRecord);
  }
  stats.cellOwner = roundRobinOwners(static_cast<std::size_t>(stats.partition.cellCount()), p);
}

}  // namespace mvio::core
