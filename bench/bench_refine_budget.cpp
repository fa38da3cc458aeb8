// Refine-budget sweep + skew rebalancing (DESIGN.md §8).
//
// Part 1 — cell-major refine under a shrinking memory budget: single-layer
// indexing of a clustered road network through the chunked pipeline, with
// StreamConfig::memoryBudget swept from unlimited down to a fraction of
// the per-rank owned set. Expectation: match counts are identical on
// every row, the measured peak refine bytes track the budget (resident
// tail + one cell), and the refine-reload column tracks the bytes the
// owned stores spilled — each spilled byte is read back exactly once,
// so reloads stay flat once the owned set outgrows the budget instead
// of growing as it shrinks. The harness aborts if any rank's refine
// reloads exceed its spilled bytes.
//
// Part 2 — skew-aware owned-cell rebalancing: the same dataset's spatial
// cluster makes round-robin cell ownership load a couple of ranks with
// most of the records. With FrameworkConfig::rebalanceCells the LPT pass
// reassigns heavy cells and ships them as shard blobs; the table prints
// max/mean rank load before and after plus the migration wire volume.
// Expectation: identical matches, max-rank load drops toward the mean.

#include "common.hpp"
#include "util/error.hpp"

int main() {
  using namespace mvio;
  constexpr int kProcs = 16;
  constexpr std::uint64_t kChunk = 64 << 10;

  osm::SynthSpec roads = osm::datasetSpec(osm::DatasetId::kRoadNetwork, 9);
  roads.space.world = geom::Envelope(0, 0, 100, 100);
  roads.space.clusters = 3;
  roads.space.clusterStddev = 4;  // tight clusters: strong cell skew

  auto volume = bench::cometVolume(kProcs / 4, 1.0);
  volume->createOrReplace("roads.wkt",
                          std::make_shared<pfs::MemoryBackingStore>(
                              osm::generateWktText(osm::RecordGenerator(roads), 30000)));

  core::WktParser parser;
  const geom::Envelope probe(20, 20, 60, 60);

  // ---- Part 1: refine-budget sweep --------------------------------------
  bench::printHeader(
      "Refine-budget sweep — cell-major streamed refine (road network, 16 procs)",
      "identical matches at every budget; peak refine bytes track the budget, reload = spilled",
      "synthetic clustered road network (30000 lines), 64 KiB chunks, COMET Lustre model");

  struct Config {
    const char* label;
    std::uint64_t chunkBytes;
    std::uint64_t budget;
  };
  const Config configs[] = {
      {"one-shot", 0, 0},
      {"unbounded", kChunk, 0},
      {"1 MiB", kChunk, 1 << 20},
      {"256 KiB", kChunk, 256 << 10},
      {"64 KiB", kChunk, 64 << 10},
  };

  std::vector<std::string> columns = {"budget", "matches", "peak refine"};
  for (const auto& c : bench::streamPhaseColumns()) columns.push_back(c);
  util::TextTable table(columns);

  for (const Config& cfg : configs) {
    bench::resetModel(*volume);
    core::PhaseBreakdown maxPhases;
    std::atomic<std::uint64_t> peakRefine{0};
    std::atomic<std::uint64_t> matches{0};
    mpi::Runtime::run(kProcs, sim::MachineModel::comet(kProcs / 4), [&](mpi::Comm& comm) {
      core::IndexingConfig icfg;
      icfg.framework.gridCells = 256;
      icfg.framework.stream.chunkBytes = cfg.chunkBytes;
      icfg.framework.stream.memoryBudget = cfg.budget;
      core::DatasetHandle data{"roads.wkt", &parser, {}};
      core::IndexingStats stats;
      const auto index = core::buildDistributedIndex(comm, *volume, data, icfg, &stats);
      // Read-once spill: the refine never reloads more than was spilled.
      MVIO_CHECK(stats.phases.refineSpillBytes <= stats.spill.bytesWritten,
                 std::string("refine reloaded ") + std::to_string(stats.phases.refineSpillBytes) +
                     " bytes but only " + std::to_string(stats.spill.bytesWritten) +
                     " were spilled (budget " + cfg.label + ")");
      const auto reduced = stats.phases.maxAcross(comm);
      std::uint64_t peak = stats.refinePeakBytes, peakMax = 0;
      comm.allreduce(&peak, &peakMax, 1, mpi::Datatype::uint64(), mpi::Op::max());
      matches += index.queryCount(probe);
      if (comm.rank() == 0) {
        maxPhases = reduced;
        peakRefine = peakMax;
      }
    });

    std::vector<std::string> row = {cfg.label, std::to_string(matches.load()),
                                    util::formatBytes(peakRefine.load())};
    for (const auto& cell : bench::streamPhaseRow(maxPhases)) row.push_back(cell);
    table.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("note: matches must be identical on every row; peak refine should track the\n"
              "budget, while reload equals the owned stores' spilled bytes (read once) and\n"
              "stays flat once the owned set outgrows the budget.\n\n");

  // ---- Part 2: skew-aware rebalancing ------------------------------------
  bench::printHeader(
      "Owned-cell rebalancing — LPT reassignment + shard migration (same dataset)",
      "identical matches; max-rank owned records drop toward the mean",
      "round-robin ownership vs lptAssignCells + migrateShards, 16 procs");

  util::TextTable balanceTable({"ownership", "matches", "max before", "max after", "mean", "moved",
                                "migr bytes", "migr blobs", "migrate t"});
  for (const bool rebalance : {false, true}) {
    bench::resetModel(*volume);
    std::atomic<std::uint64_t> matches{0};
    std::atomic<std::uint64_t> maxBefore{0}, maxAfter{0}, total{0}, moved{0};
    std::atomic<std::uint64_t> migrBytes{0}, migrBlobs{0};
    core::PhaseBreakdown maxPhases;
    mpi::Runtime::run(kProcs, sim::MachineModel::comet(kProcs / 4), [&](mpi::Comm& comm) {
      core::IndexingConfig icfg;
      icfg.framework.gridCells = 256;
      icfg.framework.rebalanceCells = rebalance;
      core::DatasetHandle data{"roads.wkt", &parser, {}};
      core::IndexingStats stats;
      const auto index = core::buildDistributedIndex(comm, *volume, data, icfg, &stats);
      const auto reduced = stats.phases.maxAcross(comm);
      // Without rebalancing the framework skips the load census, so
      // derive this rank's owned count from the index itself.
      const std::uint64_t owned = index.localGeometries();
      const std::uint64_t before = rebalance ? stats.balance.ownedRecordsBefore : owned;
      const std::uint64_t after = rebalance ? stats.balance.ownedRecordsAfter : owned;
      std::uint64_t redMaxB = 0, redMaxA = 0, redSum = 0;
      comm.allreduce(&before, &redMaxB, 1, mpi::Datatype::uint64(), mpi::Op::max());
      comm.allreduce(&after, &redMaxA, 1, mpi::Datatype::uint64(), mpi::Op::max());
      redSum = comm.allreduceSumU64(after);
      matches += index.queryCount(probe);
      if (comm.rank() == 0) {
        maxBefore = redMaxB;
        maxAfter = redMaxA;
        total = redSum;
        moved = stats.balance.cellsMoved;
        maxPhases = reduced;
      }
      migrBytes += stats.balance.transport.bytesSent;
      migrBlobs += stats.balance.transport.blobsSent;
    });
    balanceTable.addRow({rebalance ? "LPT rebalanced" : "round-robin",
                         std::to_string(matches.load()), std::to_string(maxBefore.load()),
                         std::to_string(maxAfter.load()),
                         std::to_string(total.load() / static_cast<std::uint64_t>(kProcs)),
                         std::to_string(moved.load()), util::formatBytes(migrBytes.load()),
                         std::to_string(migrBlobs.load()),
                         util::formatSeconds(maxPhases.migrate)});
  }
  std::printf("%s\n", balanceTable.str().c_str());
  std::printf("note: matches must be identical across rows; 'max after' should sit close to the\n"
              "mean on the rebalanced row while round-robin stays skewed.\n");
  return 0;
}
