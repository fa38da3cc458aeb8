// Framework-level integration tests: the full filter-and-refine pipeline
// over virtual (generated) files, CSV point layers, sliding-window
// exchange inside the framework, and Level-1 reads feeding the pipeline —
// cross-module paths the per-module tests don't reach.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "core/spatial_join.hpp"
#include "geom/wkt.hpp"
#include "osm/datasets.hpp"
#include "pfs/gpfs.hpp"
#include "pfs/lustre.hpp"
#include "util/rng.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;

namespace {

/// Counts records per cell; the simplest RefineTask.
struct CountTask final : mc::RefineTask {
  std::atomic<std::uint64_t> r{0}, s{0};
  void refineCellBatch(const mc::GridSpec&, int, const mg::BatchSpan& rS,
                       const mg::BatchSpan& sS) override {
    r += rS.size();
    s += sS.size();
  }
};

}  // namespace

TEST(Framework, SingleLayerOverVirtualFile) {
  // End-to-end over an O(1)-memory generated file: counts must equal the
  // parseable records of the virtual file regardless of rank count.
  mp::LustreParams params;
  params.nodes = 8;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
  mo::RecordGenerator gen(mo::datasetSpec(mo::DatasetId::kCemetery, 3));
  auto pool = std::make_shared<const mo::RecordPool>(gen, 64);
  auto store = mo::makeVirtualWktFile(pool, 1 << 20, 1 << 16, 9, 8);
  vol->create("virt.wkt", store, {1 << 14, 8});

  // Reference count: parse the whole virtual file sequentially.
  std::string text(store->size(), '\0');
  store->read(0, text.data(), text.size());
  mc::WktParser parser;
  std::uint64_t expected = 0;
  std::uint64_t expectedReplicas = 0;
  std::vector<mg::Geometry> all;
  parser.parseAll(text, [&](mg::Geometry&& g) {
    ++expected;
    all.push_back(std::move(g));
  });

  for (int nprocs : {1, 4, 7}) {
    CountTask task;
    std::atomic<std::uint64_t> cells{0};
    mc::GridSpec gridOut;
    std::mutex mu;
    mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::FrameworkConfig cfg;
      cfg.gridCells = 25;
      mc::DatasetHandle data{"virt.wkt", &parser, {}};
      data.partition.maxGeometryBytes = 64 << 10;
      const auto stats = mc::runFilterRefine(comm, *vol, data, nullptr, cfg, task);
      cells += stats.cellsOwned;
      std::lock_guard<std::mutex> lock(mu);
      gridOut = stats.grid;
    });
    // With replication the framework count >= parse count; compute the
    // exact expected replica count from the final grid.
    if (expectedReplicas == 0) {
      std::vector<int> touched;
      for (const auto& g : all) {
        touched.clear();
        gridOut.overlappingCells(g.envelope(), touched);
        expectedReplicas += touched.size();
      }
    }
    EXPECT_EQ(task.r.load(), expectedReplicas) << "nprocs=" << nprocs;
    EXPECT_GE(task.r.load(), expected);
    EXPECT_EQ(task.s.load(), 0u);
    EXPECT_GT(cells.load(), 0u);
  }
}

TEST(Framework, DefaultPartitionParsesOnEveryRank) {
  // The default PartitionConfig splits a file far below nprocs x 11 MiB
  // equally, so every rank parses records and none are lost or repeated.
  mp::LustreParams params;
  params.nodes = 4;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kCemetery, 31);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  const std::string text = mo::generateWktText(mo::RecordGenerator(spec), 600);
  ASSERT_GT(text.size(), 80'000u);
  vol->create("a.wkt", std::make_shared<mp::MemoryBackingStore>(text));

  mc::WktParser parser;
  std::uint64_t expected = 0;
  parser.parseAll(text, [&](mg::Geometry&&) { ++expected; });

  constexpr int kProcs = 4;
  std::array<std::uint64_t, kProcs> parsed{};
  CountTask task;
  mm::Runtime::run(kProcs, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
    mc::FrameworkConfig cfg;
    cfg.gridCells = 16;
    mc::DatasetHandle data{"a.wkt", &parser, {}};
    const auto stats = mc::runFilterRefine(comm, *vol, data, nullptr, cfg, task);
    parsed[static_cast<std::size_t>(comm.rank())] = stats.parseR.records;
  });
  std::uint64_t total = 0;
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_GT(parsed[static_cast<std::size_t>(r)], 0u) << "rank " << r;
    total += parsed[static_cast<std::size_t>(r)];
  }
  EXPECT_EQ(total, expected);
}

TEST(Framework, CsvPointLayer) {
  // CSV taxi-style points flow through the identical pipeline.
  mp::LustreParams params;
  params.nodes = 4;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
  mvio::util::Rng rng(11);
  std::string csv;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    csv += std::to_string(rng.uniform(0, 10)) + "," + std::to_string(rng.uniform(0, 10)) + ",trip" +
           std::to_string(i) + "\n";
  }
  vol->create("points.csv", std::make_shared<mp::MemoryBackingStore>(csv));

  mc::CsvPointParser parser;
  CountTask task;
  mm::Runtime::run(3, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
    mc::FrameworkConfig cfg;
    cfg.gridCells = 16;
    mc::DatasetHandle data{"points.csv", &parser, {}};
    (void)mc::runFilterRefine(comm, *vol, data, nullptr, cfg, task);
  });
  // Points never replicate: a point's MBR projects to exactly one cell,
  // the one cellOfPoint names, even on a shared cell edge.
  EXPECT_EQ(task.r.load(), static_cast<std::uint64_t>(n));
}

TEST(Framework, WindowPhasesDoNotChangeResults) {
  mp::LustreParams params;
  params.nodes = 4;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kRoads, 23);
  spec.space.world = mg::Envelope(0, 0, 30, 30);
  vol->create("a.wkt", std::make_shared<mp::MemoryBackingStore>(
                           mo::generateWktText(mo::RecordGenerator(spec), 300)));

  mc::WktParser parser;
  std::array<std::uint64_t, 3> counts{};
  int idx = 0;
  for (int phases : {1, 3, 9}) {
    CountTask task;
    mm::Runtime::run(5, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
      mc::FrameworkConfig cfg;
      cfg.gridCells = 49;
      cfg.windowPhases = phases;
      mc::DatasetHandle data{"a.wkt", &parser, {}};
      (void)mc::runFilterRefine(comm, *vol, data, nullptr, cfg, task);
    });
    counts[static_cast<std::size_t>(idx++)] = task.r.load();
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[1], counts[2]);
}

TEST(Framework, Level1ReadsFeedThePipeline) {
  mp::GpfsParams gpfs;
  gpfs.nodes = 2;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::GpfsModel>(gpfs));
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kLakes, 29);
  spec.space.world = mg::Envelope(0, 0, 10, 10);
  const std::string text = mo::generateWktText(mo::RecordGenerator(spec), 200);
  vol->create("a.wkt", std::make_shared<mp::MemoryBackingStore>(text));

  mc::WktParser parser;
  std::uint64_t expected = 0;
  parser.parseAll(text, [&](mg::Geometry&&) { ++expected; });

  CountTask task;
  std::atomic<int> sawPhases{0};
  mm::Runtime::run(6, mvio::sim::MachineModel::roger(2), [&](mm::Comm& comm) {
    mc::FrameworkConfig cfg;
    cfg.gridCells = 1;  // single cell: no replication, exact count
    mc::DatasetHandle data{"a.wkt", &parser, {}};
    data.partition.collectiveRead = true;  // Level 1
    const auto stats = mc::runFilterRefine(comm, *vol, data, nullptr, cfg, task);
    const auto ph = stats.phases.maxAcross(comm);
    if (comm.rank() == 0 && ph.read > 0 && ph.comm > 0) sawPhases = 1;
  });
  EXPECT_EQ(task.r.load(), expected);
  EXPECT_EQ(sawPhases.load(), 1);
}
