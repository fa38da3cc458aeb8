// Distributed indexing (Figure 20's workload) and batch range query
// tests, validated against brute-force references.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <mutex>
#include <string>

#include "core/indexing.hpp"
#include "core/range_query.hpp"
#include "geom/wkt.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "util/rng.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;

namespace {

struct Fixture {
  std::shared_ptr<mp::Volume> volume;
  std::vector<mg::Geometry> reference;
  mc::WktParser parser;

  explicit Fixture(std::uint64_t seed, std::uint64_t count, mo::DatasetId id = mo::DatasetId::kRoadNetwork) {
    mp::LustreParams params;
    params.nodes = 8;
    volume = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
    mo::SynthSpec spec = mo::datasetSpec(id, seed);
    spec.space.world = mg::Envelope(0, 0, 20, 20);
    spec.space.clusters = 5;
    spec.space.clusterStddev = 3.0;
    const mo::RecordGenerator gen(spec);
    const std::string text = mo::generateWktText(gen, count);
    volume->create("data.wkt", std::make_shared<mp::MemoryBackingStore>(text));
    parser.parseAll(text, [&](mg::Geometry&& g) { reference.push_back(std::move(g)); });
  }

  [[nodiscard]] std::uint64_t bruteForceCount(const mg::Envelope& q) const {
    const auto qg = mg::Geometry::box(q);
    std::uint64_t n = 0;
    for (const auto& g : reference) {
      if (g.envelope().intersects(q) && mg::intersects(qg, g)) ++n;
    }
    return n;
  }
};

}  // namespace

TEST(DistributedIndex, GlobalQueryCountsMatchBruteForce) {
  Fixture fx(3, 150);
  const std::vector<mg::Envelope> queries = {
      {2, 2, 6, 6}, {0, 0, 20, 20}, {10, 10, 10.5, 10.5}, {19, 19, 25, 25}, {-5, -5, -1, -1}};

  for (int nprocs : {1, 3, 5}) {
    std::vector<std::uint64_t> counts(queries.size(), 0);
    std::mutex mu;
    mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::IndexingConfig cfg;
      cfg.framework.gridCells = 49;
      mc::DatasetHandle data{"data.wkt", &fx.parser, {}};
      mc::IndexingStats stats;
      const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg, &stats);
      EXPECT_GT(stats.globalGeometries, 0u);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const std::uint64_t local = index.queryCount(queries[q]);
        std::lock_guard<std::mutex> lock(mu);
        counts[q] += local;
      }
    });
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(counts[q], fx.bruteForceCount(queries[q]))
          << "nprocs=" << nprocs << " query=" << q;
    }
  }
}

TEST(DistributedIndex, FullCoverageQueryFindsEverything) {
  Fixture fx(5, 100);
  std::atomic<std::uint64_t> total{0};
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::IndexingConfig cfg;
    cfg.framework.gridCells = 25;
    mc::DatasetHandle data{"data.wkt", &fx.parser, {}};
    const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg);
    total += index.queryCount(mg::Envelope(-100, -100, 100, 100));
  });
  EXPECT_EQ(total.load(), fx.reference.size());
}

TEST(DistributedIndex, PhaseBreakdownPopulated) {
  Fixture fx(6, 200);
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::IndexingConfig cfg;
    cfg.framework.gridCells = 64;
    mc::DatasetHandle data{"data.wkt", &fx.parser, {}};
    mc::IndexingStats stats;
    (void)mc::buildDistributedIndex(comm, *fx.volume, data, cfg, &stats);
    const auto maxPhases = stats.phases.maxAcross(comm);
    EXPECT_GT(maxPhases.read, 0.0);
    EXPECT_GT(maxPhases.parse, 0.0);
    EXPECT_GT(maxPhases.comm, 0.0);
    EXPECT_GT(maxPhases.compute, 0.0);
  });
}

TEST(BatchRangeQuery, CountsMatchBruteForce) {
  Fixture fx(8, 160, mo::DatasetId::kLakes);
  std::vector<mg::Envelope> queries;
  mvio::util::Rng rng(21);
  for (int i = 0; i < 12; ++i) {
    const double x = rng.uniform(0, 18), y = rng.uniform(0, 18);
    queries.emplace_back(x, y, x + rng.uniform(0.5, 5), y + rng.uniform(0.5, 5));
  }
  // Off-lattice boxes whose edges sit within a hair (< 1e-6) of a record's
  // MBR corner: half touch the record, half stop just short of it.
  for (int i = 0; i < 12; ++i) {
    const mg::Envelope e = fx.reference[rng.below(fx.reference.size())].envelope();
    const double eps = rng.uniform(1e-9, 5e-7);
    if (i % 2 == 0) {
      queries.emplace_back(e.maxX() - eps, e.maxY() - eps, e.maxX() + eps, e.maxY() + eps);
    } else {
      queries.emplace_back(e.maxX() + eps, e.minY(), e.maxX() + 2 * eps, e.maxY());
    }
  }

  struct Case {
    int nprocs;
    mc::PartitionScheme scheme;
    bool killDuringBuild;
  };
  std::vector<Case> cases;
  for (int nprocs = 1; nprocs <= 5; ++nprocs) {
    for (const auto scheme :
         {mc::PartitionScheme::kUniform, mc::PartitionScheme::kQuadtree, mc::PartitionScheme::kHilbert}) {
      cases.push_back({nprocs, scheme, false});
    }
  }
  // Streamed, checkpointed, rank 2 killed after data round 3 of the build.
  cases.push_back({4, mc::PartitionScheme::kQuadtree, true});

  for (const Case& c : cases) {
    const std::string label = "nprocs=" + std::to_string(c.nprocs) + " scheme=" +
                              mc::partitionSchemeName(c.scheme) + (c.killDuringBuild ? " killed" : "");
    std::vector<std::uint64_t> fromPipeline;
    std::atomic<int> died{0};
    std::mutex mu;
    mm::Runtime::run(c.nprocs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::RangeQueryConfig cfg;
      cfg.framework.gridCells = 36;
      cfg.framework.partition.scheme = c.scheme;
      cfg.framework.partition.sampleRate = 1.0;
      cfg.framework.partition.targetCells = 12;
      if (c.killDuringBuild) {
        cfg.framework.stream.chunkBytes = 4 << 10;
        cfg.framework.stream.memoryBudget = 32 << 10;
        cfg.framework.stream.checkpointEveryRounds = 2;
        cfg.framework.stream.checkpointDir = "__rq_ck_kill";
        cfg.framework.failSchedule = {{2, 3, 0}};
      }
      mc::DatasetHandle data{"data.wkt", &fx.parser, {}};
      mc::RangeQueryStats stats;
      const auto counts = mc::batchRangeQuery(comm, *fx.volume, data, queries, cfg, &stats);
      if (stats.recovery.died) {
        ++died;
        EXPECT_EQ(counts, std::vector<std::uint64_t>(queries.size(), 0)) << label;
      } else if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        fromPipeline = counts;
      }
    });
    EXPECT_EQ(died.load(), c.killDuringBuild ? 1 : 0) << label;
    ASSERT_EQ(fromPipeline.size(), queries.size()) << label;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(fromPipeline[q], fx.bruteForceCount(queries[q])) << label << " q=" << q;
    }
  }
}

TEST(BatchRangeQuery, BoxEdgesFinerThanMicrodegreeMatchIndex) {
  // Both box edges lie within 1e-6 of the record's x: a query path that
  // rounds its boxes to six decimals collapses the box onto 0.123457 and
  // misses the point.
  auto volume = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(mp::LustreParams{}));
  volume->create("pts.wkt", std::make_shared<mp::MemoryBackingStore>(
                                "POINT (0 0)\nPOINT (0.12345675 0.5)\nPOINT (1 1)\n"));
  const std::vector<mg::Envelope> queries = {{0.12345674, 0.4, 0.12345676, 0.6}};
  mc::WktParser parser;

  for (int nprocs : {1, 2}) {
    std::atomic<std::uint64_t> indexCount{0};
    std::vector<std::uint64_t> batchCounts;
    std::mutex mu;
    mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(1), [&](mm::Comm& comm) {
      mc::DatasetHandle data{"pts.wkt", &parser, {}};
      mc::IndexingConfig icfg;
      icfg.framework.gridCells = 16;
      indexCount += mc::buildDistributedIndex(comm, *volume, data, icfg).queryCount(queries[0]);
      mc::RangeQueryConfig rcfg;
      rcfg.framework = icfg.framework;
      const auto counts = mc::batchRangeQuery(comm, *volume, data, queries, rcfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        batchCounts = counts;
      }
    });
    EXPECT_EQ(indexCount.load(), 1u) << "nprocs=" << nprocs;
    EXPECT_EQ(batchCounts, std::vector<std::uint64_t>{1}) << "nprocs=" << nprocs;
  }
}

namespace {

/// A user parser that implements only the paper's extension point,
/// parseRecord: every batch record goes through the default
/// Parser::parseRecordInto (parseRecord, then GeometryBatch::append).
class RecordOnlyWktParser final : public mc::Parser {
 public:
  bool parseRecord(std::string_view record, mg::Geometry& out) const override {
    const std::string_view wkt = record.substr(0, record.find('\t'));
    if (wkt.empty()) return false;
    out = mg::readWkt(wkt);
    return true;
  }
};

}  // namespace

TEST(DistributedIndex, ParseRecordOnlyParserMatchesWktParser) {
  Fixture fx(9, 200);
  const RecordOnlyWktParser recordOnly;
  const std::vector<mg::Envelope> queries = {
      {2, 2, 6, 6}, {0, 0, 20, 20}, {10, 10, 10.5, 10.5}, {7, 3, 18, 9}};

  std::array<std::vector<std::uint64_t>, 2> counts;
  for (int mode = 0; mode < 2; ++mode) {
    counts[static_cast<std::size_t>(mode)].assign(queries.size(), 0);
    std::mutex mu;
    mm::Runtime::run(3, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::IndexingConfig cfg;
      cfg.framework.gridCells = 36;
      const mc::Parser* parser = mode == 0 ? static_cast<const mc::Parser*>(&fx.parser) : &recordOnly;
      mc::DatasetHandle data{"data.wkt", parser, {}};
      const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg);
      std::lock_guard<std::mutex> lock(mu);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        counts[static_cast<std::size_t>(mode)][q] += index.queryCount(queries[q]);
      }
    });
  }
  EXPECT_GT(counts[0][1], 0u);
  EXPECT_EQ(counts[1], counts[0]) << "a parseRecord-only parser must index exactly what WktParser does";
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(counts[0][q], fx.bruteForceCount(queries[q])) << "q=" << q;
  }
}
