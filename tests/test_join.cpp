// End-to-end distributed spatial join tests: the distributed result must
// equal the serial nested-loop reference exactly (as a multiset of
// geometry-key pairs) across process counts, grid sizes, window phases,
// partitioning strategies and predicates. This exercises the entire
// stack: partitioned read -> parse -> MPI_UNION grid -> projection ->
// alltoallv exchange -> per-cell R-tree filter -> exact refine ->
// reference-point duplicate avoidance.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

#include "core/spatial_join.hpp"
#include "osm/datasets.hpp"
#include "osm/synth.hpp"
#include "pfs/lustre.hpp"
#include "util/rng.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;

namespace {

struct JoinFixture {
  std::shared_ptr<mp::Volume> volume;
  std::vector<mg::Geometry> geomsR, geomsS;
  mc::WktParser parser;

  JoinFixture(std::uint64_t seed, std::uint64_t countR, std::uint64_t countS) {
    mp::LustreParams params;
    params.nodes = 8;
    volume = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));

    // Two overlapping synthetic layers ("lakes" x "cemetery" shaped).
    mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kLakes, seed);
    specR.space.world = mg::Envelope(0, 0, 30, 30);
    specR.space.clusters = 6;
    specR.space.clusterStddev = 4.0;
    specR.maxVertices = 64;
    specR.maxRadius = 2.0;
    mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kCemetery, seed + 1);
    specS.space.world = mg::Envelope(0, 0, 30, 30);
    specS.space.clusters = 6;
    specS.space.clusterStddev = 4.0;
    specS.maxRadius = 2.0;

    const mo::RecordGenerator genR(specR), genS(specS);
    volume->create("r.wkt", std::make_shared<mp::MemoryBackingStore>(mo::generateWktText(genR, countR)));
    volume->create("s.wkt", std::make_shared<mp::MemoryBackingStore>(mo::generateWktText(genS, countS)));

    // Reference collections parsed exactly as the pipeline will see them
    // (post WKT printing at the spec's precision).
    mc::WktParser p;
    p.parseAll(std::get<0>(readAll(*volume, "r.wkt")), [&](mg::Geometry&& g) { geomsR.push_back(std::move(g)); });
    p.parseAll(std::get<0>(readAll(*volume, "s.wkt")), [&](mg::Geometry&& g) { geomsS.push_back(std::move(g)); });
  }

  static std::tuple<std::string> readAll(mp::Volume& vol, const std::string& name) {
    auto obj = vol.lookup(name);
    std::string text(obj->data->size(), '\0');
    obj->data->read(0, text.data(), text.size());
    return {text};
  }
};

std::vector<mc::JoinPair> runDistributedJoin(JoinFixture& fx, int nprocs, int gridCells, int phases,
                                             mc::BoundaryStrategy strategy, mc::JoinPredicate predicate,
                                             mc::JoinStats* statsOut = nullptr) {
  std::mutex mu;
  std::vector<mc::JoinPair> all;
  mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    cfg.framework.gridCells = gridCells;
    cfg.framework.windowPhases = phases;
    cfg.predicate = predicate;
    mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
    mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
    r.partition.strategy = strategy;
    s.partition.strategy = strategy;
    std::vector<mc::JoinPair> local;
    const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg, &local);
    std::lock_guard<std::mutex> lock(mu);
    all.insert(all.end(), local.begin(), local.end());
    if (statsOut != nullptr && comm.rank() == 0) *statsOut = stats;
  });
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace

TEST(SpatialJoin, SerialReferenceSanity) {
  JoinFixture fx(1, 60, 40);
  const auto pairs = mc::serialJoin(fx.geomsR, fx.geomsS, mc::JoinPredicate::kIntersects);
  EXPECT_GT(pairs.size(), 0u) << "fixture should produce intersections";
  // No duplicate pairs in the reference.
  auto dedup = pairs;
  dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
  EXPECT_EQ(dedup.size(), pairs.size());
}

class JoinSweep : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(JoinSweep, DistributedEqualsSerial) {
  const auto [nprocs, gridCells, phases, strategyInt] = GetParam();
  JoinFixture fx(42, 80, 60);
  const auto expected = mc::serialJoin(fx.geomsR, fx.geomsS, mc::JoinPredicate::kIntersects);
  const auto got = runDistributedJoin(
      fx, nprocs, gridCells, phases,
      strategyInt == 0 ? mc::BoundaryStrategy::kMessage : mc::BoundaryStrategy::kOverlap,
      mc::JoinPredicate::kIntersects);
  EXPECT_EQ(got, expected) << "nprocs=" << nprocs << " cells=" << gridCells << " phases=" << phases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 6),  // ranks
                                            ::testing::Values(1, 16, 81),   // grid cells
                                            ::testing::Values(1, 3),        // window phases
                                            ::testing::Values(0, 1)));      // boundary strategy

TEST(SpatialJoin, ContainsPredicate) {
  JoinFixture fx(7, 70, 50);
  const auto expected = mc::serialJoin(fx.geomsR, fx.geomsS, mc::JoinPredicate::kContains);
  const auto got = runDistributedJoin(fx, 4, 25, 1, mc::BoundaryStrategy::kMessage,
                                      mc::JoinPredicate::kContains);
  EXPECT_EQ(got, expected);
}

TEST(SpatialJoin, StatsAreConsistent) {
  JoinFixture fx(9, 80, 60);
  mc::JoinStats stats;
  const auto got = runDistributedJoin(fx, 4, 36, 1, mc::BoundaryStrategy::kMessage,
                                      mc::JoinPredicate::kIntersects, &stats);
  EXPECT_EQ(stats.globalPairs, got.size());
  EXPECT_GE(stats.candidatePairs, stats.globalPairs);  // filter produces false positives
  EXPECT_GT(stats.phases.total(), 0.0);
  EXPECT_GT(stats.phases.comm, 0.0);
  EXPECT_GT(stats.phases.read, 0.0);
}

TEST(SpatialJoin, MoreCellsThanGeometries) {
  JoinFixture fx(11, 12, 10);
  const auto expected = mc::serialJoin(fx.geomsR, fx.geomsS, mc::JoinPredicate::kIntersects);
  const auto got =
      runDistributedJoin(fx, 3, 400, 1, mc::BoundaryStrategy::kMessage, mc::JoinPredicate::kIntersects);
  EXPECT_EQ(got, expected);
}

TEST(SpatialJoin, PointOnComputedCellEdgeKeepsItsPair) {
  // Two corner points pin the grid's bounds; with 1024 cells the probe
  // point's x lands on a computed cell edge. cellOfPoint (the
  // duplicate-avoidance lookup) puts the point in cell 383, while an
  // R-tree of cellEnvelope rectangles (minX + k·cellW) would project it
  // only to cell 382, so the one pair would be reported nowhere. The
  // projection must use the same arithmetic as cellOfPoint. Constants
  // are printed %.17g.
  const std::string r =
      "POINT (-30.940000000000001 -37.130000000000003)\n"
      "POINT (211.84999999999999 25.138999999999999)\n"
      "POINT (-11.670952380952384 -11.833218750000004)\n";
  const std::string s = "POLYGON ((-12.5 -12.5, -10.5 -12.5, -10.5 -11, -12.5 -11, -12.5 -12.5))\n";
  mp::LustreParams params;
  params.nodes = 4;
  mp::Volume volume(std::make_shared<mp::LustreModel>(params));
  volume.create("r.wkt", std::make_shared<mp::MemoryBackingStore>(r));
  volume.create("s.wkt", std::make_shared<mp::MemoryBackingStore>(s));

  mc::WktParser parser;
  std::vector<mg::Geometry> geomsR, geomsS;
  parser.parseAll(r, [&](mg::Geometry&& g) { geomsR.push_back(std::move(g)); });
  parser.parseAll(s, [&](mg::Geometry&& g) { geomsS.push_back(std::move(g)); });
  const auto expected = mc::serialJoin(geomsR, geomsS, mc::JoinPredicate::kIntersects);
  ASSERT_EQ(expected.size(), 1u);

  for (const auto scheme : {mc::PartitionScheme::kUniform, mc::PartitionScheme::kQuadtree}) {
    for (const int nprocs : {1, 4}) {
      std::mutex mu;
      std::vector<mc::JoinPair> got;
      mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
        mc::JoinConfig cfg;
        cfg.framework.gridCells = 1024;
        cfg.framework.partition.scheme = scheme;
        cfg.framework.partition.sampleRate = 1.0;
        mc::DatasetHandle dr{"r.wkt", &parser, {}};
        mc::DatasetHandle ds{"s.wkt", &parser, {}};
        std::vector<mc::JoinPair> local;
        (void)mc::spatialJoin(comm, volume, dr, ds, cfg, &local);
        std::lock_guard<std::mutex> lock(mu);
        got.insert(got.end(), local.begin(), local.end());
      });
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << mc::partitionSchemeName(scheme) << " nprocs=" << nprocs;
    }
  }
}
