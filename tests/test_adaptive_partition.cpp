// Adaptive partitioning tests (DESIGN.md §13): PartitionMap codec round
// trips + corruption rejection, deterministic sample-based builders
// (quadtree refinement and Hilbert range splits), the migration-aware
// cost model, and the headline acceptance property — join pairs, overlay
// raster bytes, and index query counts under an adaptive map are
// bit-identical to the uniform-grid run, including the streamed,
// rebalanced, and injected-failure compositions. Recovery restores the
// sealed map and replays through the identical projection.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <mutex>
#include <set>
#include <vector>

#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "core/partition_map.hpp"
#include "core/spatial_join.hpp"
#include "geom/quadtree.hpp"
#include "geom/space_curve.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "recovery/checkpoint.hpp"
#include "util/bytes.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;
namespace mr = mvio::recovery;

namespace {

std::shared_ptr<mp::Volume> lustreVolume(int nodes = 8) {
  mp::LustreParams params;
  params.nodes = nodes;
  return std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
}

std::string fileBytes(mp::Volume& volume, const std::string& name) {
  const auto file = volume.lookup(name);
  std::string bytes(file->data->size(), '\0');
  file->data->read(0, bytes.data(), bytes.size());
  return bytes;
}

/// Two-layer fixture with *skewed* inputs: most records land in a few
/// tight clusters, so the adaptive builders have real hot spots to split
/// and the uniform grid has real per-cell imbalance. Sized like the
/// recovery fixture so 4 KB-chunk streaming runs span many rounds.
struct SkewFixture {
  std::shared_ptr<mp::Volume> volume = lustreVolume();
  mc::WktParser parser;

  SkewFixture() {
    mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kCemetery, 71);
    specR.space.world = mg::Envelope(0, 0, 20, 20);
    specR.space.clusters = 3;
    specR.space.clusterStddev = 1.0;
    specR.space.uniformFraction = 0.05;
    volume->create("r.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specR), 1500)));
    // Same seed: cluster centers are a fixed function of it, so both
    // layers pile onto the same hot spots and the join has real pairs.
    mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 71);
    specS.space = specR.space;
    volume->create("s.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specS), 800)));
  }

  static mc::StreamConfig streamedConfig(std::uint64_t checkpointEvery,
                                         const std::string& ckptDir) {
    mc::StreamConfig sc;
    sc.chunkBytes = 4 << 10;
    sc.memoryBudget = 32 << 10;
    sc.checkpointEveryRounds = checkpointEvery;
    sc.checkpointDir = ckptDir;
    return sc;
  }
};

/// Full pilot sampling + a fixed partition-cell target so the small
/// fixtures produce genuinely grouped (non-uniform) maps.
void adaptiveTweak(mc::FrameworkConfig& fw, mc::PartitionScheme scheme) {
  fw.partition.scheme = scheme;
  fw.partition.sampleRate = 1.0;
  fw.partition.targetCells = 12;
}

struct JoinRun {
  std::vector<mc::JoinPair> pairs;  ///< all live ranks' pairs, sorted
  std::uint64_t globalPairs = 0;
  int died = 0, recovered = 0;
  std::uint64_t epochUsed = 0;
  bool balanceSkipped = false;
  bool costGated = false;
};

JoinRun runJoin(SkewFixture& fx, const std::function<void(mc::JoinConfig&)>& tweak) {
  JoinRun run;
  std::mutex mu;
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    cfg.framework.gridCells = 36;
    tweak(cfg);
    mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
    mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
    std::vector<mc::JoinPair> local;
    const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg, &local);
    std::lock_guard<std::mutex> lock(mu);
    run.pairs.insert(run.pairs.end(), local.begin(), local.end());
    if (stats.recovery.died) {
      run.died += 1;
      return;
    }
    run.globalPairs = stats.globalPairs;
    run.balanceSkipped = run.balanceSkipped || stats.balance.skipped;
    run.costGated = run.costGated || stats.balance.costGated;
    if (stats.recovery.recovered) {
      run.recovered += 1;
      run.epochUsed = stats.recovery.epochUsed;
    }
  });
  std::sort(run.pairs.begin(), run.pairs.end());
  return run;
}

/// Skewed synthetic sample set: `hot` envelopes piled into the lower-left
/// corner cell region, `spread` walked diagonally across the domain.
std::vector<mg::Envelope> skewedSamples(std::size_t hot, std::size_t spread) {
  std::vector<mg::Envelope> samples;
  samples.reserve(hot + spread);
  for (std::size_t i = 0; i < hot; ++i) {
    const double dx = 0.002 * static_cast<double>(i % 50);
    const double dy = 0.002 * static_cast<double>(i / 50);
    samples.emplace_back(1.0 + dx, 1.0 + dy, 1.2 + dx, 1.2 + dy);
  }
  for (std::size_t i = 0; i < spread; ++i) {
    const double t = 19.0 * static_cast<double>(i) / std::max<std::size_t>(1, spread - 1);
    samples.emplace_back(t, t, std::min(20.0, t + 0.3), std::min(20.0, t + 0.3));
  }
  return samples;
}

bool isCanonicalGrouping(const mc::PartitionMap& map) {
  std::int32_t fresh = 0;
  for (int u = 0; u < map.grid().cellCount(); ++u) {
    const std::int32_t g = map.groupOf(u);
    if (g < 0 || g > fresh) return false;
    if (g == fresh) ++fresh;
  }
  return fresh == map.cellCount();
}

}  // namespace

// ---- PartitionMap semantics and wire codec -------------------------------

TEST(PartitionMap, UniformIsIdentity) {
  const mc::GridSpec grid(mg::Envelope(0, 0, 20, 20), 6, 6);
  const mc::PartitionMap map = mc::PartitionMap::uniform(grid);
  EXPECT_TRUE(map.isUniform());
  EXPECT_EQ(map.cellCount(), grid.cellCount());
  EXPECT_EQ(map.groupOf(17), 17);
  EXPECT_EQ(map.cellOfPoint({10.1, 10.1}), grid.cellOfPoint({10.1, 10.1}));

  // overlappingCells matches the raw grid, including the appended-tail
  // contract.
  std::vector<int> viaMap{-7};
  std::vector<int> viaGrid{-7};
  const mg::Envelope box(3.0, 3.0, 11.0, 7.0);
  map.overlappingCells(box, viaMap);
  grid.overlappingCells(box, viaGrid);
  EXPECT_EQ(viaMap, viaGrid);

  // Round trip: uniform maps carry no group array.
  const std::string blob = mc::encodePartitionMap(map);
  const auto decoded = mc::decodePartitionMap(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == map);
}

TEST(PartitionMap, GroupedRoundTripAndLookups) {
  const mc::GridSpec grid(mg::Envelope(0, 0, 20, 20), 6, 6);
  mc::PartitionerConfig cfg;
  cfg.scheme = mc::PartitionScheme::kQuadtree;
  cfg.targetCells = 8;
  const auto samples = skewedSamples(500, 20);
  const mc::PartitionMap map = mc::buildPartitionMap(cfg, grid, samples, 4);

  ASSERT_FALSE(map.isUniform()) << "skewed samples must produce a grouped map";
  EXPECT_EQ(map.scheme(), mc::PartitionScheme::kQuadtree);
  EXPECT_GT(map.cellCount(), 1);
  EXPECT_LT(map.cellCount(), grid.cellCount());
  EXPECT_TRUE(isCanonicalGrouping(map));

  // Point lookups resolve through the grouping, and every partition cell
  // id appended by overlappingCells is a groupOf() value of some member.
  for (int u = 0; u < grid.cellCount(); ++u) {
    EXPECT_EQ(map.cellOfPoint(grid.cellEnvelope(u).center()), map.groupOf(u));
  }
  std::vector<int> cells;
  map.overlappingCells(mg::Envelope(0.5, 0.5, 6.5, 6.5), cells);
  ASSERT_FALSE(cells.empty());
  EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end()));
  EXPECT_TRUE(std::adjacent_find(cells.begin(), cells.end()) == cells.end());
  for (const int c : cells) EXPECT_LT(c, map.cellCount());

  // translateCells only touches the tail past `first`.
  std::vector<int> mixed{-3, 0, 35};
  map.translateCells(mixed, 1);
  EXPECT_EQ(mixed[0], -3);
  EXPECT_EQ(mixed[1], map.groupOf(0));

  const std::string blob = mc::encodePartitionMap(map);
  const auto decoded = mc::decodePartitionMap(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == map);
}

TEST(PartitionMap, DecodeRejectsCorruption) {
  const mc::GridSpec grid(mg::Envelope(0, 0, 20, 20), 6, 6);
  mc::PartitionerConfig cfg;
  cfg.scheme = mc::PartitionScheme::kHilbert;
  cfg.targetCells = 6;
  const std::string good = mc::encodePartitionMap(
      mc::buildPartitionMap(cfg, grid, skewedSamples(400, 40), 4));
  ASSERT_TRUE(mc::decodePartitionMap(good).has_value());

  // Every single-byte flip breaks the checksum (or a validated field).
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_FALSE(mc::decodePartitionMap(bad).has_value()) << "flip at byte " << i;
  }
  // Every truncation is rejected by the exact-size check.
  for (std::size_t n = 0; n < good.size(); n += 7) {
    EXPECT_FALSE(mc::decodePartitionMap(std::string_view(good.data(), n)).has_value());
  }
  // A non-canonical group array must not load even with a fixed checksum.
  std::string bad = good;
  constexpr std::size_t kFixed = 4 + 4 + 4 + 32 + 4 + 4 + 4 + 4;
  std::int32_t first = 5;  // first-seen label must be 0
  std::memcpy(bad.data() + kFixed, &first, sizeof(first));
  const std::uint64_t sum = mvio::util::fnv1a(bad.data(), bad.size() - 8);
  std::memcpy(bad.data() + bad.size() - 8, &sum, sizeof(sum));
  EXPECT_FALSE(mc::decodePartitionMap(bad).has_value());
}

TEST(PartitionMap, BuildersAreDeterministic) {
  const mc::GridSpec grid(mg::Envelope(0, 0, 20, 20), 8, 8);
  const auto samples = skewedSamples(600, 60);
  for (const auto scheme : {mc::PartitionScheme::kQuadtree, mc::PartitionScheme::kHilbert}) {
    mc::PartitionerConfig cfg;
    cfg.scheme = scheme;
    cfg.targetCells = 10;
    const mc::PartitionMap a = mc::buildPartitionMap(cfg, grid, samples, 4);
    const mc::PartitionMap b = mc::buildPartitionMap(cfg, grid, samples, 4);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(mc::encodePartitionMap(a), mc::encodePartitionMap(b));
    ASSERT_FALSE(a.isUniform()) << mc::partitionSchemeName(scheme);
    EXPECT_TRUE(isCanonicalGrouping(a));
  }
  // Empty sample sets and uniform scheme fall back to the uniform map.
  mc::PartitionerConfig cfg;
  cfg.scheme = mc::PartitionScheme::kQuadtree;
  EXPECT_TRUE(mc::buildPartitionMap(cfg, grid, {}, 4).isUniform());
  cfg.scheme = mc::PartitionScheme::kUniform;
  EXPECT_TRUE(mc::buildPartitionMap(cfg, grid, samples, 4).isUniform());
}

// ---- Cost model ----------------------------------------------------------

TEST(PartitionCost, PlanPrefersAdaptiveOnSkew) {
  const mc::GridSpec grid(mg::Envelope(0, 0, 20, 20), 8, 8);
  const auto samples = skewedSamples(800, 40);
  mc::PartitionerConfig cfg;
  cfg.scheme = mc::PartitionScheme::kQuadtree;
  cfg.targetCells = 16;
  const mc::PartitionMap map = mc::buildPartitionMap(cfg, grid, samples, 4);
  ASSERT_FALSE(map.isUniform());

  const mc::PartitionPlan plan = mc::planPartition(map, samples, 4, 1u << 20, 256.0);
  EXPECT_EQ(plan.scheme, mc::PartitionScheme::kQuadtree);
  EXPECT_EQ(plan.cells, map.cellCount());
  EXPECT_EQ(plan.samples, samples.size());
  EXPECT_GT(plan.imbalanceUniform, 1.0) << "skewed samples must show uniform-grid imbalance";
  EXPECT_LT(plan.imbalanceAdaptive, plan.imbalanceUniform)
      << "the adaptive map must spread the sampled load better than round-robin uniform cells";
  EXPECT_GT(plan.predictedMigrationBytes, 0u)
      << "uniform+LPT must pay migration traffic on skewed input";
  EXPECT_EQ(plan.predictedWinner, mc::PartitionScheme::kQuadtree);
  EXPECT_LE(plan.predictedAdaptiveSeconds, plan.predictedUniformSeconds);
  EXPECT_GE(plan.predictedMargin, 0.0);
  EXPECT_LE(plan.predictedMargin, 1.0);
}

TEST(PartitionCost, UniformMapPlansUniformWinner) {
  const mc::GridSpec grid(mg::Envelope(0, 0, 20, 20), 8, 8);
  const auto samples = skewedSamples(100, 100);
  const mc::PartitionPlan plan =
      mc::planPartition(mc::PartitionMap::uniform(grid), samples, 4, 1u << 20, 256.0);
  EXPECT_EQ(plan.predictedWinner, mc::PartitionScheme::kUniform);
}

TEST(PartitionCost, PriceRebalanceWeighsGainAgainstWire) {
  // Rank 0 owns both hot cells; the proposal moves one to idle rank 1,
  // halving the max-rank load.
  const std::vector<std::uint64_t> loads{10000, 0, 0, 0, 10000, 0, 0, 0};
  const std::vector<int> from{0, 1, 2, 3, 0, 1, 2, 3};
  const std::vector<int> to{0, 1, 2, 3, 1, 1, 2, 3};

  // Cheap wire + cheap packing: the move pays for itself.
  mc::PartitionCostModel fast;
  fast.migratePerGeometrySeconds = 1e-9;
  const auto cheap = mc::priceRebalance(loads, from, to, 4, /*bytesPerRecord=*/8.0,
                                        /*threshold=*/1.0, fast);
  EXPECT_GT(cheap.gainSeconds, 0.0);
  EXPECT_GT(cheap.migrateBytes, 0u);
  EXPECT_TRUE(cheap.worthIt);

  // Same move priced under an extreme wire cost: gated.
  mc::PartitionCostModel slow;
  slow.migrateBytesPerSecond = 1.0;
  const auto gated = mc::priceRebalance(loads, from, to, 4, 1e6, 1.0, slow);
  EXPECT_FALSE(gated.worthIt);
  EXPECT_GT(gated.migrateSeconds, gated.gainSeconds);

  // Identity proposal: nothing moves, nothing gained, never worth it.
  const auto noop = mc::priceRebalance(loads, from, from, 4, 8.0, 1.0, fast);
  EXPECT_EQ(noop.migrateBytes, 0u);
  EXPECT_EQ(noop.gainSeconds, 0.0);
  EXPECT_FALSE(noop.worthIt);
}

// ---- Space curve + quadtree building blocks ------------------------------

TEST(SpaceCurve, HilbertRoundTripHighOrders) {
  for (const int order : {1, 4, 8, 16, 24, 31}) {
    const std::uint32_t side = order == 31 ? 0x7fffffffu : ((1u << order) - 1);
    // Corners, edge midpoints, center, and a deterministic LCG scatter.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> probes = {
        {0, 0}, {side, 0}, {0, side}, {side, side}, {side / 2, side / 2}, {side / 2, 0},
        {0, side / 2}};
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(order);
    for (int i = 0; i < 64; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      probes.emplace_back(static_cast<std::uint32_t>(lcg >> 33) & side,
                          static_cast<std::uint32_t>(lcg) & side);
    }
    for (const auto& [x, y] : probes) {
      const std::uint64_t key = mg::hilbertKey(x, y, order);
      std::uint32_t dx = 0, dy = 0;
      mg::hilbertDecode(key, order, dx, dy);
      EXPECT_EQ(dx, x) << "order " << order;
      EXPECT_EQ(dy, y) << "order " << order;
    }
  }
}

TEST(SpaceCurve, HilbertIsABijectionAtOrderThree) {
  std::set<std::uint64_t> keys;
  for (std::uint32_t x = 0; x < 8; ++x) {
    for (std::uint32_t y = 0; y < 8; ++y) {
      const std::uint64_t key = mg::hilbertKey(x, y, 3);
      EXPECT_LT(key, 64u);
      keys.insert(key);
    }
  }
  EXPECT_EQ(keys.size(), 64u) << "every cell must get a distinct key";
}

TEST(SpaceCurve, CurveGridBoundaryCoords) {
  const mg::CurveGrid curve{mg::Envelope(0, 0, 10, 10), 4};  // 16x16 cells
  // Domain corners: min corner is cell 0, max corner clamps to the last
  // cell instead of falling off the grid.
  EXPECT_EQ(curve.cellX({0.0, 0.0}), 0u);
  EXPECT_EQ(curve.cellY({0.0, 0.0}), 0u);
  EXPECT_EQ(curve.cellX({10.0, 10.0}), 15u);
  EXPECT_EQ(curve.cellY({10.0, 10.0}), 15u);
  // A point exactly on an interior cell edge belongs to the upper cell
  // (half-open cells), and nearby points straddle the edge.
  EXPECT_EQ(curve.cellX({5.0, 0.0}), 8u);
  EXPECT_EQ(curve.cellX({5.0 - 1e-9, 0.0}), 7u);
  // Outside points clamp to the boundary cells.
  EXPECT_EQ(curve.cellX({-3.0, 0.0}), 0u);
  EXPECT_EQ(curve.cellY({0.0, 42.0}), 15u);
  // Keys of clamped points are valid grid keys.
  EXPECT_LT(curve.hilbertKeyOf({10.0, 10.0}), 256u);
}

TEST(QuadTreeIndex, EstimateBoundsSearchAndLeafOfIsDeterministic) {
  mg::QuadTree tree(mg::Envelope(0, 0, 16, 16), /*maxDepth=*/8, /*nodeCapacity=*/2);
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      const double x = 0.25 + 2.0 * i;
      const double y = 0.25 + 2.0 * j;
      tree.insert(mg::Envelope(x, y, x + 0.5, y + 0.5), id++);
    }
  }
  for (const auto& q : {mg::Envelope(0, 0, 16, 16), mg::Envelope(1, 1, 3, 3),
                        mg::Envelope(7.9, 7.9, 8.1, 8.1), mg::Envelope(-5, -5, -1, -1)}) {
    EXPECT_GE(tree.estimateMatches(q), tree.search(q).size());
  }
  EXPECT_EQ(tree.estimateMatches(mg::Envelope(0, 0, 16, 16)), tree.size())
      << "a query covering the root visits every node";

  // leafOf: same quadrant -> same leaf; distant corners -> different
  // leaves once the tree subdivided; edge points resolve consistently.
  EXPECT_EQ(tree.leafOf({1.0, 1.0}), tree.leafOf({1.1, 1.1}));
  EXPECT_NE(tree.leafOf({0.5, 0.5}), tree.leafOf({15.5, 15.5}));
  EXPECT_EQ(tree.leafOf({8.0, 8.0}), tree.leafOf({8.0, 8.0}));
  EXPECT_GE(tree.leafOf({8.0, 8.0}), 0);
}

// ---- End-to-end bit identity across partition schemes --------------------

TEST(AdaptivePartition, MapIdenticalAcrossRanksAndSchemeApplied) {
  SkewFixture fx;
  for (const auto scheme : {mc::PartitionScheme::kQuadtree, mc::PartitionScheme::kHilbert}) {
    std::mutex mu;
    std::vector<std::string> encoded;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::IndexingConfig cfg;
      cfg.framework.gridCells = 36;
      adaptiveTweak(cfg.framework, scheme);
      mc::DatasetHandle data{"r.wkt", &fx.parser, {}};
      const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg);
      std::lock_guard<std::mutex> lock(mu);
      encoded.push_back(mc::encodePartitionMap(index.partition()));
    });
    ASSERT_EQ(encoded.size(), 4u);
    for (const auto& e : encoded) {
      EXPECT_EQ(e, encoded[0]) << "pilot pass must build the identical map on every rank";
    }
    const auto map = mc::decodePartitionMap(encoded[0]);
    ASSERT_TRUE(map.has_value());
    EXPECT_EQ(map->scheme(), scheme) << "the configured scheme must actually be applied";
    EXPECT_FALSE(map->isUniform()) << "skewed fixture must produce a grouped map";
    EXPECT_TRUE(isCanonicalGrouping(*map));
  }
}

TEST(AdaptivePartition, JoinPairsBitIdenticalAcrossSchemes) {
  SkewFixture fx;
  const JoinRun base = runJoin(fx, [](mc::JoinConfig&) {});
  ASSERT_FALSE(base.pairs.empty());
  ASSERT_GT(base.globalPairs, 0u);

  for (const auto scheme : {mc::PartitionScheme::kQuadtree, mc::PartitionScheme::kHilbert}) {
    // One-shot.
    const JoinRun oneShot = runJoin(fx, [&](mc::JoinConfig& cfg) {
      adaptiveTweak(cfg.framework, scheme);
    });
    EXPECT_EQ(oneShot.pairs, base.pairs) << mc::partitionSchemeName(scheme);
    EXPECT_EQ(oneShot.globalPairs, base.globalPairs);

    // Streamed: chunked rounds + spill under the same map.
    const JoinRun streamed = runJoin(fx, [&](mc::JoinConfig& cfg) {
      adaptiveTweak(cfg.framework, scheme);
      cfg.framework.stream.chunkBytes = 4 << 10;
      cfg.framework.stream.memoryBudget = 32 << 10;
    });
    EXPECT_EQ(streamed.pairs, base.pairs)
        << mc::partitionSchemeName(scheme) << " streamed run must match";

    // Rebalanced: the LPT pass runs over partition cells and its verdict
    // goes through the cost model (worth it or cost-gated, results
    // identical either way).
    const JoinRun rebalanced = runJoin(fx, [&](mc::JoinConfig& cfg) {
      adaptiveTweak(cfg.framework, scheme);
      cfg.framework.rebalanceCells = true;
    });
    EXPECT_EQ(rebalanced.pairs, base.pairs)
        << mc::partitionSchemeName(scheme) << " rebalanced run must match";
    EXPECT_TRUE(!rebalanced.costGated || rebalanced.balanceSkipped)
        << "a cost-gated pass must also report skipped";
  }
}

TEST(AdaptivePartition, OverlayRasterBitIdenticalAcrossSchemes) {
  SkewFixture fx;
  // uniform / quadtree / hilbert / quadtree+rebalance.
  const std::array<mc::PartitionScheme, 4> schemes = {
      mc::PartitionScheme::kUniform, mc::PartitionScheme::kQuadtree,
      mc::PartitionScheme::kHilbert, mc::PartitionScheme::kQuadtree};
  std::array<std::string, 4> rasters;
  for (std::size_t mode = 0; mode < schemes.size(); ++mode) {
    const std::string out = "cov_" + std::to_string(mode) + ".bin";
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::OverlayConfig cfg;
      cfg.framework.gridCells = 36;
      cfg.outputPath = out;
      if (schemes[mode] != mc::PartitionScheme::kUniform) {
        adaptiveTweak(cfg.framework, schemes[mode]);
      }
      if (mode == 3) cfg.framework.rebalanceCells = true;
      mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
      mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
      (void)mc::gridCoverageOverlay(comm, *fx.volume, r, &s, cfg);
    });
    rasters[mode] = fileBytes(*fx.volume, out);
  }
  ASSERT_FALSE(rasters[0].empty());
  for (std::size_t mode = 1; mode < schemes.size(); ++mode) {
    EXPECT_EQ(rasters[mode], rasters[0])
        << "raster bytes under " << mc::partitionSchemeName(schemes[mode])
        << " (mode " << mode << ") must equal the uniform run";
  }
}

TEST(AdaptivePartition, IndexQueryCountsMatchAcrossSchemes) {
  SkewFixture fx;
  const std::vector<mg::Envelope> queries = {
      {2, 2, 6, 6}, {0, 0, 20, 20}, {10, 10, 10.5, 10.5}, {-5, -5, -1, -1}, {7, 3, 18, 9}};
  const std::array<mc::PartitionScheme, 3> schemes = {
      mc::PartitionScheme::kUniform, mc::PartitionScheme::kQuadtree,
      mc::PartitionScheme::kHilbert};
  std::array<std::vector<std::uint64_t>, 3> counts;
  counts.fill(std::vector<std::uint64_t>(queries.size(), 0));

  for (std::size_t mode = 0; mode < schemes.size(); ++mode) {
    std::mutex mu;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::IndexingConfig cfg;
      cfg.framework.gridCells = 36;
      if (schemes[mode] != mc::PartitionScheme::kUniform) {
        adaptiveTweak(cfg.framework, schemes[mode]);
      }
      mc::DatasetHandle data{"r.wkt", &fx.parser, {}};
      const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const std::uint64_t local = index.queryCount(queries[q]);
        std::lock_guard<std::mutex> lock(mu);
        counts[mode][q] += local;
      }
    });
  }
  EXPECT_GT(counts[0][1], 0u) << "whole-domain query must match records";
  for (std::size_t mode = 1; mode < schemes.size(); ++mode) {
    EXPECT_EQ(counts[mode], counts[0])
        << "deduplicated query counts under " << mc::partitionSchemeName(schemes[mode])
        << " must equal the uniform run";
  }
}

TEST(AdaptivePartition, RecoveryRestoresSealedMapBitIdentically) {
  SkewFixture fx;
  // Uniform, failure-free, non-streamed baseline — the strictest anchor.
  const JoinRun base = runJoin(fx, [](mc::JoinConfig&) {});
  ASSERT_FALSE(base.pairs.empty());

  // Adaptive, streamed, one rank killed mid-stream: recovery must decode
  // the sealed map and replay the chunk log through the identical
  // projection.
  const std::string ckptDir = "__ap_ck_kill";
  const JoinRun killed = runJoin(fx, [&](mc::JoinConfig& cfg) {
    adaptiveTweak(cfg.framework, mc::PartitionScheme::kQuadtree);
    cfg.framework.stream = SkewFixture::streamedConfig(2, ckptDir);
    cfg.framework.failSchedule = {{2, 3, 0}};
  });
  EXPECT_EQ(killed.died, 1);
  EXPECT_EQ(killed.recovered, 3);
  EXPECT_GE(killed.epochUsed, 1u);
  EXPECT_EQ(killed.pairs, base.pairs)
      << "post-recovery adaptive pairs must equal the failure-free uniform run";
  EXPECT_EQ(killed.globalPairs, base.globalPairs);

  // The epoch seal that recovery used carries the adaptive map verbatim.
  const auto seal = mr::findLastSealedEpoch(*fx.volume, ckptDir, 4, 1u << 20);
  ASSERT_TRUE(seal.has_value());
  ASSERT_FALSE(seal->partitionMap.empty()) << "adaptive runs must seal their map";
  const auto sealedMap = mc::decodePartitionMap(seal->partitionMap);
  ASSERT_TRUE(sealedMap.has_value());
  EXPECT_EQ(sealedMap->scheme(), mc::PartitionScheme::kQuadtree);
  EXPECT_FALSE(sealedMap->isUniform());
  ASSERT_EQ(seal->cellLoads.size(), static_cast<std::size_t>(sealedMap->cellCount()))
      << "seal arrays must be sized by partition cells, not uniform cells";

  // Hilbert composition: streamed + rebalanced + killed, same pairs.
  const JoinRun hilbert = runJoin(fx, [&](mc::JoinConfig& cfg) {
    adaptiveTweak(cfg.framework, mc::PartitionScheme::kHilbert);
    cfg.framework.stream = SkewFixture::streamedConfig(2, "__ap_ck_hil");
    cfg.framework.rebalanceCells = true;
    cfg.framework.failSchedule = {{1, 4, 0}};
  });
  EXPECT_EQ(hilbert.recovered, 3);
  EXPECT_EQ(hilbert.pairs, base.pairs);
}
