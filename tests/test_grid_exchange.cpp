// Grid partitioning and geometry-exchange tests: cell geometry, the
// R-tree cell locator vs closed-form arithmetic, replication semantics,
// round-robin ownership, serialization round trips, and the windowed
// all-to-all exchange invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>

#include "core/exchange.hpp"
#include "core/grid.hpp"
#include "geom/wkb.hpp"
#include "geom/wkt.hpp"
#include "mpi/runtime.hpp"
#include "util/rng.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;

TEST(Grid, CellGeometry) {
  const mc::GridSpec grid(mg::Envelope(0, 0, 10, 10), 5, 2);
  EXPECT_EQ(grid.cellCount(), 10);
  EXPECT_EQ(grid.cellEnvelope(0), mg::Envelope(0, 0, 2, 5));
  EXPECT_EQ(grid.cellEnvelope(9), mg::Envelope(8, 5, 10, 10));
  EXPECT_EQ(grid.cellIdOf(3, 1), 8);
}

TEST(Grid, SquarishRespectsAspect) {
  const auto wide = mc::GridSpec::squarish(mg::Envelope(0, 0, 100, 10), 100);
  EXPECT_GT(wide.cellsX(), wide.cellsY());
  EXPECT_NEAR(wide.cellCount(), 100, 60);
  const auto square = mc::GridSpec::squarish(mg::Envelope(0, 0, 10, 10), 64);
  EXPECT_EQ(square.cellsX(), 8);
  EXPECT_EQ(square.cellsY(), 8);
}

TEST(Grid, CellOfPointHalfOpenSemantics) {
  const mc::GridSpec grid(mg::Envelope(0, 0, 4, 4), 4, 4);
  EXPECT_EQ(grid.cellOfPoint({0.5, 0.5}), 0);
  EXPECT_EQ(grid.cellOfPoint({1.0, 0.0}), 1);   // boundary goes to the upper cell
  EXPECT_EQ(grid.cellOfPoint({4.0, 4.0}), 15);  // max corner clamps into the last cell
  EXPECT_EQ(grid.cellOfPoint({-5, -5}), 0);     // outside clamps
}

TEST(Grid, OverlappingCellsArithmetic) {
  const mc::GridSpec grid(mg::Envelope(0, 0, 4, 4), 4, 4);
  std::vector<int> cells;
  grid.overlappingCells(mg::Envelope(0.5, 0.5, 2.5, 1.5), cells);
  std::sort(cells.begin(), cells.end());
  EXPECT_EQ(cells, (std::vector<int>{0, 1, 2, 4, 5, 6}));
  cells.clear();
  grid.overlappingCells(mg::Envelope(10, 10, 11, 11), cells);  // outside
  EXPECT_TRUE(cells.empty());
}

TEST(Grid, LocatorMatchesArithmetic) {
  // Away from computed cell edges the paper's R-tree of cell boundaries
  // agrees with the closed form. Within an ulp of an edge the two can
  // differ; PartitionMap.ProjectionCarriesReferenceCellOnComputedEdges
  // covers that case for the arithmetic the pipeline projects through.
  mvio::util::Rng rng(17);
  const mc::GridSpec grid(mg::Envelope(-180, -85, 180, 85), 23, 11);
  const mc::CellLocator locator(grid);
  for (int trial = 0; trial < 500; ++trial) {
    const double x = rng.uniform(-200, 200), y = rng.uniform(-100, 100);
    const mg::Envelope box(x, y, x + rng.uniform(0, 40), y + rng.uniform(0, 40));
    std::vector<int> a, b;
    grid.overlappingCells(box, a);
    locator.overlappingCells(box, b);
    std::sort(a.begin(), a.end());
    EXPECT_EQ(a, b) << "trial " << trial;
  }
}

TEST(Grid, GlobalGridFromUnionReduction) {
  mm::Runtime::run(4, [](mm::Comm& comm) {
    // Rank r holds a box at x in [r*10, r*10+5].
    std::vector<mg::Geometry> local;
    local.push_back(mg::Geometry::box(mg::Envelope(comm.rank() * 10.0, 0, comm.rank() * 10.0 + 5, 5)));
    const auto grid = mc::buildGlobalGrid(comm, local, 16);
    EXPECT_EQ(grid.bounds(), mg::Envelope(0, 0, 35, 5));
  });
}

TEST(Grid, GlobalGridHandlesEmptyRanks) {
  mm::Runtime::run(4, [](mm::Comm& comm) {
    std::vector<mg::Geometry> local;
    if (comm.rank() == 2) local.push_back(mg::Geometry::box(mg::Envelope(1, 1, 2, 2)));
    const auto grid = mc::buildGlobalGrid(comm, local, 4);
    EXPECT_EQ(grid.bounds(), mg::Envelope(1, 1, 2, 2));
  });
}

TEST(Exchange, SerializationRoundTrip) {
  mvio::util::Rng rng(5);
  std::string buf;
  std::vector<mc::CellGeometry> in;
  for (int i = 0; i < 50; ++i) {
    mc::CellGeometry cg;
    cg.cell = static_cast<int>(rng.below(100));
    if (rng.below(2) == 0) {
      cg.geometry = mg::readWkt("POLYGON ((0 0, 3 0, 3 3, 0 0))");
    } else {
      cg.geometry = mg::Geometry::point({rng.uniform(-10, 10), rng.uniform(-10, 10)});
    }
    cg.geometry.userData = "attrs-" + std::to_string(i);
    serializeCellGeometry(cg, buf);
    in.push_back(std::move(cg));
  }
  std::vector<mc::CellGeometry> out;
  deserializeCellGeometries(buf, out);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].cell, in[i].cell);
    EXPECT_EQ(out[i].geometry.userData, in[i].geometry.userData);
    EXPECT_EQ(mg::writeWkb(out[i].geometry), mg::writeWkb(in[i].geometry));
  }
}

TEST(Exchange, DeserializeRejectsTruncation) {
  mc::CellGeometry cg;
  cg.cell = 1;
  cg.geometry = mg::Geometry::point({1, 2});
  std::string buf;
  serializeCellGeometry(cg, buf);
  std::vector<mc::CellGeometry> out;
  EXPECT_THROW(mc::deserializeCellGeometries(std::string_view(buf).substr(0, buf.size() - 2), out),
               mvio::util::Error);
}

namespace {

/// Every record tagged with (origin rank, index); after the exchange the
/// receiving rank must own exactly the cells mapped to it, with no record
/// lost or duplicated. Runs with a configurable window count.
void exchangeInvariant(int nprocs, int phases, int totalCells) {
  std::mutex mu;
  std::map<std::string, int> sentTags, receivedTags;

  mm::Runtime::run(nprocs, [&](mm::Comm& comm) {
    mvio::util::Rng rng(900 + static_cast<std::uint64_t>(comm.rank()));
    mg::GeometryBatch outgoing;
    for (int i = 0; i < 120; ++i) {
      const int cell = static_cast<int>(rng.below(static_cast<std::uint64_t>(totalCells)));
      const std::string tag = std::to_string(comm.rank()) + ":" + std::to_string(i);
      outgoing.append(mg::Geometry::point({rng.uniform(0, 1), rng.uniform(0, 1)}), tag, cell);
      {
        std::lock_guard<std::mutex> lock(mu);
        sentTags[tag + "@" + std::to_string(cell)]++;
      }
    }

    mc::ExchangeStats stats;
    auto mine = mc::exchangeByCell(
        comm, std::move(outgoing), [&](int cell) { return mc::roundRobinOwner(cell, comm.size()); },
        phases, totalCells, &stats);

    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mc::roundRobinOwner(mine.cell(i), comm.size()), comm.rank());
      std::lock_guard<std::mutex> lock(mu);
      receivedTags[std::string(mine.userData(i)) + "@" + std::to_string(mine.cell(i))]++;
    }
    if (phases > 1) {
      EXPECT_GT(stats.phases, 1u);
    }
  });

  EXPECT_EQ(sentTags, receivedTags);
}

}  // namespace

TEST(Exchange, AllToAllDeliversEverythingOnce) { exchangeInvariant(4, 1, 64); }

TEST(Exchange, SlidingWindowMatchesSinglePhase) {
  exchangeInvariant(4, 4, 64);
  exchangeInvariant(3, 7, 20);
}

TEST(Exchange, SingleRankKeepsEverything) { exchangeInvariant(1, 1, 16); }

TEST(Exchange, MorePhasesThanCellsClamps) { exchangeInvariant(2, 100, 5); }
