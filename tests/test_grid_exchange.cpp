// Grid partitioning and exchange-protocol tests: cell geometry, the
// R-tree cell locator vs closed-form arithmetic, the global grid
// reduction, and the exchange's rejection of a hostile round header.
// The exchange delivery invariants live in test_geometry_batch.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "core/exchange.hpp"
#include "core/grid.hpp"
#include "mpi/runtime.hpp"
#include "util/error.hpp"
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

namespace {

// Largest single operator-new request made while armed. Requests above
// the ceiling are refused with bad_alloc instead of being attempted.
std::atomic<bool> gWatchAllocs{false};
std::atomic<std::size_t> gLargestAlloc{0};
constexpr std::size_t kAllocCeiling = std::size_t{64} << 20;

}  // namespace

void* operator new(std::size_t n) {
  if (gWatchAllocs.load(std::memory_order_relaxed)) {
    std::size_t seen = gLargestAlloc.load(std::memory_order_relaxed);
    while (n > seen && !gLargestAlloc.compare_exchange_weak(seen, n)) {
    }
    if (n > kAllocCeiling) throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

TEST(Exchange, HostileRoundHeaderAllocatesNothing) {
  // Rank 1 runs the exchange's two collectives by hand and announces 2^31
  // records behind an empty payload. Sizing columns from that header
  // would ask for tens of GB; the receiver must reject it with a protocol
  // error and allocate nothing near that.
  gLargestAlloc = 0;
  mm::Runtime::run(2, [](mm::Comm& comm) {
    if (comm.rank() == 0) {
      gWatchAllocs = true;
      EXPECT_THROW(mc::exchangeByCell(comm, mg::GeometryBatch(),
                                      [](int cell) { return mc::roundRobinOwner(cell, 2); }, 1, 4),
                   mvio::util::Error);
      gWatchAllocs = false;
      return;
    }
    std::vector<mc::RoundHeader> send(2), recv(2);
    send[0] = {0, 1u << 31, mc::kRoundLast};
    send[1].flags = mc::kRoundLast;
    comm.alltoall(send.data(), 1,
                  mm::Datatype::contiguous(static_cast<int>(sizeof(mc::RoundHeader)),
                                           mm::Datatype::byte()),
                  recv.data());
    const std::vector<int> none(2, 0);
    char byte = 0;
    comm.alltoallv(&byte, none.data(), none.data(), &byte, none.data(), none.data(),
                   mm::Datatype::char_());
  });
  EXPECT_LE(gLargestAlloc.load(), kAllocCeiling);
}
