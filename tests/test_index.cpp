// R-tree and quadtree tests: queries must agree with a linear scan on
// random workloads (property), plus structural checks.

#include <gtest/gtest.h>

#include <algorithm>

#include "geom/quadtree.hpp"
#include "geom/rtree.hpp"
#include "util/rng.hpp"

namespace mg = mvio::geom;

namespace {

struct Workload {
  std::vector<mg::RTree::Entry> entries;
  std::vector<mg::Envelope> queries;
};

Workload makeWorkload(std::uint64_t seed, std::size_t n, std::size_t q) {
  mvio::util::Rng rng(seed);
  Workload w;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(-100, 100);
    const double y = rng.uniform(-100, 100);
    const double wdt = rng.uniform(0.01, 5.0);
    const double hgt = rng.uniform(0.01, 5.0);
    w.entries.push_back({mg::Envelope(x, y, x + wdt, y + hgt), i});
  }
  for (std::size_t i = 0; i < q; ++i) {
    const double x = rng.uniform(-110, 110);
    const double y = rng.uniform(-110, 110);
    w.queries.emplace_back(x, y, x + rng.uniform(0.1, 20.0), y + rng.uniform(0.1, 20.0));
  }
  return w;
}

std::vector<std::uint64_t> linearScan(const std::vector<mg::RTree::Entry>& entries,
                                      const mg::Envelope& q) {
  std::vector<std::uint64_t> out;
  for (const auto& e : entries) {
    if (e.box.intersects(q)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

TEST(RTree, EmptyTree) {
  mg::RTree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.height(), 0u);
  EXPECT_TRUE(t.search(mg::Envelope(0, 0, 1, 1)).empty());
  EXPECT_TRUE(t.bounds().isNull());
}

class RTreeProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RTreeProperty, BulkLoadMatchesLinearScan) {
  const auto [seed, n] = GetParam();
  Workload w = makeWorkload(static_cast<std::uint64_t>(seed), static_cast<std::size_t>(n), 40);
  mg::RTree t(8);
  t.bulkLoad(w.entries);
  EXPECT_EQ(t.size(), w.entries.size());
  for (const auto& q : w.queries) {
    auto got = t.search(q);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, linearScan(w.entries, q));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RTreeProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 7, 64, 500, 3000)));

TEST(RTree, BulkLoadHeightIsLogarithmic) {
  Workload w = makeWorkload(9, 4096, 0);
  mg::RTree t(16);
  t.bulkLoad(w.entries);
  // 4096 entries at fan-out 16: height should be ~3, certainly <= 5.
  EXPECT_LE(t.height(), 5u);
  EXPECT_GE(t.height(), 3u);
}

TEST(RTree, BoundsCoverEverything) {
  Workload w = makeWorkload(10, 300, 0);
  mg::RTree t;
  t.bulkLoad(w.entries);
  for (const auto& e : w.entries) EXPECT_TRUE(t.bounds().contains(e.box));
}

TEST(QuadTree, MatchesLinearScan) {
  Workload w = makeWorkload(11, 800, 40);
  mg::QuadTree qt(mg::Envelope(-110, -110, 110, 110));
  for (const auto& e : w.entries) qt.insert(e.box, e.id);
  EXPECT_EQ(qt.size(), w.entries.size());
  for (const auto& q : w.queries) {
    auto got = qt.search(q);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, linearScan(w.entries, q));
  }
}

TEST(QuadTree, HandlesEntriesOutsideBounds) {
  mg::QuadTree qt(mg::Envelope(0, 0, 10, 10), 6, 2);
  qt.insert(mg::Envelope(100, 100, 101, 101), 7);  // clamped to root
  auto got = qt.search(mg::Envelope(99, 99, 102, 102));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 7u);
}

TEST(QuadTree, SubdividesUnderLoad) {
  mg::QuadTree qt(mg::Envelope(0, 0, 64, 64), 8, 2);
  mvio::util::Rng rng(3);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const double x = rng.uniform(0, 63);
    const double y = rng.uniform(0, 63);
    qt.insert(mg::Envelope(x, y, x + 0.5, y + 0.5), i);
  }
  EXPECT_GT(qt.depth(), 2u);
  EXPECT_EQ(qt.size(), 200u);
}
