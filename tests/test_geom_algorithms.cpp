// Tests for the space-filling curves (Z-order + Hilbert, including
// locality properties) that paper §4.1 names for spatial partitioning.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geom/space_curve.hpp"
#include "util/rng.hpp"

namespace mg = mvio::geom;

// ---- Z-order ----------------------------------------------------------------

TEST(ZOrder, KnownSmallValues) {
  EXPECT_EQ(mg::zOrderKey(0, 0, 4), 0u);
  EXPECT_EQ(mg::zOrderKey(1, 0, 4), 1u);
  EXPECT_EQ(mg::zOrderKey(0, 1, 4), 2u);
  EXPECT_EQ(mg::zOrderKey(1, 1, 4), 3u);
  EXPECT_EQ(mg::zOrderKey(2, 0, 4), 4u);
  EXPECT_EQ(mg::zOrderKey(3, 3, 4), 15u);
}

TEST(ZOrder, RoundTrips) {
  mvio::util::Rng rng(1);
  for (int order : {4, 10, 16, 31}) {
    for (int t = 0; t < 200; ++t) {
      const auto x = static_cast<std::uint32_t>(rng.below(1ull << order));
      const auto y = static_cast<std::uint32_t>(rng.below(1ull << order));
      std::uint32_t bx = 0, by = 0;
      mg::zOrderDecode(mg::zOrderKey(x, y, order), order, bx, by);
      EXPECT_EQ(bx, x);
      EXPECT_EQ(by, y);
    }
  }
}

// ---- Hilbert ------------------------------------------------------------------

TEST(Hilbert, IsABijectionOnSmallGrids) {
  for (int order : {1, 2, 3, 4}) {
    const std::uint64_t n = 1ull << order;
    std::set<std::uint64_t> keys;
    for (std::uint32_t x = 0; x < n; ++x) {
      for (std::uint32_t y = 0; y < n; ++y) {
        const auto k = mg::hilbertKey(x, y, order);
        EXPECT_LT(k, n * n);
        EXPECT_TRUE(keys.insert(k).second) << "duplicate key at (" << x << "," << y << ")";
      }
    }
    EXPECT_EQ(keys.size(), n * n);
  }
}

TEST(Hilbert, ConsecutiveKeysAreAdjacentCells) {
  // The defining property: the curve visits a neighbouring cell at each
  // step (Z-order does not have this).
  const int order = 5;
  const std::uint64_t n = 1ull << order;
  std::uint32_t px = 0, py = 0;
  mg::hilbertDecode(0, order, px, py);
  for (std::uint64_t k = 1; k < n * n; ++k) {
    std::uint32_t x = 0, y = 0;
    mg::hilbertDecode(k, order, x, y);
    const int manhattan = std::abs(static_cast<int>(x) - static_cast<int>(px)) +
                          std::abs(static_cast<int>(y) - static_cast<int>(py));
    EXPECT_EQ(manhattan, 1) << "jump at key " << k;
    px = x;
    py = y;
  }
}

TEST(Hilbert, RoundTrips) {
  mvio::util::Rng rng(2);
  for (int order : {4, 8, 16}) {
    for (int t = 0; t < 200; ++t) {
      const auto x = static_cast<std::uint32_t>(rng.below(1ull << order));
      const auto y = static_cast<std::uint32_t>(rng.below(1ull << order));
      std::uint32_t bx = 0, by = 0;
      mg::hilbertDecode(mg::hilbertKey(x, y, order), order, bx, by);
      EXPECT_EQ(bx, x);
      EXPECT_EQ(by, y);
    }
  }
}

TEST(CurveGrid, SortingImprovesLocality) {
  // Sorting clustered points by Hilbert key should place near points near
  // each other in sequence: the average distance between consecutive
  // points must shrink substantially vs random order.
  mvio::util::Rng rng(3);
  std::vector<mg::Coord> pts;
  for (int i = 0; i < 2000; ++i) pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});

  auto avgStep = [&](const std::vector<mg::Coord>& v) {
    double s = 0;
    for (std::size_t i = 1; i < v.size(); ++i) s += mg::distance(v[i - 1], v[i]);
    return s / static_cast<double>(v.size() - 1);
  };
  const double randomStep = avgStep(pts);

  const mg::CurveGrid grid{mg::Envelope(0, 0, 100, 100), 12};
  auto sorted = pts;
  std::sort(sorted.begin(), sorted.end(), [&](const mg::Coord& a, const mg::Coord& b) {
    return grid.hilbertKeyOf(a) < grid.hilbertKeyOf(b);
  });
  EXPECT_LT(avgStep(sorted), randomStep / 5.0);

  auto zsorted = pts;
  std::sort(zsorted.begin(), zsorted.end(),
            [&](const mg::Coord& a, const mg::Coord& b) { return grid.zKey(a) < grid.zKey(b); });
  EXPECT_LT(avgStep(zsorted), randomStep / 4.0);
}
